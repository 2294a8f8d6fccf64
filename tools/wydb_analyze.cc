// wydb_analyze: command-line front end for the paper's algorithms.
// Run `wydb_analyze --help` for the full usage text (kHelp below); the
// README.md CLI tour documents every flag and is kept in sync by the
// docs CI job (tools/check_docs.py).
//
// The workload format is documented in docs/FORMAT.md; see
// tools/sample_workload.wydb for an example.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "analysis/certificate.h"
#include "analysis/deadlock_checker.h"
#include "analysis/early_unlock.h"
#include "analysis/multi_analyzer.h"
#include "analysis/pair_analyzer.h"
#include "analysis/safety_checker.h"
#include "core/schedule.h"
#include "core/symmetry.h"
#include "gen/system_gen.h"
#include "io/text_format.h"
#include "runtime/live_engine.h"
#include "runtime/simulation.h"
#include "runtime/workload.h"

using namespace wydb;

namespace {

constexpr char kHelp[] =
    R"(wydb_analyze: static certification and traffic simulation of locked
distributed transaction systems (Wolfson-Yannakakis, PODS '85).

Usage:
  wydb_analyze <workload.wydb> [analysis options]
  wydb_analyze simulate <workload.wydb> [simulate options]
  wydb_analyze sweep <workload.wydb> [sweep options]
  wydb_analyze run <workload.wydb> [run options]
  wydb_analyze --help

Analysis options:
  --pairs            also print the per-pair Theorem 3 verdicts
  --exact            also run the exact (exponential) checkers
  --engine <e>       exact-checker engine, one level-synchronous search
                     in three configurations: incremental (default; one
                     thread), parallel (--search-threads workers), or
                     reduced (commutativity pruning + transaction-
                     symmetry canonicalization; verdict-equivalent,
                     visits far fewer states on symmetric workloads);
                     implies --exact and composes with --search-threads
  --search-threads <k>  worker threads for the parallel and reduced
                     engines (0 = hardware concurrency); without
                     --engine this selects the parallel engine, whose
                     verdicts, witnesses, and state counts are
                     bit-identical to the one-thread engine; implies
                     --exact
  --stats            print a per-check stats line (states interned,
                     sleep-set pruned expansions, symmetry orbits,
                     store bytes/state, arena and probe-table bytes,
                     spilled levels, fingerprint collision bound);
                     implies --exact
  --store-encoding <c>  exact-checker state-store key encoding: plain
                     (default), delta (varint parent-delta records in a
                     byte arena; same verdicts and state ids, much
                     smaller), or compact (64-bit fingerprints instead
                     of full keys; probabilistic, needs
                     --allow-compaction; not with the reduced engine);
                     implies --exact
  --mem-budget-mb <m>  spill staged search frontiers to a temporary
                     file whenever the store plus staging exceed <m>
                     MiB, bounding BFS memory by disk instead of RAM
                     (0 = never spill); implies --exact
  --max-states <n>   per-check state budget for the exact oracles
                     (default 5000000; a search past it returns
                     ResourceExhausted; 0 keeps the default); implies
                     --exact
  --timeout-ms <d>   per-check wall-clock budget for the exact oracles
                     (0 = none, the default); a check past it returns
                     ResourceExhausted, and the stats line reports how
                     often the engine consulted the clock
                     (deadline_polls); implies --exact
  --allow-compaction  accept the non-certified verdicts of
                     --store-encoding compact (sound refutations and
                     witnesses; "yes" verdicts carry a collision
                     probability bound, see --stats)
  --certificate <file>  write the safe+deadlock-free verdict as a
                     wydb-certificate v1 bundle (docs/SERVE.md): the
                     canonical form of the system, the verdict, and the
                     witness in canonical coordinates, fingerprinted;
                     implies --exact and refuses --store-encoding
                     compact (compacted verdicts are probabilistic)
  --optimize         run the early-unlock optimizer and print the result
  --simulate <runs>  simulate the workload <runs> times per policy
  --dump             echo the parsed system back in text format

simulate: run the traffic engine (replicated when the file has `copies`
stanzas; the file's `latency` stanza, if any, sets the network model).
  --policy <p>       block|detect|wound-wait|wait-die|all (default all)
  --runs <n>         seeded runs per policy (default 20)
  --seed <s>         base seed (default 1)
  --threads <k>      worker threads for the run sweep (default: hardware)
  --closed-loop      closed-loop traffic mode (each commit re-issues
                     after a think-time delay)
  --open-loop        open arrival variant (fixed-rate arrival clock)
  --duration <d>     traffic session length in sim time (default 100000)
  --think <t>        mean think time / inter-arrival interval
  --rounds <r>       per-transaction round target (bounds the session
                     instead of --duration unless both are given)
  --mpl <m>          multi-programming level cap (0 = unlimited)
Any of --open-loop/--duration/--think/--rounds/--mpl implies traffic
mode; without them the subcommand runs the one-shot simulation sweep.

sweep: run a policy x replication-degree x MPL grid of closed-loop
traffic sessions through the threaded seed sweep and emit one CSV row
per cell (header first, to stdout or --out). The CSV includes the
shared_grants / upgrades / upgrade_aborts lock-mode counters, so
sweeping --shared-fraction shows S-mode batching turn into lock-chain
contention.
  --policy <p>       as in simulate (default all)
  --degrees <list>   comma-separated replication degrees, e.g. 1,2,3
                     (round-robin placements; default: the file's own
                     placement, or single-copy)
  --mpls <list>      comma-separated MPL caps, e.g. 0,2,8 (default 0)
  --runs <n>         seeded sessions per cell (default 20)
  --seed <s>         base seed (default 1)
  --threads <k>      worker threads per cell (default: hardware)
  --duration <d>     session length in sim time (default 100000)
  --think <t>        mean think time (default 100)
  --out <file>       write the CSV to a file instead of stdout
  --gen read-mostly  generate the workload instead of reading a file: a
                     certified read-mostly farm (per-worker X-locked
                     private entity, then an S-locked shared read set;
                     DESIGN.md section 11) shaped by the knobs below
  --workers <n>      generated farm: identical workers (default 4)
  --read-entities <n>  generated farm: read-set entities (default 4)
  --shared-fraction <pct>  generated farm: percent of the read set kept
                     in S mode, 0-100 (default 100; 0 is the all-X
                     demotion of the same system)

run: execute the workload on the wall-clock LiveEngine (real OS threads
against the striped thread-safe lock table) or, for cross-checking, the
deterministic simulator. Certified systems may run the paper's
no-detection fast path (--policy block / --no-detection: pure blocking,
no timestamps, no timeout scans); the subcommand REFUSES that fast path
unless the Theorem 4 certification verdict is positive. Prints one
greppable `result:` line (exact counts; deterministic at --mpl 1 or
--threads 1) and one `perf:` line.
  --engine <e>       live (default) or sim (the closed-loop simulator,
                     for live-vs-sim cross-validation)
  --policy <p>       block|detect|wound-wait|wait-die (default detect);
                     block is the certified fast path and is gated on
                     the certification verdict
  --no-detection     alias for --policy block: run with deadlock
                     handling compiled out entirely
  --threads <k>      live worker threads (0 = hardware concurrency)
  --mpl <m>          multi-programming level cap (0 = unlimited)
  --rounds <r>       per-transaction round target (default 50 when no
                     --duration-ms is given)
  --duration-ms <d>  wall-clock session length in milliseconds (sim:
                     mapped to d*1000 simulated time units)
  --think-us <t>     mean think time between rounds, microseconds
  --hold-us <t>      dwell while holding each granted lock (widens the
                     live conflict window; useful to demonstrate
                     deadlocks on uncertified systems)
  --stripes <n>      lock-table latch stripes (0 = auto)
  --seed <s>         base seed (default 1)
)";

void PrintUsage(std::FILE* out) {
  std::fputs(
      "usage:\n"
      "  wydb_analyze <workload.wydb> [analysis options]\n"
      "  wydb_analyze simulate <workload.wydb> [simulate options]\n"
      "  wydb_analyze sweep <workload.wydb> [sweep options]\n"
      "  wydb_analyze run <workload.wydb> [run options]\n"
      "  wydb_analyze --help\n",
      out);
}

int Fail(const char* msg) {
  std::fprintf(stderr, "wydb_analyze: %s\n", msg);
  PrintUsage(stderr);
  return 2;
}

/// Exit path for a value-taking flag with no value (simulate/sweep).
[[noreturn]] void FailMissingValue(const char* opt) {
  std::fprintf(stderr, "wydb_analyze: %s needs a value\n", opt);
  PrintUsage(stderr);
  std::exit(2);
}

/// Strict non-negative integer flag value; exits 2 on garbage (atoi
/// would silently read "four" or "-5" as 0/-5).
int ParseCountFlag(const char* opt, const char* value) {
  int parsed = 0;
  bool digits = false;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9' || parsed > 100'000'000) {
      digits = false;
      break;
    }
    parsed = parsed * 10 + (*p - '0');
    digits = true;
  }
  if (!digits) {
    std::fprintf(stderr,
                 "wydb_analyze: %s wants a non-negative integer, got '%s'\n",
                 opt, value);
    PrintUsage(stderr);
    std::exit(2);
  }
  return parsed;
}

Result<WorkloadSpec> LoadWorkload(const char* path) {
  std::ifstream file(path);
  if (!file) {
    return Status::InvalidArgument("cannot open workload file");
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return ParseWorkload(buffer.str());
}

std::vector<ConflictPolicy> PoliciesFromArg(const char* arg) {
  if (!std::strcmp(arg, "all")) {
    return {ConflictPolicy::kBlock, ConflictPolicy::kDetect,
            ConflictPolicy::kWoundWait, ConflictPolicy::kWaitDie};
  }
  ConflictPolicy p;
  if (!ParseConflictPolicy(arg, &p)) return {};
  return {p};
}

int RunSimulateCommand(int argc, char** argv) {
  if (argc < 3) {
    return Fail("usage: wydb_analyze simulate <workload.wydb> [options]");
  }
  const char* policy_arg = "all";
  int runs = 20;
  uint64_t seed = 1;
  int threads = 0;
  bool traffic = false, open_loop = false, duration_set = false;
  SimTime duration = 100'000, think = 100;
  int rounds = 0, mpl = 0;
  for (int a = 3; a < argc; ++a) {
    auto next = [&](const char* opt) -> const char* {
      if (a + 1 >= argc) FailMissingValue(opt);
      return argv[++a];
    };
    if (!std::strcmp(argv[a], "--policy")) {
      policy_arg = next("--policy");
    } else if (!std::strcmp(argv[a], "--runs")) {
      runs = std::atoi(next("--runs"));
    } else if (!std::strcmp(argv[a], "--seed")) {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[a], "--threads")) {
      threads = std::atoi(next("--threads"));
    } else if (!std::strcmp(argv[a], "--closed-loop")) {
      traffic = true;
    } else if (!std::strcmp(argv[a], "--open-loop")) {
      traffic = true;
      open_loop = true;
    } else if (!std::strcmp(argv[a], "--duration")) {
      traffic = true;
      duration_set = true;
      duration = std::strtoull(next("--duration"), nullptr, 10);
    } else if (!std::strcmp(argv[a], "--think")) {
      traffic = true;
      think = std::strtoull(next("--think"), nullptr, 10);
    } else if (!std::strcmp(argv[a], "--rounds")) {
      traffic = true;
      rounds = std::atoi(next("--rounds"));
    } else if (!std::strcmp(argv[a], "--mpl")) {
      traffic = true;
      mpl = std::atoi(next("--mpl"));
    } else {
      return Fail("unknown simulate option");
    }
  }
  std::vector<ConflictPolicy> policies = PoliciesFromArg(policy_arg);
  if (policies.empty()) return Fail("unknown --policy");
  if (runs <= 0) return Fail("--runs must be positive");
  // --rounds alone means a rounds-bounded session, not duration-bounded.
  if (rounds > 0 && !duration_set) duration = 0;

  auto loaded = LoadWorkload(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 loaded.status().ToString().c_str());
    return 2;
  }
  const TransactionSystem& sys = *loaded->owned.system;
  const CopyPlacement* placement = loaded->owned.placement.get();
  std::printf(
      "%d transactions, %d entities, %d sites%s; %d runs per policy\n",
      sys.num_transactions(), sys.db().num_entities(), sys.db().num_sites(),
      placement != nullptr && placement->IsReplicated() ? " (replicated)"
                                                        : "",
      runs);

  for (ConflictPolicy policy : policies) {
    if (traffic) {
      WorkloadOptions opts;
      opts.sim.policy = policy;
      opts.sim.seed = seed;
      opts.sim.placement = placement;
      if (loaded->has_latency) opts.sim.latency = loaded->latency;
      opts.open_loop = open_loop;
      opts.think_time = think;
      opts.duration = duration;
      opts.rounds = rounds;
      opts.mpl = mpl;
      auto agg = RunWorkloadMany(sys, opts, runs, threads);
      if (!agg.ok()) {
        std::fprintf(stderr, "simulate failed: %s\n",
                     agg.status().ToString().c_str());
        return 1;
      }
      std::printf(
          "  %-10s throughput %.1f commits/Msim-us, commits %llu, "
          "abort rate %.3f, latency p50/p95/p99 %.0f/%.0f/%.0f, "
          "deadlocked %d, budget %d, gave-up %d, shared grants %llu, "
          "upgrades %llu, upgrade aborts %llu\n",
          ConflictPolicyName(policy), agg->avg_throughput,
          static_cast<unsigned long long>(agg->total_commits),
          agg->avg_abort_rate, agg->avg_p50, agg->avg_p95, agg->avg_p99,
          agg->deadlocked_runs, agg->budget_exhausted_runs,
          agg->gave_up_runs,
          static_cast<unsigned long long>(agg->total_shared_grants),
          static_cast<unsigned long long>(agg->total_upgrades),
          static_cast<unsigned long long>(agg->total_upgrade_aborts));
    } else {
      SimOptions opts;
      opts.policy = policy;
      opts.seed = seed;
      opts.placement = placement;
      if (loaded->has_latency) opts.latency = loaded->latency;
      auto agg = RunMany(sys, opts, runs, threads);
      if (!agg.ok()) {
        std::fprintf(stderr, "simulate failed: %s\n",
                     agg.status().ToString().c_str());
        return 1;
      }
      std::printf(
          "  %-10s committed %d/%d, deadlocked %d, budget %d, gave-up %d, "
          "aborts %llu, avg makespan %.0f, shared grants %llu, "
          "upgrades %llu, upgrade aborts %llu\n",
          ConflictPolicyName(policy), agg->committed_runs, agg->runs,
          agg->deadlocked_runs, agg->budget_exhausted_runs,
          agg->gave_up_runs,
          static_cast<unsigned long long>(agg->total_aborts),
          agg->avg_makespan,
          static_cast<unsigned long long>(agg->total_shared_grants),
          static_cast<unsigned long long>(agg->total_upgrades),
          static_cast<unsigned long long>(agg->total_upgrade_aborts));
    }
  }
  return 0;
}

int RunRunCommand(int argc, char** argv) {
  if (argc < 3) {
    return Fail("usage: wydb_analyze run <workload.wydb> [options]");
  }
  const char* engine_arg = "live";
  const char* policy_arg = "detect";
  bool no_detection = false;
  uint64_t seed = 1;
  int threads = 0, mpl = 0, rounds = 0, stripes = 0;
  int duration_ms = 0, think_us = 0, hold_us = 0;
  for (int a = 3; a < argc; ++a) {
    auto next = [&](const char* opt) -> const char* {
      if (a + 1 >= argc) FailMissingValue(opt);
      return argv[++a];
    };
    if (!std::strcmp(argv[a], "--engine")) {
      engine_arg = next("--engine");
    } else if (!std::strcmp(argv[a], "--policy")) {
      policy_arg = next("--policy");
    } else if (!std::strcmp(argv[a], "--no-detection")) {
      no_detection = true;
    } else if (!std::strcmp(argv[a], "--threads")) {
      threads = ParseCountFlag("--threads", next("--threads"));
    } else if (!std::strcmp(argv[a], "--mpl")) {
      mpl = ParseCountFlag("--mpl", next("--mpl"));
    } else if (!std::strcmp(argv[a], "--rounds")) {
      rounds = ParseCountFlag("--rounds", next("--rounds"));
    } else if (!std::strcmp(argv[a], "--duration-ms")) {
      duration_ms = ParseCountFlag("--duration-ms", next("--duration-ms"));
    } else if (!std::strcmp(argv[a], "--think-us")) {
      think_us = ParseCountFlag("--think-us", next("--think-us"));
    } else if (!std::strcmp(argv[a], "--hold-us")) {
      hold_us = ParseCountFlag("--hold-us", next("--hold-us"));
    } else if (!std::strcmp(argv[a], "--stripes")) {
      stripes = ParseCountFlag("--stripes", next("--stripes"));
    } else if (!std::strcmp(argv[a], "--seed")) {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else {
      return Fail("unknown run option");
    }
  }
  const bool live = !std::strcmp(engine_arg, "live");
  if (!live && std::strcmp(engine_arg, "sim") != 0) {
    return Fail("--engine wants live or sim");
  }
  ConflictPolicy policy;
  if (!ParseConflictPolicy(policy_arg, &policy)) {
    return Fail("--policy wants block, detect, wound-wait, or wait-die");
  }
  if (no_detection) policy = ConflictPolicy::kBlock;
  if (rounds == 0 && duration_ms == 0) rounds = 50;

  auto loaded = LoadWorkload(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 loaded.status().ToString().c_str());
    return 2;
  }
  const TransactionSystem& sys = *loaded->owned.system;
  std::printf("%d transactions, %d entities, %d sites; %s engine, %s "
              "policy\n",
              sys.num_transactions(), sys.db().num_entities(),
              sys.db().num_sites(), live ? "live" : "sim",
              ConflictPolicyName(policy));

  // The fast-path gate: detection-free blocking is the paper's payoff,
  // and it is only sound when the Theorem 4 verdict is positive. An
  // uncertified system under pure blocking can deadlock, so the run is
  // refused outright rather than left to the watchdog.
  if (policy == ConflictPolicy::kBlock && live) {
    auto report = CheckSystemSafeAndDeadlockFree(sys);
    if (!report.ok() || !report->safe_and_deadlock_free) {
      std::fprintf(
          stderr,
          "wydb_analyze: refusing the no-detection fast path: the system "
          "is not certified safe + deadlock-free (Theorem 4)%s%s; run "
          "under --policy detect, wound-wait, or wait-die instead\n",
          report.ok() ? "" : " — static analysis failed: ",
          report.ok() ? "" : report.status().ToString().c_str());
      return 2;
    }
    std::printf(
        "certified safe + deadlock-free: running with deadlock handling "
        "compiled out\n");
  }

  if (live) {
    LiveOptions o;
    o.policy = policy;
    o.seed = seed;
    o.threads = threads;
    o.mpl = mpl;
    o.rounds = rounds;
    o.duration_ms = duration_ms;
    o.think_us = think_us;
    o.hold_us = hold_us;
    o.num_stripes = stripes;
    auto r = RunLive(sys, o);
    if (!r.ok()) {
      std::fprintf(stderr, "run failed: %s\n", r.status().ToString().c_str());
      return 2;
    }
    std::printf(
        "result: engine=live policy=%s commits=%llu aborts=%llu "
        "abort_rate=%.3f deadlocked=%d gave_up=%d\n",
        ConflictPolicyName(policy),
        static_cast<unsigned long long>(r->commits),
        static_cast<unsigned long long>(r->aborts), r->abort_rate,
        r->deadlocked ? 1 : 0, r->gave_up ? 1 : 0);
    std::printf(
        "perf: threads=%d stripes=%d wall_s=%.3f commits_per_sec=%.1f "
        "lock_ops_per_sec=%.1f p50_us=%llu p95_us=%llu p99_us=%llu "
        "shared_grants=%llu upgrades=%llu upgrade_aborts=%llu\n",
        r->threads, r->stripes, r->wall_seconds, r->commits_per_sec,
        r->lock_ops_per_sec,
        static_cast<unsigned long long>(r->latency.p50),
        static_cast<unsigned long long>(r->latency.p95),
        static_cast<unsigned long long>(r->latency.p99),
        static_cast<unsigned long long>(r->shared_grants),
        static_cast<unsigned long long>(r->upgrades),
        static_cast<unsigned long long>(r->upgrade_aborts));
    if (r->deadlocked) {
      std::printf("deadlocked transactions:");
      for (int t : r->blocked_txns)
        std::printf(" %s", sys.txn(t).name().c_str());
      std::printf("\n");
    }
    return r->completed ? 0 : 1;
  }

  WorkloadOptions opts;
  opts.sim.policy = policy;
  opts.sim.seed = seed;
  opts.sim.placement = loaded->owned.placement.get();
  if (loaded->has_latency) opts.sim.latency = loaded->latency;
  opts.think_time = static_cast<SimTime>(think_us);
  opts.duration = static_cast<SimTime>(duration_ms) * 1000;
  opts.rounds = rounds;
  opts.mpl = mpl;
  auto r = RunWorkload(sys, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "run failed: %s\n", r.status().ToString().c_str());
    return 2;
  }
  std::printf(
      "result: engine=sim policy=%s commits=%llu aborts=%llu "
      "abort_rate=%.3f deadlocked=%d gave_up=%d\n",
      ConflictPolicyName(policy), static_cast<unsigned long long>(r->commits),
      static_cast<unsigned long long>(r->aborts), r->abort_rate,
      r->deadlocked ? 1 : 0, r->gave_up ? 1 : 0);
  std::printf(
      "perf: makespan=%llu throughput=%.1f p50_us=%llu p95_us=%llu "
      "p99_us=%llu shared_grants=%llu upgrades=%llu upgrade_aborts=%llu\n",
      static_cast<unsigned long long>(r->makespan), r->throughput,
      static_cast<unsigned long long>(r->latency.p50),
      static_cast<unsigned long long>(r->latency.p95),
      static_cast<unsigned long long>(r->latency.p99),
      static_cast<unsigned long long>(r->shared_grants),
      static_cast<unsigned long long>(r->upgrades),
      static_cast<unsigned long long>(r->upgrade_aborts));
  return !r->deadlocked && !r->gave_up ? 0 : 1;
}

// Parses "1,2,8" into non-negative ints; empty on malformed input or
// entries beyond a sane bound (guards signed overflow).
std::vector<int> ParseIntList(const char* arg) {
  constexpr int kMax = 1'000'000'000;
  std::vector<int> out;
  int value = 0;
  bool digits = false;
  for (const char* p = arg;; ++p) {
    if (*p >= '0' && *p <= '9') {
      if (value > kMax / 10) return {};
      value = value * 10 + (*p - '0');
      digits = true;
    } else if (*p == ',' || *p == '\0') {
      if (!digits) return {};
      out.push_back(value);
      value = 0;
      digits = false;
      if (*p == '\0') return out;
    } else {
      return {};
    }
  }
}

int RunSweepCommand(int argc, char** argv) {
  if (argc < 3) {
    return Fail(
        "usage: wydb_analyze sweep <workload.wydb | --gen read-mostly> "
        "[options]");
  }
  const char* policy_arg = "all";
  const char* out_path = nullptr;
  const char* workload_path = nullptr;
  bool gen_read_mostly = false, farm_knob_set = false;
  int workers = 4, read_entities = 4, shared_pct = 100;
  std::vector<int> degrees;  // Empty: use the file's own placement.
  std::vector<int> mpls = {0};
  int runs = 20, threads = 0;
  uint64_t seed = 1;
  SimTime duration = 100'000, think = 100;
  // `--gen read-mostly` replaces the workload-file argument, so the
  // option scan starts at argv[2] when no file is given.
  int a = 3;
  if (argv[2][0] != '-') {
    workload_path = argv[2];
  } else {
    a = 2;
  }
  for (; a < argc; ++a) {
    auto next = [&](const char* opt) -> const char* {
      if (a + 1 >= argc) FailMissingValue(opt);
      return argv[++a];
    };
    if (!std::strcmp(argv[a], "--policy")) {
      policy_arg = next("--policy");
    } else if (!std::strcmp(argv[a], "--degrees")) {
      degrees = ParseIntList(next("--degrees"));
      if (degrees.empty()) return Fail("--degrees wants e.g. 1,2,3");
    } else if (!std::strcmp(argv[a], "--mpls")) {
      mpls = ParseIntList(next("--mpls"));
      if (mpls.empty()) return Fail("--mpls wants e.g. 0,2,8");
    } else if (!std::strcmp(argv[a], "--runs")) {
      runs = std::atoi(next("--runs"));
    } else if (!std::strcmp(argv[a], "--seed")) {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[a], "--threads")) {
      threads = std::atoi(next("--threads"));
    } else if (!std::strcmp(argv[a], "--duration")) {
      duration = std::strtoull(next("--duration"), nullptr, 10);
    } else if (!std::strcmp(argv[a], "--think")) {
      think = std::strtoull(next("--think"), nullptr, 10);
    } else if (!std::strcmp(argv[a], "--out")) {
      out_path = next("--out");
    } else if (!std::strcmp(argv[a], "--gen")) {
      if (std::strcmp(next("--gen"), "read-mostly") != 0) {
        return Fail("--gen wants read-mostly");
      }
      gen_read_mostly = true;
    } else if (!std::strcmp(argv[a], "--workers")) {
      workers = ParseCountFlag("--workers", next("--workers"));
      farm_knob_set = true;
    } else if (!std::strcmp(argv[a], "--read-entities")) {
      read_entities = ParseCountFlag("--read-entities",
                                     next("--read-entities"));
      farm_knob_set = true;
    } else if (!std::strcmp(argv[a], "--shared-fraction")) {
      shared_pct = ParseCountFlag("--shared-fraction",
                                  next("--shared-fraction"));
      if (shared_pct > 100) {
        return Fail("--shared-fraction wants a percentage in 0-100");
      }
      farm_knob_set = true;
    } else {
      return Fail("unknown sweep option");
    }
  }
  std::vector<ConflictPolicy> policies = PoliciesFromArg(policy_arg);
  if (policies.empty()) return Fail("unknown --policy");
  if (runs <= 0) return Fail("--runs must be positive");
  if (duration == 0) return Fail("--duration must be positive");
  if (gen_read_mostly && workload_path != nullptr) {
    return Fail("--gen read-mostly replaces the workload file; give one "
                "or the other");
  }
  if (farm_knob_set && !gen_read_mostly) {
    return Fail("--workers/--read-entities/--shared-fraction need "
                "--gen read-mostly");
  }
  if (!gen_read_mostly && workload_path == nullptr) {
    return Fail("sweep needs a workload file or --gen read-mostly");
  }

  std::optional<Result<WorkloadSpec>> loaded;
  OwnedSystem generated_sys;
  const TransactionSystem* sys_ptr = nullptr;
  const CopyPlacement* file_placement = nullptr;
  bool has_latency = false;
  LatencyModel latency;
  if (gen_read_mostly) {
    ReadMostlyFarmOptions fopts;
    fopts.workers = workers;
    fopts.read_entities = read_entities;
    fopts.shared_fraction = static_cast<double>(shared_pct) / 100.0;
    auto farm = GenerateReadMostlyFarm(fopts);
    if (!farm.ok()) {
      std::fprintf(stderr, "wydb_analyze: generating the read-mostly "
                   "farm failed: %s\n",
                   farm.status().ToString().c_str());
      return 2;
    }
    generated_sys = std::move(*farm);
    sys_ptr = generated_sys.system.get();
    file_placement = generated_sys.placement.get();
  } else {
    loaded.emplace(LoadWorkload(workload_path));
    if (!loaded->ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   loaded->status().ToString().c_str());
      return 2;
    }
    sys_ptr = (*loaded)->owned.system.get();
    file_placement = (*loaded)->owned.placement.get();
    has_latency = (*loaded)->has_latency;
    if (has_latency) latency = (*loaded)->latency;
  }
  const TransactionSystem& sys = *sys_ptr;

  // Resolve the degree axis: explicit --degrees build round-robin
  // placements; otherwise the single cell uses the file's placement (or
  // single-copy when the file has none).
  struct DegreeCell {
    int degree;
    const CopyPlacement* placement;  // Null = single-copy.
  };
  std::vector<CopyPlacement> generated;
  std::vector<DegreeCell> degree_cells;
  if (degrees.empty()) {
    degree_cells.push_back(
        {file_placement != nullptr ? file_placement->MaxDegree() : 1,
         file_placement});
  } else {
    generated.reserve(degrees.size());  // Stable addresses for the cells.
    for (int d : degrees) {
      if (d < 1) return Fail("--degrees entries must be >= 1");
      if (d > sys.db().num_sites()) {
        std::fprintf(stderr,
                     "wydb_analyze: degree %d exceeds the %d sites; "
                     "clamping\n",
                     d, sys.db().num_sites());
      }
      generated.push_back(CopyPlacement::RoundRobin(sys.db(), d));
      degree_cells.push_back({generated.back().MaxDegree(),
                              &generated.back()});
    }
  }

  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) return Fail("cannot open --out file");
  }
  std::fprintf(out,
               "policy,degree,mpl,runs,total_commits,total_aborts,"
               "avg_throughput,avg_abort_rate,avg_p50,avg_p95,avg_p99,"
               "deadlocked_runs,budget_exhausted_runs,gave_up_runs,"
               "shared_grants,upgrades,upgrade_aborts\n");
  for (ConflictPolicy policy : policies) {
    for (const DegreeCell& cell : degree_cells) {
      for (int mpl : mpls) {
        WorkloadOptions opts;
        opts.sim.policy = policy;
        opts.sim.seed = seed;
        opts.sim.placement = cell.placement;
        if (has_latency) opts.sim.latency = latency;
        opts.duration = duration;
        opts.think_time = think;
        opts.mpl = mpl;
        auto agg = RunWorkloadMany(sys, opts, runs, threads);
        if (!agg.ok()) {
          std::fprintf(stderr, "sweep cell failed: %s\n",
                       agg.status().ToString().c_str());
          if (out != stdout) std::fclose(out);
          return 1;
        }
        std::fprintf(out,
                     "%s,%d,%d,%d,%llu,%llu,%.3f,%.4f,%.1f,%.1f,%.1f,%d,"
                     "%d,%d,%llu,%llu,%llu\n",
                     ConflictPolicyName(policy), cell.degree, mpl, agg->runs,
                     static_cast<unsigned long long>(agg->total_commits),
                     static_cast<unsigned long long>(agg->total_aborts),
                     agg->avg_throughput, agg->avg_abort_rate, agg->avg_p50,
                     agg->avg_p95, agg->avg_p99, agg->deadlocked_runs,
                     agg->budget_exhausted_runs, agg->gave_up_runs,
                     static_cast<unsigned long long>(agg->total_shared_grants),
                     static_cast<unsigned long long>(agg->total_upgrades),
                     static_cast<unsigned long long>(
                         agg->total_upgrade_aborts));
      }
    }
  }
  if (out != stdout) std::fclose(out);
  return 0;
}

void PrintMultiVerdict(const TransactionSystem& sys,
                       const MultiReport& report) {
  std::printf("Theorem 4 (safe + deadlock-free): %s\n",
              report.safe_and_deadlock_free ? "CERTIFIED" : "REFUTED");
  std::printf(
      "  path search: paths_visited=%llu cycle_variants_tested=%llu "
      "cycles_tested=%llu\n",
      static_cast<unsigned long long>(report.path_nodes),
      static_cast<unsigned long long>(report.variants_checked),
      static_cast<unsigned long long>(report.cycles_checked));
  if (report.safe_and_deadlock_free || !report.violation) return;
  const MultiViolation& v = *report.violation;
  if (v.failed_pair) {
    std::printf("  failing pair: %s, %s\n",
                sys.txn(v.failed_pair->first).name().c_str(),
                sys.txn(v.failed_pair->second).name().c_str());
    std::printf("  %s\n", v.pair_verdict.explanation.c_str());
  } else {
    std::printf("  circular wait:");
    for (int i : v.cycle) std::printf(" %s", sys.txn(i).name().c_str());
    std::printf("\n  witness partial schedule:\n    %s\n",
                ScheduleToString(sys, v.witness).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 &&
      (!std::strcmp(argv[1], "--help") || !std::strcmp(argv[1], "help"))) {
    std::fputs(kHelp, stdout);
    return 0;
  }
  if (argc < 2) {
    return Fail("no workload given; see wydb_analyze --help");
  }
  if (!std::strcmp(argv[1], "simulate")) {
    return RunSimulateCommand(argc, argv);
  }
  if (!std::strcmp(argv[1], "sweep")) {
    return RunSweepCommand(argc, argv);
  }
  if (!std::strcmp(argv[1], "run")) {
    return RunRunCommand(argc, argv);
  }
  if (argv[1][0] == '-') {
    return Fail("expected a workload file or subcommand before options");
  }
  bool pairs = false, exact = false, optimize = false, dump = false;
  bool stats = false, engine_set = false, allow_compaction = false;
  const char* cert_path = nullptr;
  int max_states = 0;
  int timeout_ms = 0;
  SearchEngine engine = SearchEngine::kIncremental;
  StoreOptions store;
  int simulate_runs = 0, search_threads = 0;
  for (int a = 2; a < argc; ++a) {
    if (!std::strcmp(argv[a], "--pairs")) {
      pairs = true;
    } else if (!std::strcmp(argv[a], "--exact")) {
      exact = true;
    } else if (!std::strcmp(argv[a], "--engine")) {
      if (a + 1 >= argc) FailMissingValue("--engine");
      const char* name = argv[++a];
      exact = true;  // The engine choice only shows in the exact checks.
      engine_set = true;
      if (!std::strcmp(name, "incremental")) {
        engine = SearchEngine::kIncremental;
      } else if (!std::strcmp(name, "parallel")) {
        engine = SearchEngine::kParallelSharded;
      } else if (!std::strcmp(name, "reduced")) {
        engine = SearchEngine::kReduced;
      } else {
        return Fail("--engine wants incremental, parallel, or reduced");
      }
    } else if (!std::strcmp(argv[a], "--search-threads")) {
      if (a + 1 >= argc) FailMissingValue("--search-threads");
      exact = true;
      // Without an explicit --engine, a thread count selects the
      // bit-identical parallel engine (the pre---engine behavior).
      if (!engine_set) {
        engine = SearchEngine::kParallelSharded;
        engine_set = true;
      }
      search_threads = ParseCountFlag("--search-threads", argv[++a]);
    } else if (!std::strcmp(argv[a], "--stats")) {
      exact = true;
      stats = true;
    } else if (!std::strcmp(argv[a], "--store-encoding")) {
      if (a + 1 >= argc) FailMissingValue("--store-encoding");
      const char* name = argv[++a];
      exact = true;  // The store only exists in the exact checks.
      if (!std::strcmp(name, "plain")) {
        store.encoding = StoreOptions::KeyEncoding::kPlain;
      } else if (!std::strcmp(name, "delta")) {
        store.encoding = StoreOptions::KeyEncoding::kDelta;
      } else if (!std::strcmp(name, "compact")) {
        store.encoding = StoreOptions::KeyEncoding::kCompact;
      } else {
        return Fail("--store-encoding wants plain, delta, or compact");
      }
    } else if (!std::strcmp(argv[a], "--mem-budget-mb")) {
      if (a + 1 >= argc) FailMissingValue("--mem-budget-mb");
      exact = true;
      store.mem_budget_mb = ParseCountFlag("--mem-budget-mb", argv[++a]);
    } else if (!std::strcmp(argv[a], "--max-states")) {
      if (a + 1 >= argc) FailMissingValue("--max-states");
      exact = true;
      max_states = ParseCountFlag("--max-states", argv[++a]);
    } else if (!std::strcmp(argv[a], "--timeout-ms")) {
      if (a + 1 >= argc) FailMissingValue("--timeout-ms");
      exact = true;
      timeout_ms = ParseCountFlag("--timeout-ms", argv[++a]);
    } else if (!std::strcmp(argv[a], "--allow-compaction")) {
      exact = true;
      allow_compaction = true;
    } else if (!std::strcmp(argv[a], "--certificate")) {
      if (a + 1 >= argc) FailMissingValue("--certificate");
      exact = true;
      cert_path = argv[++a];
    } else if (!std::strcmp(argv[a], "--optimize")) {
      optimize = true;
    } else if (!std::strcmp(argv[a], "--dump")) {
      dump = true;
    } else if (!std::strcmp(argv[a], "--simulate")) {
      if (a + 1 >= argc) FailMissingValue("--simulate");
      simulate_runs = ParseCountFlag("--simulate", argv[++a]);
    } else {
      return Fail("unknown option");
    }
  }

  // Compaction misuse is refused before any work happens (compact under
  // reduced: witness replay reads the ancestor keys compaction drops).
  if (store.encoding == StoreOptions::KeyEncoding::kCompact) {
    if (cert_path != nullptr) {
      return Fail(
          "--certificate refuses --store-encoding compact: compacted "
          "verdicts are probabilistic and cannot be certified");
    }
    if (engine == SearchEngine::kReduced) {
      return Fail("--store-encoding compact needs the parallel engine");
    }
    if (!allow_compaction) {
      return Fail(
          "--store-encoding compact replaces keys by fingerprints and "
          "cannot certify; pass --allow-compaction to accept that");
    }
  }

  auto parsed = LoadWorkload(argv[1]);
  if (!parsed.ok()) {
    // A missing file here is just as likely a mistyped subcommand.
    std::fprintf(stderr, "parse error (workload '%s'): %s\n", argv[1],
                 parsed.status().ToString().c_str());
    PrintUsage(stderr);
    return 2;
  }
  const TransactionSystem& sys = *parsed->owned.system;
  std::printf("parsed %d transactions, %d entities, %d sites (%d steps)\n",
              sys.num_transactions(), sys.db().num_entities(),
              sys.db().num_sites(), sys.TotalSteps());
  if (dump) {
    std::printf("%s",
                SerializeWorkload(sys, parsed->owned.placement.get(),
                                  parsed->has_latency ? &parsed->latency
                                                      : nullptr)
                    .c_str());
  }

  // The static analyzer's path search can exhaust its path-node budget
  // on a dense interaction graph whose paths are not cut early, while the
  // system stays within reach of the exact engines. With --exact the run
  // then falls through to the exact checks and the exit code follows
  // their verdicts instead.
  auto report = CheckSystemSafeAndDeadlockFree(sys);
  if (!report.ok()) {
    if (exact &&
        report.status().code() == StatusCode::kResourceExhausted) {
      std::printf("static analysis: %s\n  (budget exhausted; deferring to "
                  "the exact checks)\n",
                  report.status().ToString().c_str());
    } else {
      std::fprintf(stderr, "analysis failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
  } else {
    PrintMultiVerdict(sys, *report);
  }

  if (pairs) {
    std::printf("\nper-pair Theorem 3 verdicts:\n");
    for (int i = 0; i < sys.num_transactions(); ++i) {
      for (int j = i + 1; j < sys.num_transactions(); ++j) {
        auto v = CheckPairTheorem3(sys.txn(i), sys.txn(j));
        if (!v.ok()) continue;
        std::printf("  %s vs %s: %s", sys.txn(i).name().c_str(),
                    sys.txn(j).name().c_str(),
                    v->safe_and_deadlock_free ? "ok" : "FAIL");
        if (v->dominating_entity != kInvalidEntity) {
          std::printf(" (first entity: %s)",
                      sys.db().EntityName(v->dominating_entity).c_str());
        }
        std::printf("\n");
      }
    }
  }

  bool exact_deadlock_free = false;
  bool exact_safe = false;
  if (exact) {
    const char* engine_name =
        engine == SearchEngine::kParallelSharded ? "parallel"
        : engine == SearchEngine::kReduced       ? "reduced"
                                                 : "incremental";
    std::printf("\nexact checks (exponential; budgets apply; %s engine):\n",
                engine_name);
    DeadlockCheckOptions dopts;
    SafetyCheckOptions sopts;
    dopts.engine = engine;
    dopts.search_threads = search_threads;
    dopts.store = store;
    sopts.engine = engine;
    sopts.search_threads = search_threads;
    sopts.store = store;
    if (max_states > 0) {
      dopts.max_states = static_cast<uint64_t>(max_states);
      sopts.max_states = static_cast<uint64_t>(max_states);
    }
    // Each check gets its own wall-clock budget, armed immediately
    // before it runs so earlier checks don't eat a later one's time.
    auto arm_deadline = [&](std::chrono::steady_clock::time_point* d) {
      if (timeout_ms > 0) {
        *d = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(timeout_ms);
      }
    };
    // The stats line is sweep-greppable: one `stats:` token, then fixed
    // key=value fields (covered by the check_docs.py CLI smoke cases).
    // Orbits are only computed when the line is actually printed.
    std::optional<TransactionOrbits> orbits;
    if (stats) orbits.emplace(sys);
    auto print_stats = [&](const auto& r) {
      if (!stats) return;
      const uint64_t denom = r.states_interned > 0 ? r.states_interned : 1;
      std::printf(
          "    stats: states_interned=%llu sleep_set_pruned=%llu "
          "deadline_polls=%llu orbits=%d largest_orbit=%d "
          "bytes_per_state=%.1f arena_bytes=%llu probe_table_bytes=%llu "
          "spilled_levels=%llu fingerprint_collision_bound=%.3g\n",
          static_cast<unsigned long long>(r.states_interned),
          static_cast<unsigned long long>(r.sleep_set_pruned),
          static_cast<unsigned long long>(r.deadline_polls),
          orbits->num_orbits(), orbits->largest_orbit(),
          static_cast<double>(r.store_bytes) / static_cast<double>(denom),
          static_cast<unsigned long long>(r.arena_bytes),
          static_cast<unsigned long long>(r.probe_table_bytes),
          static_cast<unsigned long long>(r.spilled_levels),
          r.fingerprint_collision_bound);
    };
    arm_deadline(&dopts.deadline);
    auto df = CheckDeadlockFreedom(sys, dopts);
    exact_deadlock_free = df.ok() && df->deadlock_free;
    if (df.ok()) {
      std::printf("  deadlock-free: %s%s (%llu states)\n",
                  df->deadlock_free ? "yes" : "NO",
                  df->exact ? "" : " [not certified: hash-compacted]",
                  static_cast<unsigned long long>(df->states_visited));
      if (!df->deadlock_free) {
        std::printf("    witness: %s\n",
                    ScheduleToString(sys, df->witness->schedule).c_str());
      }
      print_stats(*df);
    } else {
      std::printf("  deadlock-free: %s\n", df.status().ToString().c_str());
    }
    arm_deadline(&sopts.deadline);
    auto safe = CheckSafety(sys, sopts);
    exact_safe = safe.ok() && safe->holds;
    if (safe.ok()) {
      std::printf("  safe: %s%s\n", safe->holds ? "yes" : "NO",
                  safe->exact ? "" : " [not certified: hash-compacted]");
      print_stats(*safe);
    } else {
      std::printf("  safe: %s\n", safe.status().ToString().c_str());
    }

    if (cert_path != nullptr) {
      arm_deadline(&sopts.deadline);
      auto full = CheckSafeAndDeadlockFree(sys, sopts);
      if (!full.ok()) {
        std::fprintf(stderr, "wydb_analyze: --certificate check failed: %s\n",
                     full.status().ToString().c_str());
        return 1;
      }
      auto key = CanonicalSystemKey(sys);
      if (!key.ok()) {
        std::fprintf(stderr, "wydb_analyze: canonicalization failed: %s\n",
                     key.status().ToString().c_str());
        return 1;
      }
      std::ofstream cert_out(cert_path);
      if (!cert_out) {
        std::fprintf(stderr,
                     "wydb_analyze: cannot open --certificate file '%s'\n",
                     cert_path);
        return 1;
      }
      cert_out << SerializeCertificate(MakeCertificate(*key, *full));
      std::printf("certificate: path=%s certified=%s states=%llu "
                  "key=%016llx\n",
                  cert_path, full->holds ? "yes" : "no",
                  static_cast<unsigned long long>(full->states_visited),
                  static_cast<unsigned long long>(key->hash));
    }
  }

  if (optimize) {
    std::printf("\nearly-unlock optimization:\n");
    auto opt = OptimizeEarlyUnlock(sys);
    if (!opt.ok()) {
      std::printf("  %s\n", opt.status().ToString().c_str());
    } else {
      std::printf("  holding cost %lld -> %lld (%llu hoists, %llu "
                  "rejected, %d partial-order txns skipped)\n",
                  static_cast<long long>(opt->holding_cost_before),
                  static_cast<long long>(opt->holding_cost_after),
                  static_cast<unsigned long long>(opt->moves_committed),
                  static_cast<unsigned long long>(opt->moves_rejected),
                  opt->skipped_partial);
      std::printf("%s", SerializeSystem(opt->system).c_str());
    }
  }

  if (simulate_runs > 0) {
    std::printf("\nsimulation (%d runs per policy):\n", simulate_runs);
    for (auto policy : {ConflictPolicy::kBlock, ConflictPolicy::kDetect,
                        ConflictPolicy::kWoundWait,
                        ConflictPolicy::kWaitDie}) {
      SimOptions opts;
      opts.policy = policy;
      opts.placement = parsed->owned.placement.get();
      if (parsed->has_latency) opts.latency = parsed->latency;
      auto agg = RunMany(sys, opts, simulate_runs);
      if (!agg.ok()) continue;
      std::printf(
          "  %-10s committed %d/%d, deadlocked %d, budget %d, gave-up %d, "
          "aborts %llu, avg makespan %.0f, shared grants %llu, "
          "upgrades %llu, upgrade aborts %llu\n",
          ConflictPolicyName(policy), agg->committed_runs, agg->runs,
          agg->deadlocked_runs, agg->budget_exhausted_runs,
          agg->gave_up_runs,
          static_cast<unsigned long long>(agg->total_aborts),
          agg->avg_makespan,
          static_cast<unsigned long long>(agg->total_shared_grants),
          static_cast<unsigned long long>(agg->total_upgrades),
          static_cast<unsigned long long>(agg->total_upgrade_aborts));
    }
  }
  if (report.ok()) return report->safe_and_deadlock_free ? 0 : 1;
  // Static analysis deferred to the exact checks (ResourceExhausted +
  // --exact above): certify on their combined verdict.
  return exact_deadlock_free && exact_safe ? 0 : 1;
}
