// Differential fuzz suite: on ~200 randomly generated systems per run,
// every layer of the stack must tell one consistent story —
//
//   * the full-expansion engines (incremental, parallel sharded at >1
//     thread) agree with the naive reference search of
//     tests/reference_search.h on the exact deadlock verdict, witness, and
//     states_visited, in both detection modes;
//   * the reduced engine (kReduced, serial and 4-thread) agrees on every
//     verdict — deadlock in both detection modes, safe+DF, and pure
//     safety — and is deterministic across thread counts; its state
//     counts are *not* compared (it explores a reduced space);
//   * every witness actually replays: a stuck-state witness is legal from
//     the empty state and ends stuck and incomplete; a reduction-graph
//     witness ends in a cyclic-reduction-graph prefix; a safety violation
//     rebuilds a cyclic conflict digraph D(S') containing the reported
//     transaction cycle (and is complete for the pure-safety checker);
//   * the traffic engine agrees with the static verdict: a system the
//     exact checker certifies deadlock-free never deadlocks under the
//     pure blocking policy, and conversely any observed traffic deadlock
//     implies the checker refuted deadlock-freedom;
//   * on every 8th certified deadlock-free case, the live engine (real
//     threads, pure blocking, no detection machinery) commits every
//     round without deadlocking or aborting, and the simulator's
//     rounds-bounded session reproduces its exact commit/abort counts.
//
// Seeding is deterministic (testutil::kDiffFuzzBaseSeed + case index) so
// a run is reproducible; every failure message carries the case seed, and
// WYDB_DIFF_FUZZ_SEED=<seed> replays exactly that one case, in both the
// X-only and the mixed S/X shape:
//
//   WYDB_DIFF_FUZZ_SEED=12345 ./diff_fuzz_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "analysis/deadlock_checker.h"
#include "analysis/safety_checker.h"
#include "core/reduction_graph.h"
#include "core/state_space.h"
#include "gen/system_gen.h"
#include "runtime/live_engine.h"
#include "runtime/simulation.h"
#include "runtime/workload.h"
#include "tests/reference_search.h"
#include "tests/test_util.h"

namespace wydb {
namespace {

/// The seed override, or 0 when unset (seeds here are never 0).
uint64_t SeedOverride() {
  const char* env = std::getenv("WYDB_DIFF_FUZZ_SEED");
  if (env == nullptr) return 0;
  return std::strtoull(env, nullptr, 10);
}

/// Replays a kStuckState witness: the schedule must be legal move by move
/// from the empty state and end stuck (no legal move) and incomplete.
void CheckWitnessReplays(const TransactionSystem& sys,
                         const DeadlockWitness& witness) {
  StateSpace space(&sys);
  ExecState s = space.EmptyState();
  for (GlobalNode g : witness.schedule) {
    ASSERT_TRUE(space.IsLegal(s, g))
        << "witness schedule has an illegal move";
    s = space.Apply(s, g);
  }
  EXPECT_TRUE(space.LegalMoves(s).empty())
      << "witness end state is not stuck";
  EXPECT_FALSE(space.IsComplete(s)) << "witness end state is complete";
}

/// Replays a kReductionGraph witness: legal from the empty state, ending
/// in a prefix whose reduction graph is cyclic.
void CheckCyclicPrefixWitnessReplays(const TransactionSystem& sys,
                                     const DeadlockWitness& witness) {
  StateSpace space(&sys);
  ExecState s = space.EmptyState();
  for (GlobalNode g : witness.schedule) {
    ASSERT_TRUE(space.IsLegal(s, g))
        << "RG witness schedule has an illegal move";
    s = space.Apply(s, g);
  }
  ReductionGraph rg(space.ToPrefixSet(s));
  EXPECT_TRUE(rg.HasCycle())
      << "RG witness prefix has an acyclic reduction graph";
  EXPECT_FALSE(witness.reduction_cycle.empty());
}

/// Replays a safety violation: legal from the empty state, rebuilding the
/// §5 conflict digraph D(S') along the way; the reported transaction
/// cycle must be edge-for-edge present in the rebuilt digraph. With
/// `must_complete` the schedule must also execute every step.
void CheckSafetyViolationReplays(const TransactionSystem& sys,
                                 const SafetyViolation& violation,
                                 bool must_complete) {
  StateSpace space(&sys);
  const int n = sys.num_transactions();
  ExecState s = space.EmptyState();
  std::vector<std::vector<bool>> arc(n, std::vector<bool>(n, false));
  for (GlobalNode g : violation.schedule) {
    ASSERT_TRUE(space.IsLegal(s, g))
        << "violation schedule has an illegal move";
    const Step& st = sys.txn(g.txn).step(g.node);
    if (st.kind == StepKind::kLock) {
      for (int j : sys.AccessorsOf(st.entity)) {
        if (j == g.txn) continue;
        // §5 conflict digraph under modes: an S-S access pair draws no arc.
        if (!sys.txn(j).ConflictsOn(st.entity, st.mode)) continue;
        if (space.IsExecuted(s, j, sys.txn(j).LockNode(st.entity))) {
          arc[j][g.txn] = true;
        } else {
          arc[g.txn][j] = true;
        }
      }
    }
    s = space.Apply(s, g);
  }
  if (must_complete) {
    EXPECT_TRUE(space.IsComplete(s))
        << "pure-safety violation schedule is not complete";
  }
  ASSERT_FALSE(violation.txn_cycle.empty());
  for (size_t i = 0; i < violation.txn_cycle.size(); ++i) {
    const int a = violation.txn_cycle[i];
    const int b = violation.txn_cycle[(i + 1) % violation.txn_cycle.size()];
    EXPECT_TRUE(arc[a][b])
        << "reported D(S') cycle edge T" << a << "->T" << b
        << " is missing from the replayed digraph";
  }
}

void RunCaseWithShape(uint64_t seed, const RandomSystemOptions& shape) {
  SCOPED_TRACE(testing::Message()
               << "replay: WYDB_DIFF_FUZZ_SEED=" << seed
               << " ./diff_fuzz_test"
               << (shape.shared_fraction > 0.0 ? " (mixed S/X leg)" : ""));
  auto sys = GenerateRandomSystem(shape);
  ASSERT_TRUE(sys.ok());
  const TransactionSystem& s = *sys->system;

  // --- Engine agreement: verdict, witness, states_visited. -------------
  Result<DeadlockReport> stuck_report = Status::Internal("unset");
  for (auto mode : {DeadlockDetectionMode::kStuckState,
                    DeadlockDetectionMode::kReductionGraph}) {
    DeadlockCheckOptions ref;
    ref.mode = mode;
    auto b = reference::CheckDeadlockFreedom(s, ref);
    ASSERT_TRUE(b.ok());
    for (auto [engine, threads] : std::vector<std::pair<SearchEngine, int>>{
             {SearchEngine::kIncremental, 0},
             {SearchEngine::kParallelSharded, 2},
             {SearchEngine::kParallelSharded, 3}}) {
      DeadlockCheckOptions opts = ref;
      opts.engine = engine;
      opts.search_threads = threads;
      auto a = CheckDeadlockFreedom(s, opts);
      ASSERT_TRUE(a.ok());
      ASSERT_EQ(a->deadlock_free, b->deadlock_free);
      ASSERT_EQ(a->states_visited, b->states_visited);
      ASSERT_EQ(a->witness.has_value(), b->witness.has_value());
      if (a->witness.has_value()) {
        ASSERT_EQ(a->witness->schedule, b->witness->schedule);
        ASSERT_EQ(a->witness->prefix_nodes, b->witness->prefix_nodes);
        ASSERT_EQ(a->witness->reduction_cycle, b->witness->reduction_cycle);
      }
    }
    if (mode == DeadlockDetectionMode::kStuckState) {
      stuck_report = std::move(b);
    }
  }
  ASSERT_TRUE(stuck_report.ok());

  // Both detection modes decide the same predicate.
  {
    DeadlockCheckOptions rg;
    rg.mode = DeadlockDetectionMode::kReductionGraph;
    auto b = CheckDeadlockFreedom(s, rg);
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(b->deadlock_free, stuck_report->deadlock_free);
  }

  // --- Witness replay (adversarial: don't trust the search's own word).
  if (stuck_report->witness.has_value()) {
    CheckWitnessReplays(s, *stuck_report->witness);
  }

  // --- Reduced engine: verdict agreement, witness replay, and serial /
  //     4-thread determinism. states_visited is only compared between
  //     reduced runs — the engine explores the reduced space.
  for (auto mode : {DeadlockDetectionMode::kStuckState,
                    DeadlockDetectionMode::kReductionGraph}) {
    Result<DeadlockReport> serial = Status::Internal("unset");
    for (int threads : {1, 4}) {
      DeadlockCheckOptions opts;
      opts.mode = mode;
      opts.engine = SearchEngine::kReduced;
      opts.search_threads = threads;
      auto a = CheckDeadlockFreedom(s, opts);
      ASSERT_TRUE(a.ok());
      ASSERT_EQ(a->deadlock_free, stuck_report->deadlock_free)
          << "kReduced verdict diverges from the reference";
      ASSERT_EQ(a->witness.has_value(), !stuck_report->deadlock_free);
      if (a->witness.has_value()) {
        if (mode == DeadlockDetectionMode::kStuckState) {
          CheckWitnessReplays(s, *a->witness);
        } else {
          CheckCyclicPrefixWitnessReplays(s, *a->witness);
        }
      }
      if (threads == 1) {
        serial = std::move(a);
      } else {
        ASSERT_TRUE(serial.ok());
        ASSERT_EQ(a->states_visited, serial->states_visited)
            << "kReduced is not deterministic across thread counts";
        if (a->witness.has_value()) {
          ASSERT_EQ(a->witness->schedule, serial->witness->schedule);
        }
      }
    }
  }

  // --- Safety engines agree too. ---------------------------------------
  {
    SafetyCheckOptions ref;
    auto b = reference::CheckSafeAndDeadlockFree(s, ref);
    ASSERT_TRUE(b.ok());
    for (auto engine :
         {SearchEngine::kIncremental, SearchEngine::kParallelSharded}) {
      SafetyCheckOptions opts;
      opts.engine = engine;
      opts.search_threads = 2;
      auto a = CheckSafeAndDeadlockFree(s, opts);
      ASSERT_TRUE(a.ok());
      ASSERT_EQ(a->holds, b->holds);
      ASSERT_EQ(a->states_visited, b->states_visited);
    }

    // kReduced: verdicts for both Lemma 1 properties, with violation
    // replay (the reconstructed schedule must rebuild a cyclic D(S')).
    auto safe_ref = reference::CheckSafety(s, ref);
    ASSERT_TRUE(safe_ref.ok());
    for (int threads : {1, 4}) {
      SafetyCheckOptions opts;
      opts.engine = SearchEngine::kReduced;
      opts.search_threads = threads;
      auto a = CheckSafeAndDeadlockFree(s, opts);
      ASSERT_TRUE(a.ok());
      ASSERT_EQ(a->holds, b->holds)
          << "kReduced safe+DF verdict diverges from the reference";
      if (a->violation.has_value()) {
        CheckSafetyViolationReplays(s, *a->violation,
                                    /*must_complete=*/false);
      }
      auto p = CheckSafety(s, opts);
      ASSERT_TRUE(p.ok());
      ASSERT_EQ(p->holds, safe_ref->holds)
          << "kReduced pure-safety verdict diverges from the reference";
      if (p->violation.has_value()) {
        CheckSafetyViolationReplays(s, *p->violation,
                                    /*must_complete=*/true);
      }
    }
  }

  // --- Traffic consistency under pure blocking. -------------------------
  // Deadlock-free verdict => no run may end deadlocked; an observed
  // deadlock => the verdict must have been "can deadlock". (A refuted
  // system is *allowed* to commit every run — adverse timing is not
  // guaranteed by any fixed seed set.)
  SimOptions sopts;
  sopts.policy = ConflictPolicy::kBlock;
  sopts.seed = seed * 1000 + 1;
  auto agg = RunMany(s, sopts, /*runs=*/8, /*threads=*/1);
  ASSERT_TRUE(agg.ok());
  if (stuck_report->deadlock_free) {
    EXPECT_EQ(agg->deadlocked_runs, 0)
        << "traffic deadlocked on a certified deadlock-free system";
  }
  if (agg->deadlocked_runs > 0) {
    EXPECT_FALSE(stuck_report->deadlock_free)
        << "exact checker certified a system the traffic engine "
           "deadlocked";
  }

  // --- Live-engine consistency (every 8th case: real threads cost real
  // wall time). An exactly certified deadlock-free system must survive
  // the wall-clock blocking fast path on one thread per transaction —
  // no deadlock, no abort, every round committed — and the simulator's
  // rounds-bounded session must agree on the exact counts.
  if (stuck_report->deadlock_free && seed % 8 == 0) {
    LiveOptions live;
    live.policy = ConflictPolicy::kBlock;
    live.seed = seed;
    live.threads = s.num_transactions();
    live.rounds = 3;
    auto lr = RunLive(s, live);
    ASSERT_TRUE(lr.ok());
    EXPECT_FALSE(lr->deadlocked)
        << "live engine deadlocked on a certified deadlock-free system";
    EXPECT_TRUE(lr->completed);
    EXPECT_EQ(lr->aborts, 0u);
    EXPECT_EQ(lr->commits,
              static_cast<uint64_t>(s.num_transactions()) * 3u);

    WorkloadOptions wl;
    wl.sim.policy = ConflictPolicy::kBlock;
    wl.sim.seed = seed;
    wl.duration = 0;
    wl.rounds = 3;
    auto sr = RunWorkload(s, wl);
    ASSERT_TRUE(sr.ok());
    EXPECT_EQ(sr->commits, lr->commits)
        << "live and simulated commit counts diverge";
    EXPECT_EQ(sr->aborts, lr->aborts);
  }
}

void RunCase(uint64_t seed) {
  RunCaseWithShape(seed, testutil::DiffFuzzShape(seed));
}

TEST(DiffFuzzTest, EnginesAndTrafficAgreeOnRandomSystems) {
  const uint64_t override_seed = SeedOverride();
  if (override_seed != 0) {
    RunCase(override_seed);
    return;
  }
  for (int i = 0; i < testutil::kDiffFuzzCases; ++i) {
    RunCase(testutil::kDiffFuzzBaseSeed + static_cast<uint64_t>(i));
    if (HasFatalFailure()) return;
  }
}

// The same battery over MIXED S/X systems: a fraction of each corpus
// system's accesses is shared (drawn from the seed, 20-70%), so the
// engine-agreement, witness-replay, reduced-determinism, and traffic /
// live consistency checks all exercise the mode-aware conflict rules.
// A mixed failure prints its seed like an X-only one, and the override
// replays that seed here in the mixed shape.
void RunMixedCase(uint64_t seed) {
  RunCaseWithShape(seed, testutil::DiffFuzzMixedShape(seed));
}

TEST(DiffFuzzTest, MixedModeEnginesAndTrafficAgree) {
  const uint64_t override_seed = SeedOverride();
  if (override_seed != 0) {
    RunMixedCase(override_seed);
    return;
  }
  for (int i = 0; i < testutil::kDiffFuzzCases / 2; ++i) {
    RunMixedCase(testutil::DiffFuzzMixedSeed(i));
    if (HasFatalFailure()) return;
  }
}

// S-heavy workloads genuinely shrink the reduced search: on the
// certified read-mostly farm every read-set move is always-invisible
// (the read entities are S-by-all), so kReduced interns strictly fewer
// states and prunes strictly more expansions than on the all-X demotion
// of the SAME system, where the read set becomes a contended lock chain.
TEST(DiffFuzzTest, SharedModesShrinkTheReducedSearch) {
  for (int workers : {2, 3}) {
    ReadMostlyFarmOptions fopts;
    fopts.workers = workers;
    fopts.read_entities = 3;
    auto farm = GenerateReadMostlyFarm(fopts);
    ASSERT_TRUE(farm.ok());
    const TransactionSystem& s = *farm->system;
    TransactionSystem demoted = testutil::DemoteToX(s);

    SafetyCheckOptions opts;
    opts.engine = SearchEngine::kReduced;
    opts.search_threads = 1;
    auto shared_run = CheckSafeAndDeadlockFree(s, opts);
    auto demoted_run = CheckSafeAndDeadlockFree(demoted, opts);
    ASSERT_TRUE(shared_run.ok());
    ASSERT_TRUE(demoted_run.ok());
    // Both certified (the latch dominates either way)...
    EXPECT_TRUE(shared_run->holds) << "workers=" << workers;
    EXPECT_TRUE(demoted_run->holds) << "workers=" << workers;
    // ...but the shared run explores a strictly smaller space.
    EXPECT_LT(shared_run->states_interned, demoted_run->states_interned)
        << "workers=" << workers;
    EXPECT_LT(shared_run->states_visited, demoted_run->states_visited)
        << "workers=" << workers;
    EXPECT_GT(shared_run->sleep_set_pruned, 0u) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace wydb
