// Golden differential test for the exact search: every engine
// configuration must reproduce, line for line, the results recorded in
// tests/testdata/search_golden.txt.
//
// The golden file was recorded from the per-engine search loops (serial
// incremental, parallel sharded, reduced) that the one level-synchronous
// driver of analysis/level_search.h replaced, over a fixed corpus: 120
// diff_fuzz seeds (90 exclusive-only, 30 mixed shared/exclusive), the
// seven families of the `analyze` benchmark pass, and the paper's
// figures plus the sample workloads under tools/. The ring of nine came
// later, recorded before the driver committed levels window by window.
// Each line pins one
// (system, check, engine) triple; see the header of the golden file for
// the fields and for the engine-dependent counters it leaves out.
//
// Regenerate (only when a behaviour change is intended and understood):
//
//   WYDB_SEARCH_GOLDEN_WRITE=tests/testdata/search_golden.txt \
//       ./search_golden_test
//
// Recording rewrites the file: the committed file's leading `#` header,
// then every record in corpus order. Notes about the records belong in
// that header.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/deadlock_checker.h"
#include "analysis/safety_checker.h"
#include "common/random.h"
#include "core/schedule.h"
#include "gen/system_gen.h"
#include "io/text_format.h"
#include "tests/golden_file.h"

#ifndef WYDB_SOURCE_DIR
#define WYDB_SOURCE_DIR "."
#endif

namespace wydb {
namespace {

constexpr uint64_t kFuzzBaseSeed = 0x5EED0FF1CE5EED01ULL;
constexpr int kFuzzCases = 90;
constexpr int kMixedCases = 30;
/// State budget of every full-size check: the exhaustive engines run out
/// of it on the seven-worker farm, which pins the budget arithmetic too.
constexpr uint64_t kMaxStates = 100'000;
/// Budget of the `@budget` checks: small enough that most corpus systems
/// overrun it, so the ResourceExhausted boundary is compared everywhere.
constexpr uint64_t kSmallBudget = 37;

struct Engine {
  const char* label;
  SearchEngine engine;
  int threads;
};

const std::vector<Engine>& Engines() {
  static const std::vector<Engine> engines = {
      {"incremental", SearchEngine::kIncremental, 1},
      {"parallel/1", SearchEngine::kParallelSharded, 1},
      {"parallel/4", SearchEngine::kParallelSharded, 4},
      {"reduced/1", SearchEngine::kReduced, 1},
      {"reduced/4", SearchEngine::kReduced, 4},
  };
  return engines;
}

struct CorpusSystem {
  std::string name;
  OwnedSystem owned;
};

/// The diff_fuzz shape of `seed` (tests/diff_fuzz_test.cc ShapeFor).
RandomSystemOptions FuzzShape(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  RandomSystemOptions opts;
  opts.num_sites = 1 + static_cast<int>(rng.NextBelow(3));
  opts.entities_per_site = 2 + static_cast<int>(rng.NextBelow(2));
  opts.num_transactions = 2 + static_cast<int>(rng.NextBelow(3));
  opts.entities_per_txn = 2 + static_cast<int>(rng.NextBelow(2));
  opts.two_phase = rng.NextBelow(2) == 1;
  opts.seed = seed;
  return opts;
}

OwnedSystem Must(Result<OwnedSystem> r) {
  if (!r.ok()) std::abort();
  return std::move(*r);
}

OwnedSystem Parse(const std::string& text) {
  auto spec = ParseWorkload(text);
  if (!spec.ok()) std::abort();
  return std::move(spec->owned);
}

std::vector<CorpusSystem> Corpus() {
  std::vector<CorpusSystem> corpus;
  for (int i = 0; i < kFuzzCases; ++i) {
    const uint64_t seed = kFuzzBaseSeed + static_cast<uint64_t>(i);
    corpus.push_back({"fuzz" + std::to_string(i),
                      Must(GenerateRandomSystem(FuzzShape(seed)))});
  }
  for (int i = 0; i < kMixedCases; ++i) {
    // The mixed S/X leg of diff_fuzz (RunMixedCase).
    const uint64_t seed = kFuzzBaseSeed ^ (0xABCD0000ULL + i);
    RandomSystemOptions opts = FuzzShape(seed);
    Rng rng(seed ^ 0x5A5A5A5A5A5A5A5AULL);
    opts.shared_fraction = 0.2 + 0.1 * static_cast<double>(rng.NextBelow(6));
    corpus.push_back(
        {"mixed" + std::to_string(i), Must(GenerateRandomSystem(opts))});
  }

  // The `analyze` benchmark families (e2ebench/workload_analyze.cc).
  corpus.push_back({"grid4", Must(GenerateDisjointGridSystem(4, 3))});
  corpus.push_back({"chain5", Must(GenerateSharedChainSystem(5))});
  corpus.push_back({"ring6", Must(GenerateRingSystem(6))});
  {
    ReadMostlyFarmOptions o;
    o.workers = 4;
    o.read_entities = 4;
    o.sites = 2;
    o.shared_fraction = 0.5;
    corpus.push_back({"read_mostly4", Must(GenerateReadMostlyFarm(o))});
  }
  {
    ReplicatedFarmOptions o;
    o.workers = 7;
    o.entities = 3;
    o.degree = 1;
    corpus.push_back({"farm7", Must(GenerateReplicatedFarm(o))});
  }
  corpus.push_back({"chain6", Must(GenerateSharedChainSystem(6))});
  {
    SafeSystemOptions o;
    o.num_transactions = 7;
    o.seed = 7;
    corpus.push_back({"safe7", Must(GenerateSafeSystem(o))});
  }

  // The paper's figures (tests/figures_test.cc) and the sample workloads.
  corpus.push_back({"fig1", Parse("site s1: x z\n"
                                  "site s2: y\n"
                                  "txn T1: Ly Lz Uy Uz\n"
                                  "txn T2: Lx Ly Ux Uy\n"
                                  "txn T3: Lz Lx Uz Ux\n")});
  // Figure 2: Tirri's counterexample, arcs Lv->Ut, Lt->Uz, Lz->Uw, Lw->Uv.
  const std::string fig2_txn = "Lv ; Lt ; Lz ; Lw ; Uv ; Ut ; Uz ; Uw "
                               "1->6 2->7 3->8 4->5 1->5 2->6 3->7 4->8\n";
  corpus.push_back({"fig2_pair", Parse("site a: v\nsite b: t\n"
                                       "site c: z\nsite d: w\n"
                                       "txn T1: " + fig2_txn +
                                       "txn T2: " + fig2_txn)});
  corpus.push_back({"fig2_central",
                    Parse("site s1: v t z w\n"
                          "txn T1: Lv Lt Lz Lw Ut Uz Uw Uv\n"
                          "txn T2: Lv Lt Lz Lw Ut Uz Uw Uv\n")});
  // Figure 3: arcs Lx->Ux, Ux->Uy, Ly->Uy.
  const std::string fig3_txn = "Lx ; Ly ; Ux ; Uy 1->3 3->4 2->4\n";
  corpus.push_back({"fig3_pair", Parse("site a: x\nsite b: y\n"
                                       "txn T1: " + fig3_txn +
                                       "txn T2: " + fig3_txn)});
  corpus.push_back({"fig3_ext", Parse("site a: x\nsite b: y\n"
                                      "txn t1: Lx Ly Ux Uy\n"
                                      "txn t2: Ly Lx Ux Uy\n")});
  corpus.push_back({"sample", Parse("site s1: x\nsite s2: y\n"
                                    "txn T1: Lx Ly Ux Uy\n"
                                    "txn T2: Ly Lx Ux Uy\n")});
  corpus.push_back({"certified", Parse("site s1: g x\nsite s2: y z\n"
                                       "txn T1: Lg Lx Ux Ly Uy Ug\n"
                                       "txn T2: Lg Ly Uy Lz Uz Ug\n"
                                       "txn T3: Lg Lz Uz Lx Ux Ug\n")});
  corpus.push_back({"shared", Parse("site s1: g r1\nsite s2: r2\n"
                                    "txn W1: Lg Sr1 Sr2 Ur2 Ur1 Ug\n"
                                    "txn W2: Lg Sr1 Sr2 Ur2 Ur1 Ug\n"
                                    "txn W3: Lg Sr1 Sr2 Ur2 Ur1 Ug\n")});

  // A refuted system whose reduced witness level is wider than one
  // expansion window (level_search.h), so the windows after the witness
  // still count toward sleep_set_pruned.
  corpus.push_back({"ring9", Must(GenerateRingSystem(9))});
  return corpus;
}

/// The recorded fields of a deadlock report. states_interned is only
/// recorded when the system is deadlock-free (see the golden header).
std::string Format(const TransactionSystem& sys,
                   const Result<DeadlockReport>& r) {
  if (!r.ok()) return "error " + r.status().ToString();
  std::ostringstream out;
  out << "verdict=" << (r->deadlock_free ? "yes" : "NO")
      << " visited=" << r->states_visited;
  if (r->deadlock_free) out << " interned=" << r->states_interned;
  out << " pruned=" << r->sleep_set_pruned;
  if (r->witness.has_value()) {
    out << " witness=[" << ScheduleToString(sys, r->witness->schedule)
        << "]";
    if (!r->witness->reduction_cycle.empty()) {
      out << " cycle=[" << r->witness->reduction_cycle << "]";
    }
  }
  return out.str();
}

/// The recorded fields of a safety report; delta_skipped_tests only on
/// certified runs (see the golden header).
std::string Format(const TransactionSystem& sys,
                   const Result<SafetyReport>& r) {
  if (!r.ok()) return "error " + r.status().ToString();
  std::ostringstream out;
  out << "verdict=" << (r->holds ? "yes" : "NO")
      << " visited=" << r->states_visited;
  if (r->holds) {
    out << " interned=" << r->states_interned
        << " delta_skipped=" << r->delta_skipped_tests;
  }
  out << " pruned=" << r->sleep_set_pruned;
  if (r->violation.has_value()) {
    out << " witness=[" << ScheduleToString(sys, r->violation->schedule)
        << "] txn_cycle=[";
    for (size_t i = 0; i < r->violation->txn_cycle.size(); ++i) {
      out << (i > 0 ? " " : "") << sys.txn(r->violation->txn_cycle[i]).name();
    }
    out << "]";
  }
  return out.str();
}

/// The system minus its last transaction, when that leaves at least one.
std::optional<TransactionSystem> WithoutLast(const TransactionSystem& sys) {
  if (sys.num_transactions() < 2) return std::nullopt;
  std::vector<Transaction> txns = sys.transactions();
  txns.pop_back();
  auto out = TransactionSystem::Create(&sys.db(), std::move(txns));
  if (!out.ok()) std::abort();
  return std::move(*out);
}

/// Runs every check of one system under every engine and emits
/// `<system> <check> <engine>: <fields>` lines. `delta_engines` are the
/// engines that accept the delta_txn gate.
void RunSystem(const CorpusSystem& cs, const std::vector<Engine>& delta_engines,
               const std::function<void(const std::string&,
                                        const std::string&)>& emit) {
  const TransactionSystem& sys = *cs.owned.system;
  for (const Engine& e : Engines()) {
    auto key = [&](const char* check) {
      return cs.name + " " + check + " " + e.label;
    };
    DeadlockCheckOptions d;
    d.engine = e.engine;
    d.search_threads = e.threads;
    d.max_states = kMaxStates;
    emit(key("stuck"), Format(sys, CheckDeadlockFreedom(sys, d)));
    DeadlockCheckOptions rg = d;
    rg.mode = DeadlockDetectionMode::kReductionGraph;
    emit(key("rg"), Format(sys, CheckDeadlockFreedom(sys, rg)));
    DeadlockCheckOptions small = d;
    small.max_states = kSmallBudget;
    emit(key("stuck@budget"), Format(sys, CheckDeadlockFreedom(sys, small)));

    SafetyCheckOptions s;
    s.engine = e.engine;
    s.search_threads = e.threads;
    s.max_states = kMaxStates;
    emit(key("safe_df"), Format(sys, CheckSafeAndDeadlockFree(sys, s)));
    emit(key("safety"), Format(sys, CheckSafety(sys, s)));
    SafetyCheckOptions small_s = s;
    small_s.max_states = kSmallBudget;
    emit(key("safety@budget"), Format(sys, CheckSafety(sys, small_s)));
  }

  // The delta gate is sound only when the system minus the gated
  // transaction is certified, so it runs only there. Every engine that
  // accepts the gate must reproduce the one recorded line.
  auto base = WithoutLast(sys);
  if (!base.has_value()) return;
  SafetyCheckOptions probe;
  probe.max_states = kMaxStates;
  auto base_report = CheckSafeAndDeadlockFree(*base, probe);
  if (!base_report.ok() || !base_report->holds) return;
  for (const Engine& e : delta_engines) {
    SafetyCheckOptions s;
    s.engine = e.engine;
    s.search_threads = e.threads;
    s.max_states = kMaxStates;
    s.delta_txn = sys.num_transactions() - 1;
    emit(cs.name + " safe_df_delta", Format(sys, CheckSafeAndDeadlockFree(sys, s)));
  }
}

std::string GoldenPath() {
  return std::string(WYDB_SOURCE_DIR) + "/tests/testdata/search_golden.txt";
}

TEST(SearchGoldenTest, EveryEngineReproducesTheRecordedSearch) {
  const char* write_path = std::getenv("WYDB_SEARCH_GOLDEN_WRITE");
  const std::vector<CorpusSystem> corpus = Corpus();
  if (write_path != nullptr) {
    // Recording: the delta gate is taken from the serial engine alone.
    std::ofstream out =
        testutil::StartGoldenRecording(write_path, GoldenPath());
    ASSERT_TRUE(out.good()) << write_path;
    const std::vector<Engine> delta_engines = {Engines()[0]};
    for (const CorpusSystem& cs : corpus) {
      RunSystem(cs, delta_engines,
                [&](const std::string& key, const std::string& fields) {
                  out << key << ": " << fields << "\n";
                });
    }
    return;
  }

  const std::map<std::string, std::string> golden =
      testutil::ReadGolden(GoldenPath());
  ASSERT_FALSE(golden.empty()) << GoldenPath();

  const std::vector<Engine> delta_engines = {Engines()[0], Engines()[1],
                                             Engines()[2]};
  size_t compared = 0;
  std::map<std::string, bool> seen;
  int mismatches = 0;
  for (const CorpusSystem& cs : corpus) {
    RunSystem(cs, delta_engines,
              [&](const std::string& key, const std::string& fields) {
                ++compared;
                seen[key] = true;
                auto it = golden.find(key);
                if (it == golden.end()) {
                  ADD_FAILURE() << "no golden line for '" << key << "'";
                } else if (it->second != fields && ++mismatches <= 20) {
                  ADD_FAILURE() << key << "\n  golden: " << it->second
                                << "\n  actual: " << fields;
                }
              });
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(seen.size(), golden.size())
      << "golden lines without a corpus check";
  EXPECT_GT(compared, golden.size()) << "delta lines were not re-run";
}

}  // namespace
}  // namespace wydb
