// Experiment E1 (and the cost side of Theorem 1/2): the exact deadlock
// checkers blow up exponentially with transaction size — the reason the
// paper's polynomial safe+DF tests matter. Includes the two detection
// modes, the naive seed search (tests/reference_search.h) as the
// per-state cost baseline, and the paper-figure systems as fixed cases.
#include <benchmark/benchmark.h>

#include "analysis/deadlock_checker.h"
#include "analysis/multi_analyzer.h"
#include "analysis/safety_checker.h"
#include "bench/bench_counters.h"
#include "gen/system_gen.h"
#include "tests/reference_search.h"
#include "tests/test_util.h"

namespace wydb {
namespace {

// A deadlock-free pair with n shared entities locked in the same order but
// with parallel per-entity chains — the state space grows exponentially
// with n although the answer is trivially "deadlock-free".
OwnedSystem SameOrderPair(int entities) {
  RandomSystemOptions opts;
  opts.num_sites = 1;
  opts.entities_per_site = entities;
  opts.num_transactions = 2;
  opts.entities_per_txn = entities;
  opts.two_phase = false;
  opts.seed = 5;
  auto sys = GenerateRandomSystem(opts);
  if (!sys.ok()) std::abort();
  return std::move(*sys);
}

void BM_ExactDeadlockCheck_StuckState(benchmark::State& state) {
  OwnedSystem sys = SameOrderPair(static_cast<int>(state.range(0)));
  uint64_t states = 0;
  for (auto _ : state) {
    auto report = CheckDeadlockFreedom(*sys.system);
    if (!report.ok()) {
      state.SkipWithError("budget");
      break;
    }
    states = report->states_visited;
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_ExactDeadlockCheck_StuckState)->DenseRange(2, 6, 1);

void BM_ExactDeadlockCheck_ReductionGraph(benchmark::State& state) {
  OwnedSystem sys = SameOrderPair(static_cast<int>(state.range(0)));
  DeadlockCheckOptions opts;
  opts.mode = DeadlockDetectionMode::kReductionGraph;
  for (auto _ : state) {
    auto report = CheckDeadlockFreedom(*sys.system, opts);
    if (!report.ok()) {
      state.SkipWithError("budget");
      break;
    }
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_ExactDeadlockCheck_ReductionGraph)->DenseRange(2, 5, 1);

void BM_ExactSafeDfCheck(benchmark::State& state) {
  OwnedSystem sys = SameOrderPair(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto report = CheckSafeAndDeadlockFree(*sys.system);
    if (!report.ok()) {
      state.SkipWithError("budget");
      break;
    }
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_ExactSafeDfCheck)->DenseRange(2, 5, 1);

// Fixed paper-figure cases (F1, F2): microbenchmarks of the exact checker
// on the exact systems from the paper.
void BM_Figure1System(benchmark::State& state) {
  auto db = testutil::MakeDb({{"s1", {"x", "z"}}, {"s2", {"y"}}});
  std::vector<Transaction> txns;
  txns.push_back(testutil::MakeSeq(db.get(), "T1", {"Ly", "Lz", "Uy", "Uz"}));
  txns.push_back(testutil::MakeSeq(db.get(), "T2", {"Lx", "Ly", "Ux", "Uy"}));
  txns.push_back(testutil::MakeSeq(db.get(), "T3", {"Lz", "Lx", "Uz", "Ux"}));
  TransactionSystem sys = testutil::MakeSystem(db.get(), std::move(txns));
  for (auto _ : state) {
    auto report = CheckDeadlockFreedom(sys);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_Figure1System);

void BM_Figure2System(benchmark::State& state) {
  auto db = testutil::MakeSpreadDb({"v", "t", "z", "w"});
  auto make = [&](const std::string& name) {
    TransactionBuilder b(db.get(), name);
    b.set_auto_site_chain(false);
    int lv = b.Lock("v"), lt = b.Lock("t"), lz = b.Lock("z"),
        lw = b.Lock("w");
    b.Unlock("t");
    b.Unlock("z");
    b.Unlock("w");
    int uv = b.Unlock("v");
    b.Arc(lv, 4).Arc(lt, 5).Arc(lz, 6).Arc(lw, uv);
    return std::move(*b.Build());
  };
  std::vector<Transaction> txns;
  txns.push_back(make("T1"));
  txns.push_back(make("T2"));
  TransactionSystem sys = testutil::MakeSystem(db.get(), std::move(txns));
  for (auto _ : state) {
    auto report = CheckDeadlockFreedom(sys);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_Figure2System);

// Exploding-but-benign workloads where the exact checkers must visit the
// whole state space: the per-state cost contrast between the library
// search (default engine) and the seed implementation kept as the test
// oracle, measured in the same binary. DisjointGrid visits 7^k execution
// states; SharedChain explores (state, conflict-arc-set) pairs with real
// arcs.
using DeadlockCheck = Result<DeadlockReport> (*)(const TransactionSystem&,
                                                 const DeadlockCheckOptions&);
using SafetyCheck = Result<SafetyReport> (*)(const TransactionSystem&,
                                             const SafetyCheckOptions&);

void RunStuckStateGrid(benchmark::State& state, DeadlockCheck check) {
  auto grid = GenerateDisjointGridSystem(static_cast<int>(state.range(0)),
                                         /*entities_per_txn=*/3);
  if (!grid.ok()) std::abort();
  DeadlockCheckOptions opts;
  uint64_t states = 0;
  for (auto _ : state) {
    auto report = check(*grid->system, opts);
    if (!report.ok()) {
      state.SkipWithError("budget");
      break;
    }
    states = report->states_visited;
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["ns_per_state"] = NsPerState(states, state.iterations());
}

void BM_ExactDeadlockCheck_StuckState_Grid(benchmark::State& state) {
  RunStuckStateGrid(state, &CheckDeadlockFreedom);
}
BENCHMARK(BM_ExactDeadlockCheck_StuckState_Grid)
    ->DenseRange(2, 6, 1)
    ->Unit(benchmark::kMicrosecond);

void BM_ExactDeadlockCheck_StuckState_Grid_Seed(benchmark::State& state) {
  RunStuckStateGrid(state, &reference::CheckDeadlockFreedom);
}
BENCHMARK(BM_ExactDeadlockCheck_StuckState_Grid_Seed)
    ->DenseRange(2, 6, 1)
    ->Unit(benchmark::kMicrosecond);

void RunSafetyChain(benchmark::State& state, SafetyCheck check) {
  auto chain = GenerateSharedChainSystem(static_cast<int>(state.range(0)));
  if (!chain.ok()) std::abort();
  SafetyCheckOptions opts;
  uint64_t states = 0;
  for (auto _ : state) {
    auto report = check(*chain->system, opts);
    if (!report.ok()) {
      state.SkipWithError("budget");
      break;
    }
    states = report->states_visited;
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["ns_per_state"] = NsPerState(states, state.iterations());
}

void BM_ExactSafeDfCheck_Chain(benchmark::State& state) {
  RunSafetyChain(state, &CheckSafeAndDeadlockFree);
}
BENCHMARK(BM_ExactSafeDfCheck_Chain)
    ->DenseRange(2, 5, 1)
    ->Unit(benchmark::kMicrosecond);

void BM_ExactSafeDfCheck_Chain_Seed(benchmark::State& state) {
  RunSafetyChain(state, &reference::CheckSafeAndDeadlockFree);
}
BENCHMARK(BM_ExactSafeDfCheck_Chain_Seed)
    ->DenseRange(2, 5, 1)
    ->Unit(benchmark::kMicrosecond);

// The polynomial Theorem 4 test on the same growing inputs the exact
// checker chokes on: the headline contrast of the paper.
void BM_PolynomialSafeDfOnSameInputs(benchmark::State& state) {
  OwnedSystem sys = SameOrderPair(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto report = CheckSystemSafeAndDeadlockFree(*sys.system);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_PolynomialSafeDfOnSameInputs)->DenseRange(2, 6, 1);

}  // namespace
}  // namespace wydb
