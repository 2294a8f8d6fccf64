// Experiment E4: Theorem 4's system test. The pruned path search visits
// n^2 path nodes on certified systems with a complete interaction graph
// (size sweeps over the safe, replicated-farm and read-mostly families),
// and the O(n^2)-for-fixed-k claim of Corollary 4 holds per transaction
// size (size sweep at a fixed 3-ring).
#include <benchmark/benchmark.h>

#include "analysis/multi_analyzer.h"
#include "core/transaction_builder.h"
#include "gen/system_gen.h"

namespace wydb {
namespace {

// Certifies `sys` once per iteration and reports the search's counters:
// path nodes visited, cycle variants tested and cycles tested.
void RunCertify(benchmark::State& state, const Result<OwnedSystem>& sys) {
  if (!sys.ok()) {
    state.SkipWithError("generator failed");
    return;
  }
  MultiReport last;
  for (auto _ : state) {
    auto report = CheckSystemSafeAndDeadlockFree(*sys->system);
    if (!report.ok() || !report->safe_and_deadlock_free) {
      state.SkipWithError("not certified");
      return;
    }
    last = *report;
    benchmark::DoNotOptimize(report);
  }
  state.counters["path_nodes"] = static_cast<double>(last.path_nodes);
  state.counters["variants"] = static_cast<double>(last.variants_checked);
  state.counters["cycles"] = static_cast<double>(last.cycles_checked);
}

// Certified systems must rule out EVERY cycle variant (no early exit).
// The latch discipline makes the interaction graph complete, so K_n has a
// factorial number of cycles; the search cuts every 3-member path at its
// first position and visits n^2 path nodes instead.
void BM_MultiTest_CycleSweep(benchmark::State& state) {
  SafeSystemOptions gopts;
  gopts.num_transactions = static_cast<int>(state.range(0));
  gopts.num_sites = 2;
  gopts.entities_per_site = 6;
  gopts.entities_per_txn = 3;
  gopts.seed = 3;
  RunCertify(state, GenerateSafeSystem(gopts));
}
BENCHMARK(BM_MultiTest_CycleSweep)
    ->DenseRange(3, 16, 1)
    ->Unit(benchmark::kMicrosecond);

// Identical latch-ordered workers (the e2ebench farm7 shape): K_n again.
void BM_MultiTest_Farm(benchmark::State& state) {
  ReplicatedFarmOptions o;
  o.workers = static_cast<int>(state.range(0));
  o.entities = 3;
  o.degree = 1;
  RunCertify(state, GenerateReplicatedFarm(o));
}
BENCHMARK(BM_MultiTest_Farm)
    ->DenseRange(7, 10, 1)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// The read-mostly farm at shared_fraction 0.5 (the e2ebench live shape at
// 7 workers): the X-locked half of the read set makes the interaction
// graph complete.
void BM_MultiTest_ReadMostlyFarm(benchmark::State& state) {
  ReadMostlyFarmOptions o;
  o.workers = static_cast<int>(state.range(0));
  o.read_entities = 4;
  o.sites = 2;
  o.shared_fraction = 0.5;
  RunCertify(state, GenerateReadMostlyFarm(o));
}
BENCHMARK(BM_MultiTest_ReadMostlyFarm)
    ->Arg(7)
    ->Arg(10)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// Fixed number of transactions (3-ring), growing transaction size: the
// O(n^2)-for-fixed-k claim of Corollary 4. Ring transactions are padded
// with private entities to reach the target step count.
void BM_MultiTest_SizeSweep(benchmark::State& state) {
  const int pad = static_cast<int>(state.range(0));
  auto db = std::make_unique<Database>();
  std::vector<EntityId> ring(3);
  for (int i = 0; i < 3; ++i) {
    ring[i] = *db->AddEntityAtSite("e" + std::to_string(i),
                                   "s" + std::to_string(i));
  }
  std::vector<Transaction> txns;
  for (int i = 0; i < 3; ++i) {
    TransactionBuilder b(db.get(), "T" + std::to_string(i));
    std::vector<int> seq;
    seq.push_back(b.LockId(ring[i]));
    seq.push_back(b.LockId(ring[(i + 1) % 3]));
    for (int p = 0; p < pad; ++p) {
      EntityId priv = *db->AddEntityAtSite(
          "p" + std::to_string(i) + "_" + std::to_string(p),
          "sp" + std::to_string(i) + "_" + std::to_string(p));
      seq.push_back(b.LockId(priv));
      seq.push_back(b.UnlockId(priv));
    }
    seq.push_back(b.UnlockId(ring[(i + 1) % 3]));
    seq.push_back(b.UnlockId(ring[i]));
    for (size_t s = 0; s + 1 < seq.size(); ++s) b.Arc(seq[s], seq[s + 1]);
    txns.push_back(std::move(*b.Build()));
  }
  auto sys = TransactionSystem::Create(db.get(), std::move(txns));
  for (auto _ : state) {
    auto report = CheckSystemSafeAndDeadlockFree(*sys);
    benchmark::DoNotOptimize(report);
  }
  state.SetComplexityN(4 + 2 * pad);
}
BENCHMARK(BM_MultiTest_SizeSweep)
    ->RangeMultiplier(2)
    ->Range(4, 256)
    ->Complexity();

// All-pairs stage alone (the part that runs even on cycle-free systems).
void BM_MultiTest_AcyclicInteraction(benchmark::State& state) {
  SafeSystemOptions opts;
  opts.num_transactions = static_cast<int>(state.range(0));
  opts.entities_per_site = 8;
  opts.num_sites = 4;
  opts.entities_per_txn = 4;
  opts.seed = 9;
  auto sys = GenerateSafeSystem(opts);
  if (!sys.ok()) {
    state.SkipWithError("generator failed");
    return;
  }
  for (auto _ : state) {
    auto report = CheckSystemSafeAndDeadlockFree(*sys->system);
    benchmark::DoNotOptimize(report);
  }
}
// The latch discipline makes the interaction graph complete (K6 has 197
// simple cycles), but every 3-member path is cut at its first position.
BENCHMARK(BM_MultiTest_AcyclicInteraction)->DenseRange(2, 6, 2);

}  // namespace
}  // namespace wydb
