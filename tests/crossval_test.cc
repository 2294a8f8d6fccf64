// Parameterized cross-validation sweeps tying the layers together:
// static analysis vs exact oracles vs the simulated runtime.
#include <gtest/gtest.h>

#include "analysis/copies_analyzer.h"
#include "analysis/deadlock_checker.h"
#include "analysis/multi_analyzer.h"
#include "analysis/pair_analyzer.h"
#include "analysis/safety_checker.h"
#include "core/conflict_graph.h"
#include "core/state_space.h"
#include "core/transaction_builder.h"
#include "gen/system_gen.h"
#include "gen/txn_gen.h"
#include "runtime/live_engine.h"
#include "runtime/simulation.h"
#include "runtime/workload.h"
#include "tests/reference_search.h"
#include "tests/test_util.h"

namespace wydb {
namespace {

// ---------------------------------------------------------------------
// Sweep 1: per-seed random systems; Theorem 4 == Lemma 1 oracle ==
// (deadlock-free => no runtime deadlock under blocking).
class RandomSystemSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSystemSweep, StaticAnalysesAgreeAndRuntimeRespectsThem) {
  const uint64_t seed = GetParam();
  RandomSystemOptions opts;
  opts.num_sites = 2;
  opts.entities_per_site = 2;
  opts.num_transactions = 3;
  opts.entities_per_txn = 2;
  opts.seed = seed;
  auto sys = GenerateRandomSystem(opts);
  ASSERT_TRUE(sys.ok());
  const TransactionSystem& s = *sys->system;

  auto thm4 = CheckSystemSafeAndDeadlockFree(s);
  auto oracle = CheckSafeAndDeadlockFree(s);
  auto df = CheckDeadlockFreedom(s);
  ASSERT_TRUE(thm4.ok());
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(df.ok());

  EXPECT_EQ(thm4->safe_and_deadlock_free, oracle->holds);

  if (df->deadlock_free) {
    SimOptions sim;
    sim.policy = ConflictPolicy::kBlock;
    sim.seed = seed * 977 + 1;
    auto agg = RunMany(s, sim, 10);
    ASSERT_TRUE(agg.ok());
    EXPECT_EQ(agg->deadlocked_runs, 0);
    EXPECT_EQ(agg->committed_runs, 10);
  }

  if (oracle->holds) {
    // Safe+DF systems produce serializable histories under every policy.
    for (auto policy :
         {ConflictPolicy::kBlock, ConflictPolicy::kWoundWait,
          ConflictPolicy::kWaitDie, ConflictPolicy::kDetect}) {
      SimOptions sim;
      sim.policy = policy;
      sim.seed = seed * 31 + 7;
      auto res = RunSimulation(s, sim);
      ASSERT_TRUE(res.ok());
      EXPECT_TRUE(res->all_committed) << ConflictPolicyName(policy);
      EXPECT_TRUE(res->history_serializable) << ConflictPolicyName(policy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystemSweep,
                         ::testing::Range<uint64_t>(1, 26));

// ---------------------------------------------------------------------
// Sweep 2: deadlock-free systems satisfy the paper's alternative
// characterization — EVERY partial schedule extends to a complete one —
// sampled by random walks; and in safe+DF systems every sampled partial
// schedule has an acyclic conflict digraph (Lemma 1).
class WalkSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalkSweep, ReachableStatesBehaveAccordingToTheVerdicts) {
  const uint64_t seed = GetParam();
  RandomSystemOptions opts;
  opts.num_transactions = 2;
  opts.entities_per_txn = 3;
  opts.num_sites = 3;
  opts.entities_per_site = 2;
  opts.seed = seed;
  auto sys = GenerateRandomSystem(opts);
  ASSERT_TRUE(sys.ok());
  const TransactionSystem& s = *sys->system;

  auto df = CheckDeadlockFreedom(s);
  auto safedf = CheckSafeAndDeadlockFree(s);
  ASSERT_TRUE(df.ok());
  ASSERT_TRUE(safedf.ok());

  StateSpace space(&s);
  Rng rng(seed ^ 0xABCDEF);
  for (int walk = 0; walk < 15; ++walk) {
    ExecState st = space.EmptyState();
    Schedule sched;
    // Random walk of random length.
    int steps = static_cast<int>(rng.NextBelow(
        static_cast<uint64_t>(s.TotalSteps() + 1)));
    for (int i = 0; i < steps; ++i) {
      auto moves = space.LegalMoves(st);
      if (moves.empty()) break;
      GlobalNode g = moves[rng.NextBelow(moves.size())];
      st = space.Apply(st, g);
      sched.push_back(g);
    }
    if (df->deadlock_free) {
      auto completion = TryComplete(s, sched, 500'000);
      ASSERT_TRUE(completion.ok());
      EXPECT_TRUE(completion->has_value())
          << "walk " << walk << ": partial schedule not completable in a "
          << "deadlock-free system (contradicts Theorem 1)";
    }
    if (safedf->holds) {
      auto cg = ConflictGraph::FromSchedule(s, sched);
      ASSERT_TRUE(cg.ok());
      EXPECT_TRUE(cg->IsAcyclic())
          << "walk " << walk << ": cyclic D(S') in a safe+DF system "
          << "(contradicts Lemma 1)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkSweep,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------
// Sweep 3: pair-analyzer agreement across generator shapes.
struct PairShapeParam {
  int sites;
  int entities_per_site;
  int entities_per_txn;
  bool two_phase;
  double arc_prob;
};

class PairShapeSweep : public ::testing::TestWithParam<PairShapeParam> {};

TEST_P(PairShapeSweep, Theorem3MatchesOracleAcrossSeeds) {
  const PairShapeParam& p = GetParam();
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 131);
    auto db = MakeUniformDatabase(p.sites, p.entities_per_site);
    TxnGenOptions topts;
    topts.entities = SampleEntities(*db, p.entities_per_txn, &rng);
    topts.two_phase = p.two_phase;
    topts.extra_arc_prob = p.arc_prob;
    auto t1 = GenerateTransaction(db.get(), "T1", topts, &rng);
    TxnGenOptions topts2 = topts;
    topts2.entities = SampleEntities(*db, p.entities_per_txn, &rng);
    auto t2 = GenerateTransaction(db.get(), "T2", topts2, &rng);
    ASSERT_TRUE(t1.ok());
    ASSERT_TRUE(t2.ok());

    auto fast = CheckPairTheorem3(*t1, *t2);
    auto slow = CheckPairMinimalPrefix(*t1, *t2);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(fast->safe_and_deadlock_free, slow->safe_and_deadlock_free)
        << "seed " << seed;

    std::vector<Transaction> txns;
    txns.push_back(std::move(*t1));
    txns.push_back(std::move(*t2));
    auto sys = TransactionSystem::Create(db.get(), std::move(txns));
    ASSERT_TRUE(sys.ok());
    auto oracle = CheckSafeAndDeadlockFree(*sys);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(fast->safe_and_deadlock_free, oracle->holds)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PairShapeSweep,
    ::testing::Values(PairShapeParam{2, 2, 3, false, 0.2},
                      PairShapeParam{3, 1, 3, false, 0.1},
                      PairShapeParam{2, 2, 3, true, 0.2},
                      PairShapeParam{1, 4, 3, false, 0.3},
                      PairShapeParam{4, 1, 4, true, 0.05}));

// ---------------------------------------------------------------------
// Sweep 4: ring sizes — static refutation and runtime deadlock
// reachability, detector always recovers.
class RingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RingSweep, StaticRefutationAndDetectorRecovery) {
  const int k = GetParam();
  auto ring = GenerateRingSystem(k);
  ASSERT_TRUE(ring.ok());
  const TransactionSystem& s = *ring->system;

  auto multi = CheckSystemSafeAndDeadlockFree(s);
  ASSERT_TRUE(multi.ok());
  if (k == 2) {
    // A 2-ring is a failing PAIR (opposite orders), caught at stage 1.
    EXPECT_FALSE(multi->safe_and_deadlock_free);
    EXPECT_TRUE(multi->violation->failed_pair.has_value());
  } else {
    EXPECT_FALSE(multi->safe_and_deadlock_free);
    EXPECT_FALSE(multi->violation->failed_pair.has_value());
    EXPECT_EQ(multi->violation->cycle.size(), static_cast<size_t>(k));
  }

  SimOptions sim;
  sim.policy = ConflictPolicy::kDetect;
  auto agg = RunMany(s, sim, 15);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->committed_runs, 15);
  EXPECT_EQ(agg->deadlocked_runs, 0);
  EXPECT_TRUE(agg->all_histories_serializable);
}

INSTANTIATE_TEST_SUITE_P(K, RingSweep, ::testing::Range(2, 8));

// ---------------------------------------------------------------------
// Sweep 5: identical copies — the syntactic verdict predicts exact-checker
// behaviour for every d in range.
class CopySweep : public ::testing::TestWithParam<int> {};

TEST_P(CopySweep, SyntacticVerdictMatchesExactCheckerForAllD) {
  const int d = GetParam();
  auto db = std::make_unique<Database>();
  db->AddEntityAtSite("x", "s1").ValueOrDie();
  db->AddEntityAtSite("y", "s2").ValueOrDie();
  struct Shape {
    const char* name;
    std::vector<std::pair<StepKind, std::string>> seq;
  };
  using K = StepKind;
  std::vector<Shape> shapes = {
      {"latched", {{K::kLock, "x"}, {K::kLock, "y"}, {K::kUnlock, "y"},
                   {K::kUnlock, "x"}}},
      {"early", {{K::kLock, "x"}, {K::kUnlock, "x"}, {K::kLock, "y"},
                 {K::kUnlock, "y"}}},
  };
  for (const Shape& shape : shapes) {
    auto t = TransactionBuilder::FromSequence(db.get(), "T", shape.seq);
    ASSERT_TRUE(t.ok());
    CopiesVerdict fast = CheckCopies(*t, d);
    auto sys = MakeCopies(*t, d);
    ASSERT_TRUE(sys.ok());
    auto oracle = CheckSafeAndDeadlockFree(*sys);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(fast.safe_and_deadlock_free, oracle->holds)
        << shape.name << " d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(D, CopySweep, ::testing::Range(2, 6));

// ---------------------------------------------------------------------
// Sweep 6: the live wall-clock engine against the static verdict and the
// simulator. Certified systems never deadlock on real threads under the
// detection-free fast path, and rounds-bounded sessions make the
// live-vs-sim commit statistics EXACT (every round eventually commits),
// so the agreement check needs no tolerance band.
class LiveEngineSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LiveEngineSweep, CertifiedSystemsMatchTheSimulatorOnRealThreads) {
  const uint64_t seed = GetParam();
  RandomSystemOptions opts;
  opts.num_sites = 2;
  opts.entities_per_site = 2;
  opts.num_transactions = 3;
  opts.entities_per_txn = 2;
  opts.seed = seed;
  auto sys = GenerateRandomSystem(opts);
  ASSERT_TRUE(sys.ok());
  const TransactionSystem& s = *sys->system;

  auto thm4 = CheckSystemSafeAndDeadlockFree(s);
  ASSERT_TRUE(thm4.ok());
  if (!thm4->safe_and_deadlock_free) return;

  constexpr int kRounds = 5;
  const uint64_t expected =
      static_cast<uint64_t>(s.num_transactions()) * kRounds;

  // Fast path: pure blocking, one thread per transaction. A certified
  // system must commit every round with zero aborts and zero scans.
  LiveOptions live;
  live.policy = ConflictPolicy::kBlock;
  live.seed = seed;
  live.threads = s.num_transactions();
  live.rounds = kRounds;
  auto lr = RunLive(s, live);
  ASSERT_TRUE(lr.ok());
  EXPECT_TRUE(lr->completed);
  EXPECT_FALSE(lr->deadlocked);
  EXPECT_EQ(lr->commits, expected);
  EXPECT_EQ(lr->aborts, 0u);
  EXPECT_EQ(lr->detector_runs, 0u);

  // The simulator on the same system and bound agrees exactly.
  WorkloadOptions sim;
  sim.sim.policy = ConflictPolicy::kBlock;
  sim.sim.seed = seed;
  sim.duration = 0;
  sim.rounds = kRounds;
  auto sr = RunWorkload(s, sim);
  ASSERT_TRUE(sr.ok());
  EXPECT_FALSE(sr->deadlocked);
  EXPECT_EQ(sr->commits, lr->commits);
  EXPECT_EQ(sr->aborts, lr->aborts);

  // The timestamp baselines also drive every round home on certified
  // systems — abort counts are timing-dependent, commit counts are not.
  for (auto policy : {ConflictPolicy::kWoundWait, ConflictPolicy::kWaitDie,
                      ConflictPolicy::kDetect}) {
    LiveOptions o = live;
    o.policy = policy;
    o.backoff_us = 50;
    auto r = RunLive(s, o);
    ASSERT_TRUE(r.ok()) << ConflictPolicyName(policy);
    EXPECT_TRUE(r->completed) << ConflictPolicyName(policy);
    EXPECT_EQ(r->commits, expected) << ConflictPolicyName(policy);

    WorkloadOptions w = sim;
    w.sim.policy = policy;
    auto sw = RunWorkload(s, w);
    ASSERT_TRUE(sw.ok()) << ConflictPolicyName(policy);
    EXPECT_EQ(sw->commits, r->commits) << ConflictPolicyName(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveEngineSweep,
                         ::testing::Range<uint64_t>(1, 13));

// Uncertified cyclic systems DO deadlock on real threads when detection
// is disabled — the run is bounded by the watchdog, not by luck — while
// the detection policies resolve the same system. The static refutation,
// the live deadlock, and the live recovery all point the same way.
class LiveRingSweep : public ::testing::TestWithParam<int> {};

TEST_P(LiveRingSweep, UncertifiedRingDeadlocksLiveWithoutDetection) {
  const int k = GetParam();
  auto ring = GenerateRingSystem(k);
  ASSERT_TRUE(ring.ok());
  const TransactionSystem& s = *ring->system;

  auto multi = CheckSystemSafeAndDeadlockFree(s);
  ASSERT_TRUE(multi.ok());
  ASSERT_FALSE(multi->safe_and_deadlock_free);

  LiveOptions o;
  o.policy = ConflictPolicy::kBlock;
  o.threads = k;
  o.rounds = 100000;  // The watchdog ends the session, not the bound.
  o.hold_us = 3000;   // Dwell inside the circular-wait window.
  o.watchdog_interval_ms = 40;
  auto blocked = RunLive(s, o);
  ASSERT_TRUE(blocked.ok());
  EXPECT_TRUE(blocked->deadlocked);
  EXPECT_FALSE(blocked->blocked_txns.empty());

  LiveOptions detect = o;
  detect.policy = ConflictPolicy::kDetect;
  detect.rounds = 10;
  detect.hold_us = 500;
  detect.backoff_us = 100;
  detect.watchdog_interval_ms = 500;
  auto resolved = RunLive(s, detect);
  ASSERT_TRUE(resolved.ok());
  EXPECT_TRUE(resolved->completed);
  EXPECT_EQ(resolved->commits, static_cast<uint64_t>(k) * 10u);
}

INSTANTIATE_TEST_SUITE_P(K, LiveRingSweep, ::testing::Values(3, 4));

// ---------------------------------------------------------------------
// Sweep 7: X-only regression guard for the S/X machinery. On an X-only
// system DemoteToX is the identity transform, so every engine at every
// thread count must produce bit-identical verdicts, witness schedules and
// states_visited counts on the original and the demoted copy — and the
// simulator the same run — proving the mode plumbing cannot perturb
// exclusive-only workloads.
class XOnlyDemotionSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XOnlyDemotionSweep, DemotionIsTheIdentityOnExclusiveOnlySystems) {
  const uint64_t seed = GetParam();
  RandomSystemOptions opts;
  opts.num_sites = 2;
  opts.entities_per_site = 2;
  opts.num_transactions = 3;
  opts.entities_per_txn = 2;
  opts.seed = seed;
  auto sys = GenerateRandomSystem(opts);
  ASSERT_TRUE(sys.ok());
  const TransactionSystem& s = *sys->system;
  TransactionSystem demoted = testutil::DemoteToX(s);

  // Every step already exclusive: the copy is structurally identical.
  for (int i = 0; i < s.num_transactions(); ++i) {
    ASSERT_EQ(s.txn(i).num_steps(), demoted.txn(i).num_steps());
    for (NodeId v = 0; v < s.txn(i).num_steps(); ++v) {
      ASSERT_TRUE(s.txn(i).step(v) == demoted.txn(i).step(v));
    }
  }

  auto thm4_a = CheckSystemSafeAndDeadlockFree(s);
  auto thm4_b = CheckSystemSafeAndDeadlockFree(demoted);
  ASSERT_TRUE(thm4_a.ok());
  ASSERT_TRUE(thm4_b.ok());
  EXPECT_EQ(thm4_a->safe_and_deadlock_free, thm4_b->safe_and_deadlock_free);

  struct EngineCfg {
    SearchEngine engine;
    int threads;
  };
  const EngineCfg kGrid[] = {
      {SearchEngine::kIncremental, 1},
      {SearchEngine::kParallelSharded, 1},
      {SearchEngine::kParallelSharded, 4},
      {SearchEngine::kReduced, 1},
      {SearchEngine::kReduced, 4},
  };
  for (const EngineCfg& cfg : kGrid) {
    SafetyCheckOptions so;
    so.engine = cfg.engine;
    so.search_threads = cfg.threads;
    auto ra = CheckSafeAndDeadlockFree(s, so);
    auto rb = CheckSafeAndDeadlockFree(demoted, so);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->holds, rb->holds);
    EXPECT_EQ(ra->states_visited, rb->states_visited);
    EXPECT_EQ(ra->sleep_set_pruned, rb->sleep_set_pruned);
    ASSERT_EQ(ra->violation.has_value(), rb->violation.has_value());
    if (ra->violation.has_value()) {
      EXPECT_EQ(ra->violation->schedule, rb->violation->schedule);
      EXPECT_EQ(ra->violation->txn_cycle, rb->violation->txn_cycle);
    }

    DeadlockCheckOptions dopts;
    dopts.engine = cfg.engine;
    dopts.search_threads = cfg.threads;
    auto da = CheckDeadlockFreedom(s, dopts);
    auto db = CheckDeadlockFreedom(demoted, dopts);
    ASSERT_TRUE(da.ok());
    ASSERT_TRUE(db.ok());
    EXPECT_EQ(da->deadlock_free, db->deadlock_free);
    EXPECT_EQ(da->states_visited, db->states_visited);
    ASSERT_EQ(da->witness.has_value(), db->witness.has_value());
    if (da->witness.has_value()) {
      EXPECT_EQ(da->witness->schedule, db->witness->schedule);
    }
  }
  // ...and so must the naive reference search.
  {
    auto ra = reference::CheckSafeAndDeadlockFree(s);
    auto rb = reference::CheckSafeAndDeadlockFree(demoted);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->holds, rb->holds);
    EXPECT_EQ(ra->states_visited, rb->states_visited);
    auto da = reference::CheckDeadlockFreedom(s);
    auto db = reference::CheckDeadlockFreedom(demoted);
    ASSERT_TRUE(da.ok());
    ASSERT_TRUE(db.ok());
    EXPECT_EQ(da->deadlock_free, db->deadlock_free);
    EXPECT_EQ(da->states_visited, db->states_visited);
  }

  // Same seed, same trajectory: the simulator cannot tell them apart,
  // and an X-only run never touches the shared-mode counters.
  SimOptions sim;
  sim.policy = ConflictPolicy::kDetect;
  sim.seed = seed * 13 + 5;
  auto agg_a = RunMany(s, sim, 8);
  auto agg_b = RunMany(demoted, sim, 8);
  ASSERT_TRUE(agg_a.ok());
  ASSERT_TRUE(agg_b.ok());
  EXPECT_EQ(agg_a->committed_runs, agg_b->committed_runs);
  EXPECT_EQ(agg_a->deadlocked_runs, agg_b->deadlocked_runs);
  EXPECT_EQ(agg_a->total_aborts, agg_b->total_aborts);
  EXPECT_EQ(agg_a->total_shared_grants, 0u);
  EXPECT_EQ(agg_a->total_upgrades, 0u);
  EXPECT_EQ(agg_a->total_upgrade_aborts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XOnlyDemotionSweep,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------
// Sweep 8: S->X demotion monotonicity fuzz. For systems whose shared
// accesses are adjacent (LS, US) point reads, demoting every S to X only
// ADDS conflicts — so a certified demotion implies the original is
// certified too (equivalently, an unsafe or deadlocking original can
// never have a certified demotion). The property is FALSE for general
// S placements — a long-held S lock can act as a latch when demoted —
// which is why the generator pins shared_point_reads (DESIGN.md §11).
// ~150 random mixed-mode systems, checked against both the Theorem 4
// analyzer and the exact Lemma 1 oracle.
class SharedDemotionMonotonicitySweep
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedDemotionMonotonicitySweep, CertifiedDemotionCertifiesOriginal) {
  const uint64_t seed = GetParam();
  RandomSystemOptions opts;
  opts.num_sites = 2;
  opts.entities_per_site = 2;
  opts.num_transactions = 3;
  opts.entities_per_txn = 2;
  opts.shared_fraction = 0.3 + 0.05 * static_cast<double>(seed % 9);
  opts.shared_point_reads = true;
  opts.extra_arc_prob = 0.1 * static_cast<double>(seed % 3);
  opts.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  auto sys = GenerateRandomSystem(opts);
  ASSERT_TRUE(sys.ok());
  const TransactionSystem& s = *sys->system;
  TransactionSystem demoted = testutil::DemoteToX(s);

  auto thm4_orig = CheckSystemSafeAndDeadlockFree(s);
  auto thm4_demo = CheckSystemSafeAndDeadlockFree(demoted);
  ASSERT_TRUE(thm4_orig.ok());
  ASSERT_TRUE(thm4_demo.ok());
  if (thm4_demo->safe_and_deadlock_free) {
    EXPECT_TRUE(thm4_orig->safe_and_deadlock_free)
        << "demotion certified but the (less conflicting) original is not";
  }

  auto oracle_orig = CheckSafeAndDeadlockFree(s);
  auto oracle_demo = CheckSafeAndDeadlockFree(demoted);
  ASSERT_TRUE(oracle_orig.ok());
  ASSERT_TRUE(oracle_demo.ok());
  if (oracle_demo->holds) {
    EXPECT_TRUE(oracle_orig->holds)
        << "exact oracle: demotion safe+DF but the original is not";
  }

  auto df_orig = CheckDeadlockFreedom(s);
  auto df_demo = CheckDeadlockFreedom(demoted);
  ASSERT_TRUE(df_orig.ok());
  ASSERT_TRUE(df_demo.ok());
  if (df_demo->deadlock_free) {
    EXPECT_TRUE(df_orig->deadlock_free)
        << "demotion deadlock-free but the original is not";
  }

  // And the analyzers stay internally consistent on mixed-mode systems.
  EXPECT_EQ(thm4_orig->safe_and_deadlock_free, oracle_orig->holds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedDemotionMonotonicitySweep,
                         ::testing::Range<uint64_t>(1, 151));

}  // namespace
}  // namespace wydb
