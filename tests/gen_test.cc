// Tests for the workload generators.
#include <gtest/gtest.h>

#include "analysis/multi_analyzer.h"
#include "analysis/pair_analyzer.h"
#include "analysis/safety_checker.h"
#include "gen/system_gen.h"
#include "gen/txn_gen.h"
#include "tests/johnson.h"

namespace wydb {
namespace {

TEST(TxnGenTest, GeneratesWellFormedTransactions) {
  auto db = MakeUniformDatabase(3, 3);
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    TxnGenOptions opts;
    opts.entities = SampleEntities(*db, 4, &rng);
    opts.extra_arc_prob = 0.3;
    auto t = GenerateTransaction(db.get(), "T", opts, &rng);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(t->entities().size(), 4u);
    EXPECT_EQ(t->num_steps(), 8);
  }
}

TEST(TxnGenTest, TwoPhaseHasAllLocksBeforeAllUnlocks) {
  auto db = MakeUniformDatabase(2, 3);
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    TxnGenOptions opts;
    opts.entities = SampleEntities(*db, 3, &rng);
    opts.two_phase = true;
    auto t = GenerateTransaction(db.get(), "T", opts, &rng);
    ASSERT_TRUE(t.ok());
    // Two-phase in the partial-order sense: every Lock strictly precedes
    // every Unlock (so every linear extension is a two-phase sequence).
    for (NodeId u = 0; u < t->num_steps(); ++u) {
      if (t->step(u).kind != StepKind::kLock) continue;
      for (NodeId v = 0; v < t->num_steps(); ++v) {
        if (t->step(v).kind != StepKind::kUnlock) continue;
        EXPECT_TRUE(t->Precedes(u, v))
            << t->StepLabel(u) << " vs " << t->StepLabel(v);
      }
    }
  }
}

TEST(TxnGenTest, DominatingFirstHoldsToEnd) {
  auto db = MakeUniformDatabase(2, 3);
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    TxnGenOptions opts;
    opts.entities = SampleEntities(*db, 3, &rng);
    opts.dominating_first = true;
    opts.hold_first_to_end = true;
    auto t = GenerateTransaction(db.get(), "T", opts, &rng);
    ASSERT_TRUE(t.ok());
    EntityId first = opts.entities[0];
    NodeId lf = t->LockNode(first);
    NodeId uf = t->UnlockNode(first);
    for (NodeId v = 0; v < t->num_steps(); ++v) {
      if (v != lf) EXPECT_TRUE(t->Precedes(lf, v));
      if (v != uf) EXPECT_TRUE(t->Precedes(v, uf));
    }
  }
}

TEST(TxnGenTest, EmptyEntityListRejected) {
  auto db = MakeUniformDatabase(1, 1);
  Rng rng(1);
  TxnGenOptions opts;
  EXPECT_FALSE(GenerateTransaction(db.get(), "T", opts, &rng).ok());
}

TEST(TxnGenTest, SampleEntitiesBounded) {
  auto db = MakeUniformDatabase(2, 2);
  Rng rng(1);
  EXPECT_EQ(SampleEntities(*db, 3, &rng).size(), 3u);
  EXPECT_EQ(SampleEntities(*db, 99, &rng).size(), 4u);  // Clamped.
}

TEST(TxnGenTest, UniformDatabaseShape) {
  auto db = MakeUniformDatabase(3, 4);
  EXPECT_EQ(db->num_sites(), 3);
  EXPECT_EQ(db->num_entities(), 12);
  for (EntityId e = 0; e < 12; ++e) {
    EXPECT_EQ(db->SiteOf(e), e / 4);
  }
}

TEST(SystemGenTest, RandomSystemShape) {
  RandomSystemOptions opts;
  opts.num_transactions = 4;
  opts.entities_per_txn = 2;
  auto sys = GenerateRandomSystem(opts);
  ASSERT_TRUE(sys.ok());
  EXPECT_EQ(sys->system->num_transactions(), 4);
  EXPECT_EQ(&sys->system->db(), sys->db.get());
}

TEST(SystemGenTest, DeterministicForSeed) {
  RandomSystemOptions opts;
  opts.seed = 42;
  auto a = GenerateRandomSystem(opts);
  auto b = GenerateRandomSystem(opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->system->num_transactions(), b->system->num_transactions());
  for (int i = 0; i < a->system->num_transactions(); ++i) {
    EXPECT_EQ(a->system->txn(i).DebugString(),
              b->system->txn(i).DebugString());
  }
}

TEST(SystemGenTest, SafeSystemAllPairsPassTheorem3) {
  SafeSystemOptions opts;
  opts.num_transactions = 5;
  opts.entities_per_txn = 3;
  auto sys = GenerateSafeSystem(opts);
  ASSERT_TRUE(sys.ok());
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) {
      auto v = CheckPairTheorem3(sys->system->txn(i), sys->system->txn(j));
      ASSERT_TRUE(v.ok());
      EXPECT_TRUE(v->safe_and_deadlock_free) << i << "," << j;
    }
  }
}

TEST(SystemGenTest, RingSystemShape) {
  auto ring = GenerateRingSystem(4);
  ASSERT_TRUE(ring.ok());
  EXPECT_EQ(ring->system->num_transactions(), 4);
  // Consecutive transactions share exactly one entity; non-consecutive
  // share none.
  EXPECT_EQ(ring->system->SharedEntities(0, 1).size(), 1u);
  EXPECT_EQ(ring->system->SharedEntities(0, 2).size(), 0u);
  EXPECT_FALSE(GenerateRingSystem(1).ok());
}

TEST(SystemGenTest, ChordedCycleIncreasesCycleCount) {
  auto plain = GenerateChordedCycleSystem(6, 0, 1);
  auto chorded = GenerateChordedCycleSystem(6, 3, 1);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(chorded.ok());
  auto cycles_of = [](const TransactionSystem& sys) {
    return SimpleCycles(sys.InteractionGraph()).size();
  };
  EXPECT_EQ(cycles_of(*plain->system), 1u);
  EXPECT_GT(cycles_of(*chorded->system), 1u);
}

TEST(SystemGenTest, ReadMostlyFarmIsCertifiedAndMostlyShared) {
  ReadMostlyFarmOptions opts;
  opts.workers = 3;
  opts.read_entities = 4;
  auto farm = GenerateReadMostlyFarm(opts);
  ASSERT_TRUE(farm.ok());
  const TransactionSystem& s = *farm->system;
  EXPECT_EQ(s.num_transactions(), 3);

  // At least half the lock steps are shared (here: 4 of 5 per worker).
  int locks = 0, shared = 0;
  for (int i = 0; i < s.num_transactions(); ++i) {
    const Transaction& t = s.txn(i);
    for (NodeId v = 0; v < t.num_steps(); ++v) {
      if (t.step(v).kind != StepKind::kLock) continue;
      ++locks;
      if (t.step(v).mode == LockMode::kShared) ++shared;
    }
  }
  EXPECT_GE(2 * shared, locks);

  // Certified by Theorem 4 for any worker count, and by the exact oracle.
  auto thm4 = CheckSystemSafeAndDeadlockFree(s);
  ASSERT_TRUE(thm4.ok());
  EXPECT_TRUE(thm4->safe_and_deadlock_free);
  auto oracle = CheckSafeAndDeadlockFree(s);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(oracle->holds);
}

TEST(SystemGenTest, ReadMostlyFarmSharedFractionKnob) {
  // The knob converts S reads to X reads without changing the shape or
  // the verdict: the chain is certified at every fraction.
  for (double fraction : {0.0, 0.5, 1.0}) {
    ReadMostlyFarmOptions opts;
    opts.workers = 2;
    opts.read_entities = 4;
    opts.shared_fraction = fraction;
    auto farm = GenerateReadMostlyFarm(opts);
    ASSERT_TRUE(farm.ok());
    const TransactionSystem& s = *farm->system;
    int shared = 0;
    const Transaction& t = s.txn(0);
    for (NodeId v = 0; v < t.num_steps(); ++v) {
      if (t.step(v).kind == StepKind::kLock &&
          t.step(v).mode == LockMode::kShared) {
        ++shared;
      }
    }
    EXPECT_EQ(shared, static_cast<int>(fraction * 4 + 0.5))
        << "fraction=" << fraction;
    auto thm4 = CheckSystemSafeAndDeadlockFree(s);
    ASSERT_TRUE(thm4.ok());
    EXPECT_TRUE(thm4->safe_and_deadlock_free) << "fraction=" << fraction;
  }
  // Bad shapes are rejected.
  ReadMostlyFarmOptions bad;
  bad.workers = 0;
  EXPECT_FALSE(GenerateReadMostlyFarm(bad).ok());
}

TEST(SystemGenTest, ReadMostlyFarmReducedSearchBeatsDemotion) {
  // The acceptance bar for the S/X work: on the read-mostly farm the
  // reduced engine interns STRICTLY fewer states than on the farm's
  // all-X demotion (shared_fraction = 0 — the same system with every S
  // demoted), because S moves on S-by-all entities are always-invisible.
  ReadMostlyFarmOptions opts;
  opts.workers = 3;
  opts.read_entities = 3;
  auto farm = GenerateReadMostlyFarm(opts);
  ReadMostlyFarmOptions demoted_opts = opts;
  demoted_opts.shared_fraction = 0.0;
  auto demoted = GenerateReadMostlyFarm(demoted_opts);
  ASSERT_TRUE(farm.ok());
  ASSERT_TRUE(demoted.ok());

  SafetyCheckOptions so;
  so.engine = SearchEngine::kReduced;
  so.search_threads = 1;
  auto shared_run = CheckSafeAndDeadlockFree(*farm->system, so);
  auto demoted_run = CheckSafeAndDeadlockFree(*demoted->system, so);
  ASSERT_TRUE(shared_run.ok());
  ASSERT_TRUE(demoted_run.ok());
  EXPECT_TRUE(shared_run->holds);
  EXPECT_TRUE(demoted_run->holds);
  EXPECT_LT(shared_run->states_interned, demoted_run->states_interned);
  EXPECT_LT(shared_run->states_visited, demoted_run->states_visited);
}

}  // namespace
}  // namespace wydb
