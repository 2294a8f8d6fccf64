// Tests for Corollary 3 / Theorem 5: systems of identical copies.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "analysis/copies_analyzer.h"
#include "analysis/deadlock_checker.h"
#include "analysis/multi_analyzer.h"
#include "analysis/safety_checker.h"
#include "gen/system_gen.h"
#include "io/text_format.h"
#include "tests/test_util.h"

namespace wydb {
namespace {

using testutil::MakeDb;
using testutil::MakeSeq;

TEST(CopiesTest, DominatingAndCoveredPasses) {
  // Lx first and held to the end: x dominates and covers y and z.
  auto db = MakeDb({{"s1", {"x", "y", "z"}}});
  Transaction t =
      MakeSeq(db.get(), "T", {"Lx", "Ly", "Uy", "Lz", "Uz", "Ux"});
  CopiesVerdict v = CheckTwoCopies(t);
  EXPECT_TRUE(v.safe_and_deadlock_free);
  EXPECT_EQ(v.first_entity, db->FindEntity("x"));
}

TEST(CopiesTest, NoDominatingEntityFails) {
  auto db = MakeDb({{"s1", {"x"}}, {"s2", {"y"}}});
  TransactionBuilder b(db.get(), "T");
  b.set_auto_site_chain(false);
  b.Lock("x");
  b.Lock("y");
  b.Unlock("x");
  b.Unlock("y");
  Transaction t = *b.Build();  // Lx and Ly incomparable.
  CopiesVerdict v = CheckTwoCopies(t);
  EXPECT_FALSE(v.safe_and_deadlock_free);
  EXPECT_EQ(v.first_entity, kInvalidEntity);
}

TEST(CopiesTest, UncoveredEntityFails) {
  // x first but released before Ly: y uncovered.
  auto db = MakeDb({{"s1", {"x", "y"}}});
  Transaction t = MakeSeq(db.get(), "T", {"Lx", "Ux", "Ly", "Uy"});
  CopiesVerdict v = CheckTwoCopies(t);
  EXPECT_FALSE(v.safe_and_deadlock_free);
  EXPECT_EQ(v.offending_entity, db->FindEntity("y"));
}

TEST(CopiesTest, SingleEntityTrivial) {
  auto db = MakeDb({{"s1", {"x"}}});
  Transaction t = MakeSeq(db.get(), "T", {"Lx", "Ux"});
  EXPECT_TRUE(CheckTwoCopies(t).safe_and_deadlock_free);
}

TEST(CopiesTest, FewerThanTwoCopiesTrivial) {
  auto db = MakeDb({{"s1", {"x", "y"}}});
  Transaction t = MakeSeq(db.get(), "T", {"Lx", "Ux", "Ly", "Uy"});
  EXPECT_TRUE(CheckCopies(t, 1).safe_and_deadlock_free);
  // But two copies fail (y uncovered).
  EXPECT_FALSE(CheckCopies(t, 2).safe_and_deadlock_free);
}

TEST(CopiesTest, MakeCopiesBuildsSystem) {
  auto db = MakeDb({{"s1", {"x", "y"}}});
  Transaction t = MakeSeq(db.get(), "T", {"Lx", "Ly", "Uy", "Ux"});
  auto sys = MakeCopies(t, 3);
  ASSERT_TRUE(sys.ok());
  EXPECT_EQ(sys->num_transactions(), 3);
  EXPECT_EQ(sys->txn(0).name(), "T_1");
  EXPECT_EQ(sys->txn(2).num_steps(), t.num_steps());
  EXPECT_FALSE(MakeCopies(t, 0).ok());
}

// Copy names survive the .wydb format (where `#` would start a comment):
// a generated farm serializes and parses back with the same transaction
// names and the same step partial orders.
TEST(CopiesTest, GeneratedFarmRoundTripsThroughText) {
  for (bool certified : {true, false}) {
    ReplicatedFarmOptions o;
    o.workers = 3;
    o.entities = 3;
    o.certified = certified;
    auto farm = GenerateReplicatedFarm(o);
    ASSERT_TRUE(farm.ok());
    const TransactionSystem& sys = *farm->system;
    auto back = ParseWorkload(SerializeSystem(sys));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    const TransactionSystem& parsed = *back->owned.system;
    ASSERT_EQ(parsed.num_transactions(), sys.num_transactions());
    // The precedence pairs by step label, independent of step listing.
    auto order = [](const Transaction& t) {
      std::set<std::pair<std::string, std::string>> pairs;
      for (NodeId u = 0; u < t.num_steps(); ++u) {
        for (NodeId v = 0; v < t.num_steps(); ++v) {
          if (t.Precedes(u, v)) pairs.emplace(t.StepLabel(u), t.StepLabel(v));
        }
      }
      return pairs;
    };
    for (int i = 0; i < sys.num_transactions(); ++i) {
      EXPECT_EQ(parsed.txn(i).name(), sys.txn(i).name());
      EXPECT_EQ(parsed.txn(i).num_steps(), sys.txn(i).num_steps());
      EXPECT_EQ(order(parsed.txn(i)), order(sys.txn(i)));
    }
  }
}

// Corollary 3 verdicts agree with the exact checker on 2 copies, and by
// Theorem 5 with d = 3 and 4 copies as well.
TEST(CopiesProperty, AgreesWithExactCheckerAcrossCopyCounts) {
  auto db = MakeDb({{"s1", {"x", "y"}}, {"s2", {"z"}}});
  std::vector<std::vector<std::string>> shapes = {
      {"Lx", "Ly", "Uy", "Lz", "Uz", "Ux"},  // Covered: passes.
      {"Lx", "Ux", "Ly", "Uy"},              // y uncovered.
      {"Lx", "Ly", "Ux", "Uy"},              // y covered by x? Ux after Ly.
      {"Ly", "Lx", "Uy", "Ux"},
      {"Lz", "Lx", "Ly", "Uy", "Ux", "Uz"},
  };
  for (size_t i = 0; i < shapes.size(); ++i) {
    Transaction t = MakeSeq(db.get(), "T", shapes[i]);
    CopiesVerdict fast = CheckTwoCopies(t);
    for (int d = 2; d <= 4; ++d) {
      auto sys = MakeCopies(t, d);
      ASSERT_TRUE(sys.ok());
      auto oracle = CheckSafeAndDeadlockFree(*sys);
      ASSERT_TRUE(oracle.ok());
      EXPECT_EQ(fast.safe_and_deadlock_free, oracle->holds)
          << "shape " << i << " d=" << d;
    }
  }
}

// Theorem 5 consistency with the Theorem 4 system test.
TEST(CopiesProperty, AgreesWithMultiAnalyzer) {
  auto db = MakeDb({{"s1", {"x", "y", "z"}}});
  std::vector<std::vector<std::string>> shapes = {
      {"Lx", "Ly", "Uy", "Lz", "Uz", "Ux"},
      {"Lx", "Ux", "Ly", "Uy"},
      {"Lx", "Ly", "Lz", "Uz", "Uy", "Ux"},
  };
  for (const auto& shape : shapes) {
    Transaction t = MakeSeq(db.get(), "T", shape);
    CopiesVerdict fast = CheckCopies(t, 5);
    auto sys = MakeCopies(t, 5);
    ASSERT_TRUE(sys.ok());
    auto multi = CheckSystemSafeAndDeadlockFree(*sys);
    ASSERT_TRUE(multi.ok());
    EXPECT_EQ(fast.safe_and_deadlock_free, multi->safe_and_deadlock_free);
  }
}

// The Figure 6 phenomenon: deadlock-freedom alone does NOT lift from 2
// copies to 3. The cyclic-cover transaction (arcs Le_i -> Ue_{i+1}) is
// deadlock-free in 2 copies yet deadlocks with 3.
Transaction CyclicCoverTransaction(const Database* db) {
  TransactionBuilder b(db, "T");
  b.set_auto_site_chain(false);
  int lx = b.Lock("x"), ly = b.Lock("y"), lz = b.Lock("z");
  int ux = b.Unlock("x"), uy = b.Unlock("y"), uz = b.Unlock("z");
  b.Arc(lx, uy).Arc(ly, uz).Arc(lz, ux);
  auto t = b.Build();
  if (!t.ok()) std::abort();
  return std::move(*t);
}

TEST(CopiesTest, Figure6TwoCopiesDeadlockFreeThreeCopiesDeadlock) {
  auto db = testutil::MakeSpreadDb({"x", "y", "z"});
  Transaction t = CyclicCoverTransaction(db.get());

  auto two = MakeCopies(t, 2);
  ASSERT_TRUE(two.ok());
  auto df2 = CheckDeadlockFreedom(*two);
  ASSERT_TRUE(df2.ok());
  EXPECT_TRUE(df2->deadlock_free);

  auto three = MakeCopies(t, 3);
  ASSERT_TRUE(three.ok());
  auto df3 = CheckDeadlockFreedom(*three);
  ASSERT_TRUE(df3.ok());
  EXPECT_FALSE(df3->deadlock_free);

  // Meanwhile safety+DF (which Theorem 5 says DOES lift) fails already at
  // two copies — no dominating entity — keeping the theorem consistent.
  EXPECT_FALSE(CheckTwoCopies(t).safe_and_deadlock_free);
  auto oracle2 = CheckSafeAndDeadlockFree(*two);
  ASSERT_TRUE(oracle2.ok());
  EXPECT_FALSE(oracle2->holds);
}

}  // namespace
}  // namespace wydb
