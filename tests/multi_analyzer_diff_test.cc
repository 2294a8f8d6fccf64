// Differential test of the Theorem 4 path search against the list-then-test
// analyzer it replaced (reference::CheckSystemSafeAndDeadlockFree): over
// several thousand fuzzed systems and every generator family, the verdict
// and the failing pair must match the oracle's. A cycle witness may differ
// from the oracle's (the two visit the cycle variants in different
// orders), but it must replay as a cyclic partial schedule through
// ValidateViolation, and its cycle must be a closed path of the
// interaction graph. The path-node count is pinned at exactly n^2 on
// certified families whose interaction graph is complete, so a lost cut
// fails a count, not a timer.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/certificate.h"
#include "analysis/multi_analyzer.h"
#include "common/random.h"
#include "gen/system_gen.h"
#include "tests/reference_search.h"
#include "tests/test_util.h"

namespace wydb {
namespace {

struct Tally {
  int certified = 0;
  int refuted_on_cycle = 0;
  int refuted_on_pair = 0;
  int total() const { return certified + refuted_on_cycle + refuted_on_pair; }
};

// Runs both analyzers on `sys` and checks the contract above.
void ExpectAgreement(const TransactionSystem& sys, Tally* tally) {
  auto fast = CheckSystemSafeAndDeadlockFree(sys);
  auto oracle = reference::CheckSystemSafeAndDeadlockFree(sys);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(fast->safe_and_deadlock_free, oracle->safe_and_deadlock_free);
  if (fast->safe_and_deadlock_free) {
    EXPECT_FALSE(fast->violation.has_value());
    // The search tests a subset of the oracle's variants: the rest are
    // below a cut.
    EXPECT_LE(fast->variants_checked, oracle->variants_checked);
    EXPECT_LE(fast->cycles_checked, oracle->cycles_checked);
    ++tally->certified;
    return;
  }
  ASSERT_TRUE(fast->violation.has_value());
  ASSERT_TRUE(oracle->violation.has_value());
  const MultiViolation& v = *fast->violation;
  ASSERT_EQ(v.failed_pair, oracle->violation->failed_pair);
  if (v.failed_pair) {
    EXPECT_EQ(v.pair_verdict.failure, oracle->violation->pair_verdict.failure);
    EXPECT_EQ(fast->path_nodes, 0u);
    ++tally->refuted_on_pair;
    return;
  }
  // The cycle is a closed simple path of G(A)...
  const UndirectedGraph g = sys.InteractionGraph();
  const size_t k = v.cycle.size();
  ASSERT_GE(k, 3u);
  EXPECT_EQ(std::set<int>(v.cycle.begin(), v.cycle.end()).size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(g.HasEdge(v.cycle[i], v.cycle[(i + 1) % k]))
        << "cycle edge " << v.cycle[i] << "-" << v.cycle[(i + 1) % k]
        << " is not in the interaction graph";
  }
  // ...and the witness replays as a cyclic partial schedule through code
  // independent of both analyzers.
  auto replayed = ValidateViolation(sys, v.witness);
  EXPECT_TRUE(replayed.ok()) << replayed.status().ToString();
  ++tally->refuted_on_cycle;
}

// Random systems whose shape is drawn from the seed; `mixed` adds shared
// accesses (half of them as point reads).
RandomSystemOptions FuzzShape(uint64_t seed, bool mixed) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 7);
  RandomSystemOptions opts;
  opts.num_transactions = 3 + static_cast<int>(rng.NextBelow(6));
  opts.num_sites = 1 + static_cast<int>(rng.NextBelow(2));
  // A pool of n to 2n entities keeps most pairs at one shared entity,
  // where Theorem 3 passes and the cycles decide.
  const int pool = opts.num_transactions +
                   static_cast<int>(rng.NextBelow(opts.num_transactions));
  opts.entities_per_site = pool / opts.num_sites + 1;
  opts.entities_per_txn = 2 + static_cast<int>(rng.NextBelow(4) / 3);
  opts.extra_arc_prob = 0.05 * static_cast<double>(rng.NextBelow(5));
  opts.two_phase = rng.NextBelow(3) == 0;
  if (mixed) {
    opts.shared_fraction = 0.2 + 0.1 * static_cast<double>(rng.NextBelow(6));
    opts.shared_point_reads = rng.NextBelow(2) == 1;
  }
  opts.seed = seed;
  return opts;
}

TEST(MultiAnalyzerDiffTest, AgreesWithOracleOnFuzzedSystems) {
  Tally tally;
  for (bool mixed : {false, true}) {
    for (uint64_t seed = 1; seed <= 1400; ++seed) {
      auto sys = GenerateRandomSystem(FuzzShape(seed, mixed));
      ASSERT_TRUE(sys.ok());
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << (mixed ? " (mixed S/X)" : ""));
      ExpectAgreement(*sys->system, &tally);
      if (HasFatalFailure()) return;
    }
  }
  // The corpus must exercise all three outcomes (at the time of writing:
  // 1497 certified, 313 refuted on a cycle, 990 on a pair).
  EXPECT_EQ(tally.total(), 2800);
  EXPECT_GE(tally.certified, 1000);
  EXPECT_GE(tally.refuted_on_cycle, 250);
  EXPECT_GE(tally.refuted_on_pair, 500);
}

TEST(MultiAnalyzerDiffTest, AgreesWithOracleOnDiffFuzzSeeds) {
  Tally tally;
  for (int i = 0; i < testutil::kDiffFuzzCases; ++i) {
    const uint64_t seed = testutil::kDiffFuzzBaseSeed + i;
    auto sys = GenerateRandomSystem(testutil::DiffFuzzShape(seed));
    ASSERT_TRUE(sys.ok());
    SCOPED_TRACE(testing::Message() << "diff_fuzz seed " << seed);
    ExpectAgreement(*sys->system, &tally);
    if (HasFatalFailure()) return;
  }
  for (int i = 0; i < testutil::kDiffFuzzCases / 2; ++i) {
    const uint64_t seed = testutil::DiffFuzzMixedSeed(i);
    auto sys = GenerateRandomSystem(testutil::DiffFuzzMixedShape(seed));
    ASSERT_TRUE(sys.ok());
    SCOPED_TRACE(testing::Message() << "diff_fuzz mixed seed " << seed);
    ExpectAgreement(*sys->system, &tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(tally.total(), 300);
}

TEST(MultiAnalyzerDiffTest, AgreesWithOracleOnEveryGeneratorFamily) {
  Tally tally;
  auto check = [&](Result<OwnedSystem> sys, const std::string& label) {
    ASSERT_TRUE(sys.ok()) << label;
    SCOPED_TRACE(label);
    ExpectAgreement(*sys->system, &tally);
  };
  for (int n = 2; n <= 7; ++n) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SafeSystemOptions o;
      o.num_transactions = n;
      o.seed = seed;
      check(GenerateSafeSystem(o), "safe n=" + std::to_string(n));
    }
  }
  for (int k = 3; k <= 8; ++k) {
    check(GenerateRingSystem(k), "ring k=" + std::to_string(k));
    for (int chords = 0; chords <= 4; ++chords) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        check(GenerateChordedCycleSystem(k, chords, seed),
              "chorded k=" + std::to_string(k) +
                  " chords=" + std::to_string(chords));
      }
    }
  }
  for (int workers = 2; workers <= 7; ++workers) {
    for (bool certified : {true, false}) {
      for (int entities = 2; entities <= 4; ++entities) {
        ReplicatedFarmOptions o;
        o.workers = workers;
        o.entities = entities;
        o.degree = 1 + entities % 2;
        o.certified = certified;
        check(GenerateReplicatedFarm(o),
              "replicated farm workers=" + std::to_string(workers));
      }
    }
    for (int reads = 1; reads <= 4; ++reads) {
      for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        ReadMostlyFarmOptions o;
        o.workers = workers;
        o.read_entities = reads;
        o.shared_fraction = fraction;
        check(GenerateReadMostlyFarm(o),
              "read-mostly farm workers=" + std::to_string(workers));
      }
    }
  }
  for (int k = 2; k <= 5; ++k) {
    for (int entities = 1; entities <= 3; ++entities) {
      check(GenerateDisjointGridSystem(k, entities),
            "grid k=" + std::to_string(k));
    }
  }
  for (int k = 2; k <= 8; ++k) {
    check(GenerateSharedChainSystem(k), "chain k=" + std::to_string(k));
  }
  EXPECT_GT(tally.certified, 0);
  EXPECT_GT(tally.refuted_on_cycle, 0);
}

// On these certified families every pair shares the dominating entity, so
// the interaction graph is complete and every 3-member path is cut at
// position 0: T1* must avoid T3's copy of the dominating entity. The
// search visits the n single members and the n(n-1) ordered pairs, n^2
// path nodes in all, and tests no closed path.
TEST(MultiAnalyzerDiffTest, PathNodesAreNSquaredOnCompleteCertifiedFamilies) {
  for (int n : {7, 8, 9, 16}) {
    SafeSystemOptions safe;
    safe.num_transactions = n;
    safe.seed = 7;
    ReplicatedFarmOptions farm;
    farm.workers = n;
    farm.entities = 3;
    farm.degree = 1;
    ReadMostlyFarmOptions read_mostly;
    read_mostly.workers = n;
    read_mostly.read_entities = 4;
    read_mostly.sites = 2;
    read_mostly.shared_fraction = 0.5;
    const std::pair<const char*, Result<OwnedSystem>> families[] = {
        {"safe", GenerateSafeSystem(safe)},
        {"replicated farm", GenerateReplicatedFarm(farm)},
        {"read-mostly farm", GenerateReadMostlyFarm(read_mostly)},
    };
    for (const auto& [name, sys] : families) {
      ASSERT_TRUE(sys.ok()) << name;
      auto report = CheckSystemSafeAndDeadlockFree(*sys->system);
      ASSERT_TRUE(report.ok()) << name << " n=" << n;
      EXPECT_TRUE(report->safe_and_deadlock_free) << name << " n=" << n;
      EXPECT_EQ(report->path_nodes, static_cast<uint64_t>(n) * n)
          << name << " n=" << n;
      EXPECT_EQ(report->variants_checked, 0u) << name << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace wydb
