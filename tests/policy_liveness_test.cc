// Regression sweep for the timestamp policies on heavily contended random
// 2PL workloads. This exact configuration exposed a wound-wait liveness
// bug: the conflict policy must be re-applied when lock ownership changes
// (FIFO grant), or an older transaction queued behind a younger one
// inherits an old->young wait edge and cycles become possible. The mixed
// sweep adds shared locks: a shared request granted past a queued writer
// is such an ownership change too.
#include <gtest/gtest.h>

#include "gen/system_gen.h"
#include "runtime/simulation.h"

namespace wydb {
namespace {

void ExpectPoliciesNeverDeadlock(uint64_t seed, double shared_fraction) {
  RandomSystemOptions gopts;
  gopts.num_transactions = 6;
  gopts.entities_per_txn = 3;
  gopts.num_sites = 3;
  gopts.entities_per_site = 3;
  gopts.two_phase = true;
  gopts.shared_fraction = shared_fraction;
  gopts.seed = seed;
  auto sys = GenerateRandomSystem(gopts);
  ASSERT_TRUE(sys.ok());
  for (auto policy : {ConflictPolicy::kWoundWait, ConflictPolicy::kWaitDie,
                      ConflictPolicy::kDetect}) {
    SimOptions opts;
    opts.policy = policy;
    opts.seed = seed * 101;
    auto agg = RunMany(*sys->system, opts, 30);
    ASSERT_TRUE(agg.ok());
    EXPECT_EQ(agg->deadlocked_runs, 0)
        << ConflictPolicyName(policy) << " seed " << seed;
    EXPECT_EQ(agg->committed_runs, 30)
        << ConflictPolicyName(policy) << " seed " << seed;
    EXPECT_TRUE(agg->all_histories_serializable);
  }
}

class ContendedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContendedSweep, TimestampPoliciesNeverDeadlock) {
  ExpectPoliciesNeverDeadlock(GetParam(), 0.0);
}

TEST_P(ContendedSweep, MixedModeTimestampPoliciesNeverDeadlock) {
  ExpectPoliciesNeverDeadlock(GetParam(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContendedSweep,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace wydb
