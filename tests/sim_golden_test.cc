// Golden differential test for the simulator's lock table: every
// corpus run must reproduce, line for line, the results recorded in
// tests/testdata/sim_golden.txt.
//
// The golden file was recorded before the simulator and the live engine
// were put on one lock-table core, with the grant rule of that time: a
// compatible shared request queued behind a queued exclusive one. The
// corpus is the diff_fuzz corpus (tests/test_util.h): 200 exclusive-only
// systems and 100 mixed shared/exclusive ones, each under the four
// conflict policies, once as a one-shot RunSimulation and once as a
// 3-round RunWorkload, at one fixed seed. See the header of the golden
// file for the fields.
//
// A system without a mixed-mode entity (one entity locked shared by one
// transaction and exclusive by another) never sees the old and the new
// grant rules differ, so its lines must match bit for bit; that also pins
// the order of the lock table's grant and block records. Lines of
// systems with a mixed-mode entity are tagged `[mixed-mode]`: the grant
// rule changed their counters on purpose. Under wound-wait, wait-die and
// detection their `deadlocked` and `gave_up` fields must still match
// (all are 0): those policies handle deadlock whatever the grant rule.
// Under pure blocking, MixedModeSystemsCertifiedDeadlockFreeNeverDeadlock
// asserts instead that none of them that the exact checker certifies
// deadlock-free ends deadlocked, over seeds 1-400.
//
// Regenerate (only when a behaviour change is intended and understood):
//
//   WYDB_SIM_GOLDEN_WRITE=tests/testdata/sim_golden.txt ./sim_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/deadlock_checker.h"
#include "gen/system_gen.h"
#include "runtime/simulation.h"
#include "runtime/workload.h"
#include "tests/test_util.h"

#ifndef WYDB_SOURCE_DIR
#define WYDB_SOURCE_DIR "."
#endif

namespace wydb {
namespace {

constexpr uint64_t kSeed = 11;
constexpr int kRounds = 3;
constexpr int kSweepSeeds = 400;

struct CorpusSystem {
  std::string name;
  OwnedSystem owned;
  bool mixed_mode;
};

bool HasMixedModeEntity(const TransactionSystem& sys) {
  for (EntityId e = 0; e < sys.db().num_entities(); ++e) {
    bool shared = false, exclusive = false;
    for (int t : sys.AccessorsOf(e)) {
      (sys.txn(t).LockModeOf(e) == LockMode::kShared ? shared : exclusive) =
          true;
    }
    if (shared && exclusive) return true;
  }
  return false;
}

std::vector<CorpusSystem> Corpus() {
  std::vector<CorpusSystem> corpus;
  auto add = [&](std::string name, const RandomSystemOptions& shape) {
    auto owned = GenerateRandomSystem(shape);
    if (!owned.ok()) std::abort();
    const bool mixed = HasMixedModeEntity(*owned->system);
    corpus.push_back({std::move(name), std::move(*owned), mixed});
  };
  for (int i = 0; i < testutil::kDiffFuzzCases; ++i) {
    add("x" + std::to_string(i),
        testutil::DiffFuzzShape(testutil::kDiffFuzzBaseSeed +
                                static_cast<uint64_t>(i)));
  }
  for (int i = 0; i < testutil::kDiffFuzzCases / 2; ++i) {
    add("mixed" + std::to_string(i),
        testutil::DiffFuzzMixedShape(testutil::DiffFuzzMixedSeed(i)));
  }
  return corpus;
}

/// FNV-1a over the (txn, node) pairs of a committed history.
uint64_t HistoryDigest(const Schedule& history) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (GlobalNode g : history) {
    for (uint64_t word : {static_cast<uint64_t>(g.txn),
                          static_cast<uint64_t>(g.node)}) {
      h ^= word;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

std::string Format(const Result<SimResult>& r) {
  if (!r.ok()) return "error " + r.status().ToString();
  std::ostringstream out;
  out << "commits=" << r->commits << " aborts=" << r->aborts
      << " deadlocked=" << r->deadlocked << " gave_up=" << r->gave_up
      << " makespan=" << r->makespan << " events=" << r->events
      << " messages=" << r->messages << " shared_grants=" << r->shared_grants
      << " history=" << std::hex << HistoryDigest(r->committed_history);
  return out.str();
}

/// The `deadlocked=.. gave_up=..` part of a line's fields.
std::string Liveness(const std::string& fields) {
  const size_t from = fields.find(" deadlocked=");
  if (from == std::string::npos) return fields;
  return fields.substr(from, fields.find(" makespan=") - from);
}

/// Runs one system under every policy, one-shot and as a workload, and
/// emits `<system> <policy> <run>[ [mixed-mode]]: <fields>` lines.
void RunSystem(const CorpusSystem& cs,
               const std::function<void(ConflictPolicy, const std::string&,
                                        const std::string&)>& emit) {
  const TransactionSystem& sys = *cs.owned.system;
  const std::string tag = cs.mixed_mode ? " [mixed-mode]" : "";
  for (ConflictPolicy policy :
       {ConflictPolicy::kBlock, ConflictPolicy::kDetect,
        ConflictPolicy::kWoundWait, ConflictPolicy::kWaitDie}) {
    const std::string key = cs.name + " " + ConflictPolicyName(policy);
    SimOptions once;
    once.policy = policy;
    once.seed = kSeed;
    emit(policy, key + " once" + tag, Format(RunSimulation(sys, once)));
    WorkloadOptions wl;
    wl.sim = once;
    wl.duration = 0;
    wl.rounds = kRounds;
    emit(policy, key + " rounds" + tag, Format(RunWorkload(sys, wl)));
  }
}

std::string GoldenPath() {
  return std::string(WYDB_SOURCE_DIR) + "/tests/testdata/sim_golden.txt";
}

TEST(SimGoldenTest, SimulatorReproducesTheRecordedRuns) {
  const std::vector<CorpusSystem> corpus = Corpus();
  if (const char* write_path = std::getenv("WYDB_SIM_GOLDEN_WRITE")) {
    std::ofstream out(write_path, std::ios::app);
    ASSERT_TRUE(out.good()) << write_path;
    for (const CorpusSystem& cs : corpus) {
      RunSystem(cs, [&](ConflictPolicy, const std::string& key,
                        const std::string& fields) {
        out << key << ": " << fields << "\n";
      });
    }
    return;
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "cannot open " << GoldenPath();
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t colon = line.find(": ");
    ASSERT_NE(colon, std::string::npos) << line;
    golden[line.substr(0, colon)] = line.substr(colon + 2);
  }

  std::map<std::string, bool> seen;
  int mismatches = 0;
  for (const CorpusSystem& cs : corpus) {
    RunSystem(cs, [&](ConflictPolicy policy, const std::string& key,
                      const std::string& fields) {
      seen[key] = true;
      auto it = golden.find(key);
      if (it == golden.end()) {
        ADD_FAILURE() << "no golden line for '" << key << "'";
        return;
      }
      bool match = it->second == fields;
      if (cs.mixed_mode) {
        match = policy == ConflictPolicy::kBlock ||
                Liveness(it->second) == Liveness(fields);
      }
      if (!match && ++mismatches <= 20) {
        ADD_FAILURE() << key << "\n  golden: " << it->second
                      << "\n  actual: " << fields;
      }
    });
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(seen.size(), golden.size()) << "golden lines without a corpus run";
}

// The model grants a shared request whenever it is compatible with the
// holders, so a certified deadlock-free system must never deadlock under
// pure blocking, whatever the timing: one-shot or over several rounds.
TEST(SimGoldenTest, MixedModeSystemsCertifiedDeadlockFreeNeverDeadlock) {
  int certified = 0;
  for (const CorpusSystem& cs : Corpus()) {
    if (!cs.mixed_mode) continue;
    const TransactionSystem& sys = *cs.owned.system;
    auto report = CheckDeadlockFreedom(sys, DeadlockCheckOptions{});
    ASSERT_TRUE(report.ok()) << cs.name;
    if (!report->deadlock_free) continue;
    ++certified;
    int deadlocks = 0;
    for (uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
      SimOptions once;
      once.policy = ConflictPolicy::kBlock;
      once.seed = seed;
      auto a = RunSimulation(sys, once);
      ASSERT_TRUE(a.ok()) << cs.name;
      WorkloadOptions wl;
      wl.sim = once;
      wl.duration = 0;
      wl.rounds = kRounds;
      auto b = RunWorkload(sys, wl);
      ASSERT_TRUE(b.ok()) << cs.name;
      deadlocks += a->deadlocked + b->deadlocked;
    }
    EXPECT_EQ(deadlocks, 0)
        << cs.name << " is certified deadlock-free, yet deadlocked in "
        << deadlocks << " of " << 2 * kSweepSeeds << " runs";
  }
  EXPECT_GT(certified, 0);
}

}  // namespace
}  // namespace wydb
