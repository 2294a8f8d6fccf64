// StateStore unit tests plus the cross-validation property suite: the
// library engines must be verdict- and count-identical to the naive
// reference search (tests/reference_search.h) on random small systems.
#include "core/state_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "analysis/deadlock_checker.h"
#include "analysis/safety_checker.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/state_space.h"
#include "gen/system_gen.h"
#include "tests/reference_search.h"
#include "tests/test_util.h"

namespace wydb {
namespace {

// ---------------------------------------------------------------------
// StateStore basics.

TEST(StateStoreTest, InternDeduplicatesAndAssignsDenseIds) {
  StateStore store(/*key_words=*/2);
  uint64_t a[2] = {1, 2};
  uint64_t b[2] = {1, 3};
  auto ra = store.Intern(a);
  auto rb = store.Intern(b);
  EXPECT_TRUE(ra.inserted);
  EXPECT_TRUE(rb.inserted);
  EXPECT_EQ(ra.id, 0u);
  EXPECT_EQ(rb.id, 1u);
  auto ra2 = store.Intern(a);
  EXPECT_FALSE(ra2.inserted);
  EXPECT_EQ(ra2.id, ra.id);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.Find(a), ra.id);
  EXPECT_EQ(store.Find(b), rb.id);
  uint64_t absent[2] = {9, 9};
  EXPECT_EQ(store.Find(absent), StateStore::kNoId);
}

TEST(StateStoreTest, KeysSurviveArenaGrowthAndRehash) {
  StateStore store(/*key_words=*/1);
  const int kCount = 5000;  // Far beyond the initial table size.
  for (int i = 0; i < kCount; ++i) {
    uint64_t key = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
    auto r = store.Intern(&key);
    ASSERT_TRUE(r.inserted);
    ASSERT_EQ(r.id, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(store.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    uint64_t key = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
    auto r = store.Intern(&key);
    EXPECT_FALSE(r.inserted);
    EXPECT_EQ(r.id, static_cast<uint32_t>(i));
    EXPECT_EQ(*store.KeyOf(r.id), key);
  }
}

TEST(StateStoreTest, AuxIsZeroInitializedAndMutable) {
  StateStore store(/*key_words=*/1, /*aux_words=*/3);
  uint64_t key = 7;
  uint32_t id = store.Intern(&key).id;
  for (int w = 0; w < 3; ++w) EXPECT_EQ(store.AuxOf(id)[w], 0u);
  store.MutableAuxOf(id)[1] = 0xDEADBEEF;
  // Force arena growth, then re-check.
  for (int i = 0; i < 100; ++i) {
    uint64_t k = 1000 + i;
    store.Intern(&k);
  }
  EXPECT_EQ(store.AuxOf(id)[1], 0xDEADBEEFull);
}

TEST(StateStoreTest, PathFromRootFollowsParentLinks) {
  StateStore store(/*key_words=*/1);
  uint64_t k0 = 0, k1 = 1, k2 = 2;
  uint32_t root = store.Intern(&k0).id;
  uint32_t a = store.Intern(&k1, root, GlobalNode{0, 5}).id;
  uint32_t b = store.Intern(&k2, a, GlobalNode{1, 7}).id;
  EXPECT_TRUE(store.PathFromRoot(root).empty());
  std::vector<GlobalNode> path = store.PathFromRoot(b);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], (GlobalNode{0, 5}));
  EXPECT_EQ(path[1], (GlobalNode{1, 7}));
}

// ---------------------------------------------------------------------
// ShardedStateStore: the staged batch commit must reproduce serial
// Intern ids, parent links, and first-visit semantics bit for bit, for
// any shard count, chunk split, and thread count.

// Stages `keys` (key_words-word keys with aux = key ^ 5) into `chunk_size`
// chunks and commits; returns nothing — asserts against a serial
// StateStore fed the same sequence.
void CheckStagedCommitMatchesSerial(int key_words, int shards,
                                    size_t chunk_size, int threads,
                                    const std::vector<uint64_t>& keys,
                                    size_t num_keys) {
  StateStore serial(key_words, key_words);
  ShardedStateStore sharded(key_words, key_words, shards);
  ThreadPool pool(threads);

  // Root: the first key, interned serially in both stores.
  std::vector<uint64_t> aux(key_words);
  auto aux_of = [&](const uint64_t* key) {
    for (int w = 0; w < key_words; ++w) aux[w] = key[w] ^ 5;
    return aux.data();
  };
  uint32_t root_a = serial.Intern(keys.data()).id;
  std::memcpy(serial.MutableAuxOf(root_a), aux_of(keys.data()),
              key_words * sizeof(uint64_t));
  uint32_t root_b = sharded.InternRoot(keys.data());
  std::memcpy(sharded.MutableAuxOf(root_b), aux_of(keys.data()),
              key_words * sizeof(uint64_t));
  ASSERT_EQ(root_a, root_b);

  // Remaining keys: one batch, chunked; parent varies with the serial
  // store's growth (the serial side interns as we stage, so its size is
  // a live, varied id bound) and move = staging index — together they
  // make the first-visit winner for duplicate keys observable in both
  // the parent and move fields.
  std::vector<ShardedStateStore::Staging> chunks;
  size_t staged = 0;
  for (size_t i = 1; i < num_keys;) {
    chunks.emplace_back();
    sharded.ResetStaging(&chunks.back());
    for (size_t c = 0; c < chunk_size && i < num_keys; ++c, ++i) {
      const uint64_t* key = keys.data() + i * key_words;
      uint32_t parent = static_cast<uint32_t>(staged % serial.size());
      GlobalNode move{static_cast<int>(staged), 0};
      sharded.Stage(&chunks.back(), key, aux_of(key), parent, move);
      auto r = serial.Intern(key, parent, move);
      if (r.inserted) {
        std::memcpy(serial.MutableAuxOf(r.id), aux_of(key),
                    key_words * sizeof(uint64_t));
      }
      ++staged;
    }
  }
  sharded.CommitStaged(&chunks, chunks.size(), &pool);

  ASSERT_EQ(serial.size(), sharded.size());
  ShardedStateStore::KeyDecodeCache decode;
  for (uint32_t id = 0; id < serial.size(); ++id) {
    ASSERT_EQ(std::memcmp(serial.KeyOf(id), sharded.KeyView(id, &decode),
                          key_words * sizeof(uint64_t)),
              0)
        << "id " << id;
    ASSERT_EQ(std::memcmp(serial.AuxOf(id), sharded.AuxOf(id),
                          key_words * sizeof(uint64_t)),
              0)
        << "id " << id;
    ASSERT_EQ(serial.ParentOf(id), sharded.ParentOf(id)) << "id " << id;
    ASSERT_EQ(serial.MoveOf(id), sharded.MoveOf(id)) << "id " << id;
  }
}

TEST(ShardedStateStoreTest, StagedCommitMatchesSerialIntern) {
  const int kKeyWords = 3;
  Rng rng(2024);
  const size_t kNumKeys = 4000;
  std::vector<uint64_t> keys(kNumKeys * kKeyWords);
  // ~50% duplicate keys, scattered through the sequence.
  for (size_t i = 0; i < kNumKeys; ++i) {
    uint64_t v = rng.NextBelow(kNumKeys / 2);
    for (int w = 0; w < kKeyWords; ++w) {
      keys[i * kKeyWords + w] =
          (v + 1) * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(w) * 17;
    }
  }
  for (int shards : {1, 4, 16}) {
    for (size_t chunk : {7u, 64u, 4096u}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "shards " << shards << " chunk "
                                        << chunk << " threads " << threads);
        CheckStagedCommitMatchesSerial(kKeyWords, shards, chunk, threads,
                                       keys, kNumKeys);
      }
    }
  }
}

TEST(ShardedStateStoreTest, CommitDedupesWithinABatch) {
  const int kw = 2;
  ShardedStateStore store(kw, 0, 4);
  ThreadPool pool(2);
  uint64_t root[2] = {0, 0};
  store.InternRoot(root);
  std::vector<ShardedStateStore::Staging> chunks(1);
  store.ResetStaging(&chunks[0]);
  uint64_t key[2] = {1, 2};
  for (int i = 0; i < 5; ++i) {
    store.Stage(&chunks[0], key, nullptr, 0, GlobalNode{i, 0});
  }
  // One fresh state; the first staged occurrence wins the parent link.
  EXPECT_EQ(store.CommitStaged(&chunks, 1, &pool), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.MoveOf(1).txn, 0);
}

TEST(ShardedStateStoreTest, PathFromRootFollowsParentLinks) {
  ShardedStateStore store(1, 0, 8);
  ThreadPool pool(1);
  uint64_t k = 0;
  uint32_t root = store.InternRoot(&k);
  EXPECT_TRUE(store.PathFromRoot(root).empty());
  std::vector<ShardedStateStore::Staging> chunks(1);
  uint32_t parent = root;
  for (int depth = 1; depth <= 40; ++depth) {
    store.ResetStaging(&chunks[0]);
    k = static_cast<uint64_t>(depth);
    store.Stage(&chunks[0], &k, nullptr, parent, GlobalNode{depth, depth});
    ASSERT_EQ(store.CommitStaged(&chunks, 1, &pool), 1u);
    parent = static_cast<uint32_t>(store.size() - 1);
  }
  std::vector<GlobalNode> path = store.PathFromRoot(parent);
  ASSERT_EQ(path.size(), 40u);
  for (int depth = 1; depth <= 40; ++depth) {
    EXPECT_EQ(path[depth - 1], (GlobalNode{depth, depth}));
  }
}

// ---------------------------------------------------------------------
// Incremental expansion vs the naive API, along random walks.

TEST(IncrementalExpansionTest, MatchesNaiveAlongRandomWalks) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RandomSystemOptions opts;
    opts.num_sites = 2;
    opts.entities_per_site = 2;
    opts.num_transactions = 3;
    opts.entities_per_txn = 2;
    opts.seed = seed;
    auto sys = GenerateRandomSystem(opts);
    ASSERT_TRUE(sys.ok());
    StateSpace space(&*sys->system);

    const int kw = space.words_per_state();
    const int aw = space.aux_words();
    std::vector<uint64_t> state(kw), aux(aw);
    std::vector<uint64_t> next_state(kw), next_aux(aw);
    std::vector<uint64_t> aux_check(aw);
    space.InitRoot(state.data(), aux.data());

    ExecState naive = space.EmptyState();
    Rng rng(seed * 77 + 3);
    for (int step = 0; step < 64; ++step) {
      // Incremental and naive move generation agree, in the same order.
      std::vector<GlobalNode> inc_moves;
      space.ExpandInto(aux.data(), &inc_moves);
      std::vector<GlobalNode> naive_moves = space.LegalMoves(naive);
      ASSERT_EQ(inc_moves, naive_moves) << "seed " << seed;
      if (naive_moves.empty()) break;

      GlobalNode g = naive_moves[rng.NextBelow(naive_moves.size())];
      space.ApplyInto(state.data(), aux.data(), g, next_state.data(),
                      next_aux.data());
      naive = space.Apply(naive, g);
      ASSERT_EQ(std::memcmp(next_state.data(), naive.words.data(),
                            kw * sizeof(uint64_t)),
                0);
      // The incrementally maintained cache equals a from-scratch rebuild.
      space.InitAux(next_state.data(), aux_check.data());
      ASSERT_EQ(std::memcmp(next_aux.data(), aux_check.data(),
                            aw * sizeof(uint64_t)),
                0)
          << "seed " << seed << " step " << step;
      state.swap(next_state);
      aux.swap(next_aux);
    }
  }
}

// ---------------------------------------------------------------------
// Cross-validation: the incremental engine is verdict- and count-identical
// to the naive reference on >= 100 random small systems.

struct CrossvalShape {
  int sites;
  int entities_per_site;
  int txns;
  int entities_per_txn;
  bool two_phase;
};

class EngineCrossval : public ::testing::TestWithParam<CrossvalShape> {};

TEST_P(EngineCrossval, DeadlockAndSafetyVerdictsAndCountsIdentical) {
  const CrossvalShape& shape = GetParam();
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    RandomSystemOptions opts;
    opts.num_sites = shape.sites;
    opts.entities_per_site = shape.entities_per_site;
    opts.num_transactions = shape.txns;
    opts.entities_per_txn = shape.entities_per_txn;
    opts.two_phase = shape.two_phase;
    opts.seed = seed;
    auto sys = GenerateRandomSystem(opts);
    ASSERT_TRUE(sys.ok());
    const TransactionSystem& s = *sys->system;

    // Every non-reference engine run must match the naive reference bit
    // for bit; kParallelSharded runs at 1, 2, and 4 worker threads.
    const std::vector<std::pair<SearchEngine, int>> kEngines = {
        {SearchEngine::kIncremental, 0},
        {SearchEngine::kParallelSharded, 1},
        {SearchEngine::kParallelSharded, 2},
        {SearchEngine::kParallelSharded, 4},
    };

    for (auto mode : {DeadlockDetectionMode::kStuckState,
                      DeadlockDetectionMode::kReductionGraph}) {
      DeadlockCheckOptions ref;
      ref.mode = mode;
      auto b = reference::CheckDeadlockFreedom(s, ref);
      ASSERT_TRUE(b.ok());
      for (const auto& [engine, threads] : kEngines) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " engine "
                     << static_cast<int>(engine) << " threads " << threads);
        DeadlockCheckOptions fast = ref;
        fast.engine = engine;
        fast.search_threads = threads;
        auto a = CheckDeadlockFreedom(s, fast);
        ASSERT_TRUE(a.ok());
        ASSERT_EQ(a->deadlock_free, b->deadlock_free);
        ASSERT_EQ(a->states_visited, b->states_visited);
        ASSERT_EQ(a->witness.has_value(), b->witness.has_value());
        if (a->witness.has_value()) {
          EXPECT_EQ(a->witness->schedule, b->witness->schedule);
          EXPECT_EQ(a->witness->prefix_nodes, b->witness->prefix_nodes);
          EXPECT_EQ(a->witness->reduction_cycle,
                    b->witness->reduction_cycle);
        }
      }
    }

    {
      SafetyCheckOptions ref;
      auto b = reference::CheckSafeAndDeadlockFree(s, ref);
      auto sb = reference::CheckSafety(s, ref);
      ASSERT_TRUE(b.ok());
      ASSERT_TRUE(sb.ok());
      for (const auto& [engine, threads] : kEngines) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " engine "
                     << static_cast<int>(engine) << " threads " << threads);
        SafetyCheckOptions fast;
        fast.engine = engine;
        fast.search_threads = threads;
        auto a = CheckSafeAndDeadlockFree(s, fast);
        ASSERT_TRUE(a.ok());
        ASSERT_EQ(a->holds, b->holds);
        ASSERT_EQ(a->states_visited, b->states_visited);
        ASSERT_EQ(a->violation.has_value(), b->violation.has_value());
        if (a->violation.has_value()) {
          EXPECT_EQ(a->violation->schedule, b->violation->schedule);
          EXPECT_EQ(a->violation->txn_cycle, b->violation->txn_cycle);
        }

        auto sa = CheckSafety(s, fast);
        ASSERT_TRUE(sa.ok());
        ASSERT_EQ(sa->holds, sb->holds);
        ASSERT_EQ(sa->states_visited, sb->states_visited);
        ASSERT_EQ(sa->violation.has_value(), sb->violation.has_value());
        if (sa->violation.has_value() && sb->violation.has_value()) {
          EXPECT_EQ(sa->violation->schedule, sb->violation->schedule);
          EXPECT_EQ(sa->violation->txn_cycle, sb->violation->txn_cycle);
        }
      }
    }
  }
}

// 5 shapes x 30 seeds = 150 random systems.
INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineCrossval,
    ::testing::Values(CrossvalShape{2, 2, 3, 2, false},
                      CrossvalShape{1, 3, 2, 3, false},
                      CrossvalShape{3, 2, 2, 3, true},
                      CrossvalShape{1, 2, 4, 2, false},
                      CrossvalShape{2, 3, 3, 3, true}));

// The benchmark workload generators: verdicts are known by construction
// and the engines must agree on them (and on the state counts).
TEST(EngineCrossval, BenchWorkloadGeneratorsAgree) {
  auto grid = GenerateDisjointGridSystem(3, 2);
  auto chain = GenerateSharedChainSystem(4);
  ASSERT_TRUE(grid.ok());
  ASSERT_TRUE(chain.ok());
  for (const TransactionSystem* s : {grid->system.get(),
                                     chain->system.get()}) {
    DeadlockCheckOptions dopts;
    auto da = CheckDeadlockFreedom(*s, dopts);
    auto db = reference::CheckDeadlockFreedom(*s, dopts);
    dopts.engine = SearchEngine::kParallelSharded;
    dopts.search_threads = 4;
    auto dp = CheckDeadlockFreedom(*s, dopts);
    ASSERT_TRUE(da.ok());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(dp.ok());
    EXPECT_TRUE(da->deadlock_free);
    EXPECT_EQ(da->states_visited, db->states_visited);
    EXPECT_EQ(dp->states_visited, db->states_visited);

    SafetyCheckOptions sopts;
    auto sa = CheckSafeAndDeadlockFree(*s, sopts);
    auto sb = reference::CheckSafeAndDeadlockFree(*s, sopts);
    sopts.engine = SearchEngine::kParallelSharded;
    sopts.search_threads = 4;
    auto sp = CheckSafeAndDeadlockFree(*s, sopts);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    ASSERT_TRUE(sp.ok());
    EXPECT_TRUE(sa->holds);
    EXPECT_EQ(sa->states_visited, sb->states_visited);
    EXPECT_EQ(sp->states_visited, sb->states_visited);
  }
}

// Budget exhaustion surfaces identically from both engines.
TEST(EngineCrossval, ResourceExhaustionMatches) {
  auto ring = GenerateRingSystem(4);
  ASSERT_TRUE(ring.ok());
  DeadlockCheckOptions opts;
  opts.max_states = 3;
  auto ref = reference::CheckDeadlockFreedom(*ring->system, opts);
  EXPECT_EQ(ref.status().code(), StatusCode::kResourceExhausted);
  for (auto engine :
       {SearchEngine::kIncremental, SearchEngine::kParallelSharded}) {
    opts.engine = engine;
    opts.search_threads = 2;
    auto r = CheckDeadlockFreedom(*ring->system, opts);
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "engine " << static_cast<int>(engine);
    EXPECT_EQ(r.status().message(), ref.status().message());
  }
}

}  // namespace
}  // namespace wydb
