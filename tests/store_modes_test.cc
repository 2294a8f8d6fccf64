// Store memory-mode tests (DESIGN.md §9): packed keys, hash compaction,
// and the windowed commit of wide levels must keep the engines'
// bit-identical contract (plain) or its documented relaxation (compact:
// non-certified verdicts, sound witnesses), across shard, chunk, batch,
// and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <vector>

#include "analysis/deadlock_checker.h"
#include "analysis/safety_checker.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/state_store.h"
#include "gen/system_gen.h"
#include "tests/reference_search.h"

namespace wydb {
namespace {

StoreOptions CompactOptions() {
  StoreOptions o;
  o.encoding = StoreOptions::KeyEncoding::kCompact;
  return o;
}

// ---------------------------------------------------------------------
// Store level: commits compose. The same staged chunks committed as one
// batch, or as several sequential batches split at random chunk
// boundaries, must give the same ids, keys, parents, and moves, in
// every encoding: the search driver commits every level wider than one
// window this way.

/// Stages `num_keys` children of `parents` committed ids of `store` into
/// chunks of 1-16 states; ~50% of the keys repeat, so dedup happens both
/// inside a batch and across batch boundaries.
std::vector<ShardedStateStore::Staging> StageLevel(
    const ShardedStateStore& store, uint32_t first_parent, uint32_t parents,
    size_t num_keys, uint64_t seed) {
  const int kw = store.key_words();
  Rng rng(seed);
  std::vector<ShardedStateStore::Staging> chunks;
  std::vector<uint64_t> key(kw), aux(kw);
  for (size_t i = 0; i < num_keys;) {
    chunks.emplace_back();
    store.ResetStaging(&chunks.back());
    const size_t chunk_size = 1 + rng.NextBelow(16);
    for (size_t c = 0; c < chunk_size && i < num_keys; ++c, ++i) {
      const uint64_t v = rng.NextBelow(num_keys / 2) + 1;
      for (int w = 0; w < kw; ++w) {
        key[w] = v * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(w);
        aux[w] = key[w] ^ 9;
      }
      const uint32_t parent =
          first_parent + static_cast<uint32_t>(i % parents);
      store.Stage(&chunks.back(), key.data(), aux.data(), parent,
                  GlobalNode{static_cast<int>(i), 1});
    }
  }
  return chunks;
}

void CheckSplitCommitMatchesOneBatch(const StoreOptions& options,
                                     uint64_t seed) {
  const int kw = 2;
  ShardedStateStore whole(kw, kw, 4, options);
  ShardedStateStore split(kw, kw, 4, options);
  ThreadPool pool(2);
  const uint64_t root[2] = {0, 0};
  whole.InternRoot(root);
  split.InternRoot(root);

  // Level 1, one batch in both stores: the parents of the tested level.
  auto level1 = StageLevel(whole, 0, 1, 300, seed);
  whole.CommitStaged(&level1, level1.size(), &pool);
  level1 = StageLevel(split, 0, 1, 300, seed);
  split.CommitStaged(&level1, level1.size(), &pool);
  ASSERT_EQ(whole.size(), split.size());
  const uint32_t parents = static_cast<uint32_t>(whole.size()) - 1;

  // Level 2: one batch against sequential batches of 1-20 chunks.
  auto chunks = StageLevel(whole, 1, parents, 3000, seed + 1);
  whole.CommitStaged(&chunks, chunks.size(), &pool);
  chunks = StageLevel(split, 1, parents, 3000, seed + 1);
  Rng cut(seed + 2);
  size_t batches = 0;
  for (size_t first = 0; first < chunks.size(); ++batches) {
    const size_t n =
        std::min<size_t>(1 + cut.NextBelow(20), chunks.size() - first);
    std::vector<ShardedStateStore::Staging> batch(
        std::make_move_iterator(chunks.begin() + first),
        std::make_move_iterator(chunks.begin() + first + n));
    split.CommitStaged(&batch, n, &pool);
    first += n;
  }
  ASSERT_GT(batches, 1u);

  ASSERT_EQ(whole.size(), split.size());
  ShardedStateStore::KeyDecodeCache da, db;
  for (uint32_t id = 0; id < whole.size(); ++id) {
    ASSERT_EQ(std::memcmp(whole.KeyView(id, &da), split.KeyView(id, &db),
                          kw * sizeof(uint64_t)),
              0)
        << "id " << id;
    ASSERT_EQ(whole.ParentOf(id), split.ParentOf(id)) << "id " << id;
    ASSERT_EQ(whole.MoveOf(id), split.MoveOf(id)) << "id " << id;
  }
}

TEST(CommitCompositionTest, SplitBatchesAreIdIdenticalToOneBatch) {
  for (const StoreOptions& options : {StoreOptions{}, CompactOptions()}) {
    for (uint64_t seed : {7u, 8u, 9u}) {
      SCOPED_TRACE(testing::Message()
                   << "encoding " << static_cast<int>(options.encoding)
                   << " seed " << seed);
      CheckSplitCommitMatchesOneBatch(options, seed);
    }
  }
}

// ---------------------------------------------------------------------
// Engine level: the 12-worker farm's widest deadlock level holds 5,544
// states, more than one window, so its search commits that level in
// several batches. Plain must agree with itself at every thread count,
// and every run must report the staging bound. Compact must agree too:
// its retire boundary has to hold across the window commits of a level.

TEST(WindowedCommitTest, WideFarmAgreesAcrossEncodingsAndThreads) {
  ReplicatedFarmOptions fopts;
  fopts.workers = 12;  // (2.5*12+1)*2^12 = 126,976 reachable states.
  fopts.entities = 3;
  fopts.degree = 1;
  fopts.certified = true;
  auto sys = GenerateReplicatedFarm(fopts);
  ASSERT_TRUE(sys.ok());

  DeadlockCheckOptions ref;
  ref.engine = SearchEngine::kParallelSharded;
  ref.search_threads = 1;
  auto first = CheckDeadlockFreedom(*sys->system, ref);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->deadlock_free);

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    DeadlockCheckOptions opts = ref;
    opts.search_threads = threads;
    auto plain = CheckDeadlockFreedom(*sys->system, opts);
    ASSERT_TRUE(plain.ok());
    EXPECT_TRUE(plain->deadlock_free);
    EXPECT_EQ(plain->states_visited, first->states_visited);
    EXPECT_EQ(plain->states_interned, first->states_interned);
    EXPECT_GT(plain->peak_staging_bytes, 0u);
    // Staging is a function of the level, not of the thread count.
    EXPECT_EQ(plain->peak_staging_bytes, first->peak_staging_bytes);

    opts.store = CompactOptions();
    auto compact = CheckDeadlockFreedom(*sys->system, opts);
    ASSERT_TRUE(compact.ok());
    EXPECT_TRUE(compact->deadlock_free);
    EXPECT_EQ(compact->states_visited, first->states_visited);
    EXPECT_EQ(compact->states_interned, first->states_interned);
  }
}

// ---------------------------------------------------------------------
// Packed keys: a store told the width of every key word stores keys
// bit-packed, and must give the same ids, parents, moves and (unpacked)
// keys as a store of full words, in both encodings that pack.

/// Stages `num_keys` children of ids [first_parent, first_parent +
/// parents) whose word w holds a random value of `widths[w]` bits; ~50%
/// of the keys repeat.
std::vector<ShardedStateStore::Staging> StageNarrowLevel(
    const ShardedStateStore& store, const std::vector<int>& widths,
    uint32_t first_parent, uint32_t parents, size_t num_keys,
    uint64_t seed) {
  const int kw = store.key_words();
  Rng rng(seed);
  std::vector<ShardedStateStore::Staging> chunks;
  std::vector<uint64_t> key(kw), aux(kw);
  for (size_t i = 0; i < num_keys;) {
    chunks.emplace_back();
    store.ResetStaging(&chunks.back());
    const size_t chunk_size = 1 + rng.NextBelow(16);
    for (size_t c = 0; c < chunk_size && i < num_keys; ++c, ++i) {
      Rng value(rng.NextBelow(num_keys / 2) + 1);
      for (int w = 0; w < kw; ++w) {
        const uint64_t bits = value.Next();
        key[w] = widths[w] == 64 ? bits
                                 : bits & ((uint64_t{1} << widths[w]) - 1);
        aux[w] = key[w] ^ 9;
      }
      store.Stage(&chunks.back(), key.data(), aux.data(),
                  first_parent + static_cast<uint32_t>(i % parents),
                  GlobalNode{static_cast<int>(i), 1});
    }
  }
  return chunks;
}

TEST(PackedKeyTest, PackedStoreIsIdIdenticalToFullWords) {
  // 3 + 64 + 0 + 17 + 50 + 1 = 135 bits: three packed words for six, with
  // fields straddling both word boundaries and an always-zero word.
  const std::vector<int> widths = {3, 64, 0, 17, 50, 1};
  const int kw = static_cast<int>(widths.size());
  for (const StoreOptions& options : {StoreOptions{}, CompactOptions()}) {
    for (uint64_t seed : {3u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "encoding " << static_cast<int>(options.encoding)
                   << " seed " << seed);
      ShardedStateStore full(kw, kw, 4, options);
      ShardedStateStore packed(kw, kw, 4, options, widths);
      EXPECT_EQ(full.packed_key_words(), kw);
      EXPECT_EQ(packed.packed_key_words(), 3);
      ThreadPool pool(2);
      const std::vector<uint64_t> root(kw, 0);
      full.InternRoot(root.data());
      packed.InternRoot(root.data());
      uint32_t first = 0;
      uint32_t parents = 1;
      for (int level = 0; level < 3; ++level) {
        for (ShardedStateStore* store : {&full, &packed}) {
          auto chunks = StageNarrowLevel(*store, widths, first, parents,
                                         2000, seed * 10 + level);
          store->CommitStaged(&chunks, chunks.size(), &pool);
          // Only the frontier is expanded next, as in LevelSearch.
          store->RetireExpanded();
        }
        ASSERT_EQ(full.size(), packed.size());
        first += parents;
        parents = static_cast<uint32_t>(full.size()) - first;
      }
      ShardedStateStore::KeyDecodeCache da, db;
      for (uint32_t id = 0; id < full.size(); ++id) {
        ASSERT_EQ(full.ParentOf(id), packed.ParentOf(id)) << "id " << id;
        ASSERT_EQ(full.MoveOf(id), packed.MoveOf(id)) << "id " << id;
        if (id < first) continue;  // kCompact retired the expanded keys.
        ASSERT_EQ(std::memcmp(full.KeyView(id, &da), packed.KeyView(id, &db),
                              kw * sizeof(uint64_t)),
                  0)
            << "id " << id;
        ASSERT_EQ(std::memcmp(full.AuxOf(id), packed.AuxOf(id),
                              kw * sizeof(uint64_t)),
                  0)
            << "id " << id;
      }
      EXPECT_LT(packed.MemoryStats().arena_bytes,
                full.MemoryStats().arena_bytes);
    }
  }
}

TEST(PackedKeyTest, SearchesPackTheirKeys) {
  // A safe family system of five 8-step transactions: the Lemma key is
  // five exec words of 8 bits and five arc rows of 5 bits, 65 bits in
  // two words instead of ten. Verdict and counts match the seed search,
  // which keeps full keys in hash maps.
  SafeSystemOptions o;
  o.num_transactions = 5;
  o.entities_per_txn = 4;
  o.seed = 11;
  auto sys = GenerateSafeSystem(o);
  ASSERT_TRUE(sys.ok());
  SafetyCheckOptions plain;
  plain.search_threads = 1;
  auto a = CheckSafeAndDeadlockFree(*sys->system, plain);
  auto b = reference::CheckSafeAndDeadlockFree(*sys->system, plain);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->holds, b->holds);
  EXPECT_EQ(a->states_visited, b->states_visited);
  EXPECT_EQ(a->states_interned, b->states_interned);
  ASSERT_GT(a->states_interned, 1000u);
  // Two key words and a fingerprint a state, and aux for the frontier
  // only: less than the full ten-word keys alone would take.
  EXPECT_LT(a->arena_bytes, 10 * sizeof(uint64_t) * a->states_interned);
}

// ---------------------------------------------------------------------
// Hash compaction: verdicts agree (collision odds ~n^2/2^65), reports
// are marked non-exact with a positive collision bound, witnesses stay
// concrete, and retiring expanded levels shrinks the resident arena.

TEST(CompactModeTest, CertifiedFarmAgreesAndReportsBound) {
  ReplicatedFarmOptions fopts;
  fopts.workers = 8;  // (2.5*8+1)*2^8 = 5376 reachable states.
  fopts.entities = 3;
  fopts.degree = 1;
  fopts.certified = true;
  auto sys = GenerateReplicatedFarm(fopts);
  ASSERT_TRUE(sys.ok());

  DeadlockCheckOptions plain;
  plain.engine = SearchEngine::kParallelSharded;
  plain.search_threads = 2;
  auto b = CheckDeadlockFreedom(*sys->system, plain);
  ASSERT_TRUE(b.ok());

  DeadlockCheckOptions compact = plain;
  compact.store = CompactOptions();
  auto a = CheckDeadlockFreedom(*sys->system, compact);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->deadlock_free, b->deadlock_free);
  EXPECT_EQ(a->states_visited, b->states_visited);
  EXPECT_EQ(a->states_interned, b->states_interned);
  EXPECT_FALSE(a->exact);
  EXPECT_GT(a->fingerprint_collision_bound, 0.0);
  EXPECT_LT(a->fingerprint_collision_bound, 1e-6);
  EXPECT_TRUE(b->exact);
  // Retiring expanded levels keeps only the frontier's keys resident, so
  // the compacted arena must be the smaller. Both stores pack this farm's
  // keys into one word and keep a fingerprint per state, so compaction
  // saves the expanded states' key word, not a multiple of the arena.
  EXPECT_LT(a->arena_bytes, b->arena_bytes);
}

TEST(CompactModeTest, RefutedRingKeepsConcreteWitness) {
  auto ring = GenerateRingSystem(4);
  ASSERT_TRUE(ring.ok());
  DeadlockCheckOptions plain;
  plain.engine = SearchEngine::kParallelSharded;
  plain.search_threads = 2;
  auto b = CheckDeadlockFreedom(*ring->system, plain);
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(b->deadlock_free);

  DeadlockCheckOptions compact = plain;
  compact.store = CompactOptions();
  auto a = CheckDeadlockFreedom(*ring->system, compact);
  ASSERT_TRUE(a.ok());
  ASSERT_FALSE(a->deadlock_free);
  EXPECT_FALSE(a->exact);
  ASSERT_TRUE(a->witness.has_value());
  EXPECT_EQ(a->witness->schedule, b->witness->schedule);
  EXPECT_EQ(a->witness->prefix_nodes, b->witness->prefix_nodes);
}

TEST(CompactModeTest, SafetyCheckerAgreesAndMarksNonExact) {
  RandomSystemOptions opts;
  opts.num_transactions = 3;
  opts.entities_per_txn = 2;
  opts.seed = 3;
  auto sys = GenerateRandomSystem(opts);
  ASSERT_TRUE(sys.ok());
  SafetyCheckOptions plain;
  plain.engine = SearchEngine::kParallelSharded;
  plain.search_threads = 2;
  auto b = CheckSafeAndDeadlockFree(*sys->system, plain);
  ASSERT_TRUE(b.ok());
  SafetyCheckOptions compact = plain;
  compact.store = CompactOptions();
  auto a = CheckSafeAndDeadlockFree(*sys->system, compact);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->holds, b->holds);
  EXPECT_EQ(a->states_visited, b->states_visited);
  EXPECT_FALSE(a->exact);
  if (a->violation.has_value() && b->violation.has_value()) {
    EXPECT_EQ(a->violation->schedule, b->violation->schedule);
  }
}

// ---------------------------------------------------------------------
// Engine x mode combinations.

// kIncremental is the shared driver at one thread, so it takes the
// compact store with the same results as the plain store.
TEST(StoreModeValidation, IncrementalEngineTakesEveryMemoryMode) {
  auto ring = GenerateRingSystem(3);
  ASSERT_TRUE(ring.ok());
  DeadlockCheckOptions plain;
  auto b = CheckDeadlockFreedom(*ring->system, plain);
  SafetyCheckOptions splain;
  auto sb = CheckSafety(*ring->system, splain);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(sb.ok());
  DeadlockCheckOptions d;
  d.store = CompactOptions();
  auto a = CheckDeadlockFreedom(*ring->system, d);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->deadlock_free, b->deadlock_free);
  EXPECT_EQ(a->states_visited, b->states_visited);
  ASSERT_TRUE(a->witness.has_value());
  EXPECT_EQ(a->witness->schedule, b->witness->schedule);
  SafetyCheckOptions s;
  s.store = CompactOptions();
  auto sa = CheckSafety(*ring->system, s);
  ASSERT_TRUE(sa.ok()) << sa.status().ToString();
  EXPECT_EQ(sa->holds, sb->holds);
  EXPECT_EQ(sa->states_visited, sb->states_visited);
  EXPECT_FALSE(sa->exact);
}

// Mode/engine conflicts fail fast with InvalidArgument.

TEST(StoreModeValidation, ReducedEngineRejectsCompaction) {
  auto ring = GenerateRingSystem(3);
  ASSERT_TRUE(ring.ok());
  DeadlockCheckOptions d;
  d.engine = SearchEngine::kReduced;
  d.store = CompactOptions();
  EXPECT_EQ(CheckDeadlockFreedom(*ring->system, d).status().code(),
            StatusCode::kInvalidArgument);
  SafetyCheckOptions s;
  s.engine = SearchEngine::kReduced;
  s.store = CompactOptions();
  EXPECT_EQ(CheckSafeAndDeadlockFree(*ring->system, s).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Debug-build guard rails: arena-epoch checks on KeyOf/AuxOf pointers
// and the retired-state and key-width footguns abort under WYDB_DCHECK
// instead of reading reallocated memory or losing key bits.

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)

TEST(ArenaEpochDeathTest, StalePointerAfterInternAborts) {
  StateStore store(/*key_words=*/1);
  uint64_t k = 7;
  uint32_t id = store.Intern(&k).id;
  ConstArenaPtr key = store.KeyOf(id);
  for (uint64_t i = 0; i < 200; ++i) {  // Force arena growth.
    uint64_t fresh = 1000 + i;
    store.Intern(&fresh);
  }
  EXPECT_DEATH({ volatile uint64_t v = key[0]; (void)v; }, "stale");
}

TEST(ArenaEpochDeathTest, RetiredStateAccessAborts) {
  ShardedStateStore store(1, 1, 2, CompactOptions());
  ThreadPool pool(1);
  uint64_t k = 0;
  uint32_t root = store.InternRoot(&k);
  std::vector<ShardedStateStore::Staging> chunks(1);
  store.ResetStaging(&chunks[0]);
  k = 1;
  uint64_t aux = 0;
  store.Stage(&chunks[0], &k, &aux, root, GlobalNode{0, 0});
  store.CommitStaged(&chunks, 1, &pool);
  store.RetireExpanded();
  EXPECT_DEATH({ volatile uint64_t v = store.AuxOf(root)[0]; (void)v; },
               "retired");
}

// The plain store retires aux words too, but keeps its keys (kCompact:
// RetiredStateAccessAborts above).
TEST(ArenaEpochDeathTest, RetiredAuxAbortsInEveryEncoding) {
  ShardedStateStore store(1, 1, 2);
  ThreadPool pool(1);
  const uint64_t root_key = 0;
  uint32_t root = store.InternRoot(&root_key);
  std::vector<ShardedStateStore::Staging> chunks(1);
  store.ResetStaging(&chunks[0]);
  const uint64_t k = 1;
  uint64_t aux = 0;
  store.Stage(&chunks[0], &k, &aux, root, GlobalNode{0, 0});
  store.CommitStaged(&chunks, 1, &pool);
  store.RetireExpanded();
  EXPECT_DEATH({ volatile uint64_t v = store.AuxOf(root)[0]; (void)v; },
               "retired");
  ShardedStateStore::KeyDecodeCache decode;
  EXPECT_EQ(store.KeyView(root, &decode)[0], 0u);  // Keys stay.
}

TEST(ArenaEpochDeathTest, KeyBitOutsideItsWidthAborts) {
  ShardedStateStore store(2, 0, 2, StoreOptions{}, {4, 4});
  const uint64_t root[2] = {0, 0};
  store.InternRoot(root);
  std::vector<ShardedStateStore::Staging> chunks(1);
  store.ResetStaging(&chunks[0]);
  const uint64_t wide[2] = {1, 16};
  EXPECT_DEATH(store.Stage(&chunks[0], wide, nullptr, 0, GlobalNode{0, 0}),
               "width");
}

#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace wydb
