// Store memory-mode tests (DESIGN.md §9): delta-encoded keys, hash
// compaction, and the disk-spillable frontier must keep the engines'
// bit-identical contract (delta/spill) or its documented relaxation
// (compact: non-certified verdicts, sound witnesses), across shard,
// chunk, and thread counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "analysis/deadlock_checker.h"
#include "analysis/safety_checker.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/frontier_spill.h"
#include "core/state_store.h"
#include "gen/system_gen.h"

namespace wydb {
namespace {

StoreOptions DeltaOptions(uint64_t budget_mb = 0) {
  StoreOptions o;
  o.encoding = StoreOptions::KeyEncoding::kDelta;
  o.mem_budget_mb = budget_mb;
  return o;
}

StoreOptions CompactOptions() {
  StoreOptions o;
  o.encoding = StoreOptions::KeyEncoding::kCompact;
  return o;
}

// ---------------------------------------------------------------------
// Store level: the delta-encoded staged commit must reproduce serial
// Intern ids, keys (via KeyView reconstruction), parents, and moves bit
// for bit, like the plain-mode harness in state_store_test.cc.

void CheckDeltaCommitMatchesSerial(int key_words, int shards,
                                   size_t chunk_size, int threads,
                                   const std::vector<uint64_t>& keys,
                                   size_t num_keys) {
  StateStore serial(key_words, key_words);
  ShardedStateStore sharded(key_words, key_words, shards, DeltaOptions());
  ThreadPool pool(threads);

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

  // The parent cycles through the live serial id range, so the staged
  // batch holds deltas against both committed parents and parents that
  // are themselves staged in this batch (id < child id either way).
  std::vector<ShardedStateStore::Staging> chunks;
  size_t staged = 0;
  for (size_t i = 1; i < num_keys;) {
    chunks.emplace_back();
    sharded.ResetStaging(&chunks.back());
    for (size_t c = 0; c < chunk_size && i < num_keys; ++c, ++i) {
      const uint64_t* key = keys.data() + i * key_words;
      uint32_t parent = static_cast<uint32_t>(staged % serial.size());
      GlobalNode move{static_cast<int>(staged), 0};
      sharded.Stage(&chunks.back(), key, aux_of(key), parent, move,
                    serial.KeyOf(parent));
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

TEST(DeltaStoreTest, StagedCommitMatchesSerialIntern) {
  const int kKeyWords = 3;
  Rng rng(2024);
  const size_t kNumKeys = 4000;
  std::vector<uint64_t> keys(kNumKeys * kKeyWords);
  // ~50% duplicate keys; word 1+ differ from word 0 so xor-deltas are
  // sparse but non-trivial.
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
        CheckDeltaCommitMatchesSerial(kKeyWords, shards, chunk, threads,
                                      keys, kNumKeys);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Store level: a staged chunk survives the WriteStaging/ReadStaging
// round trip, in both encodings — committing the read-back chunks is
// id-identical to committing the originals.

void CheckSpillRoundTrip(const StoreOptions& options) {
  const int kw = 2;
  ShardedStateStore direct(kw, kw, 4, options);
  ShardedStateStore spilled(kw, kw, 4, options);
  ThreadPool pool(2);
  uint64_t root[2] = {0, 0};
  direct.InternRoot(root);
  spilled.InternRoot(root);

  Rng rng(7);
  const size_t kNumKeys = 500;
  std::vector<ShardedStateStore::Staging> chunks;
  std::vector<uint64_t> key(kw), aux(kw);
  size_t staged = 0;
  for (size_t i = 0; i < kNumKeys;) {
    chunks.emplace_back();
    direct.ResetStaging(&chunks.back());
    for (size_t c = 0; c < 7 && i < kNumKeys; ++c, ++i, ++staged) {
      uint64_t v = rng.NextBelow(kNumKeys / 2) + 1;
      for (int w = 0; w < kw; ++w) {
        key[w] = v * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(w);
        aux[w] = key[w] ^ 9;
      }
      direct.Stage(&chunks.back(), key.data(), aux.data(), 0,
                   GlobalNode{static_cast<int>(staged), 0}, root);
    }
  }

  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(direct.WriteStaging(file, chunk));
  }
  std::rewind(file);
  std::vector<ShardedStateStore::Staging> readback(chunks.size());
  for (auto& chunk : readback) {
    ASSERT_TRUE(spilled.ReadStaging(file, &chunk));
  }
  std::fclose(file);

  direct.CommitStaged(&chunks, chunks.size(), &pool);
  spilled.CommitStaged(&readback, readback.size(), &pool);

  ASSERT_EQ(direct.size(), spilled.size());
  ShardedStateStore::KeyDecodeCache da, db;
  for (uint32_t id = 0; id < direct.size(); ++id) {
    ASSERT_EQ(std::memcmp(direct.KeyView(id, &da), spilled.KeyView(id, &db),
                          kw * sizeof(uint64_t)),
              0)
        << "id " << id;
    ASSERT_EQ(direct.ParentOf(id), spilled.ParentOf(id)) << "id " << id;
    ASSERT_EQ(direct.MoveOf(id), spilled.MoveOf(id)) << "id " << id;
  }
}

TEST(FrontierSpillTest, StagingRoundTripIsIdIdenticalPlain) {
  CheckSpillRoundTrip(StoreOptions{});
}

TEST(FrontierSpillTest, StagingRoundTripIsIdIdenticalDelta) {
  CheckSpillRoundTrip(DeltaOptions());
}

// ---------------------------------------------------------------------
// Engine level: delta and spill runs must be bit-identical to the plain
// parallel engine — verdicts, visited/interned counts, and witnesses —
// at every thread count; compact must agree on verdicts (collisions at
// these sizes are ~2^-40) while marking itself non-exact.

struct ModeCase {
  const char* label;
  StoreOptions store;
  int threads;
};

std::vector<ModeCase> BitIdenticalModes() {
  return {
      {"delta/t1", DeltaOptions(), 1},
      {"delta/t2", DeltaOptions(), 2},
      {"delta/t4", DeltaOptions(), 4},
      {"delta+spill/t2", DeltaOptions(/*budget_mb=*/1), 2},
      {"plain+spill/t2", [] {
         StoreOptions o;
         o.mem_budget_mb = 1;
         return o;
       }(), 2},
  };
}

TEST(StoreModeCrossval, DeadlockAndSafetyBitIdenticalToPlain) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RandomSystemOptions opts;
    opts.num_sites = 2;
    opts.entities_per_site = 2;
    opts.num_transactions = 3;
    opts.entities_per_txn = 2;
    opts.seed = seed;
    auto sys = GenerateRandomSystem(opts);
    ASSERT_TRUE(sys.ok());
    const TransactionSystem& s = *sys->system;

    DeadlockCheckOptions dref;
    dref.engine = SearchEngine::kParallelSharded;
    dref.search_threads = 2;
    auto db = CheckDeadlockFreedom(s, dref);
    ASSERT_TRUE(db.ok());
    SafetyCheckOptions sref;
    sref.engine = SearchEngine::kParallelSharded;
    sref.search_threads = 2;
    auto sb = CheckSafeAndDeadlockFree(s, sref);
    auto cb = CheckSafety(s, sref);
    ASSERT_TRUE(sb.ok());
    ASSERT_TRUE(cb.ok());

    for (const ModeCase& mode : BitIdenticalModes()) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " mode "
                                      << mode.label);
      DeadlockCheckOptions dopt = dref;
      dopt.store = mode.store;
      dopt.search_threads = mode.threads;
      auto da = CheckDeadlockFreedom(s, dopt);
      ASSERT_TRUE(da.ok());
      ASSERT_EQ(da->deadlock_free, db->deadlock_free);
      ASSERT_EQ(da->states_visited, db->states_visited);
      ASSERT_EQ(da->states_interned, db->states_interned);
      ASSERT_TRUE(da->exact);
      ASSERT_EQ(da->witness.has_value(), db->witness.has_value());
      if (da->witness.has_value()) {
        EXPECT_EQ(da->witness->schedule, db->witness->schedule);
        EXPECT_EQ(da->witness->prefix_nodes, db->witness->prefix_nodes);
      }

      SafetyCheckOptions sopt = sref;
      sopt.store = mode.store;
      sopt.search_threads = mode.threads;
      auto sa = CheckSafeAndDeadlockFree(s, sopt);
      ASSERT_TRUE(sa.ok());
      ASSERT_EQ(sa->holds, sb->holds);
      ASSERT_EQ(sa->states_visited, sb->states_visited);
      ASSERT_EQ(sa->states_interned, sb->states_interned);
      ASSERT_TRUE(sa->exact);
      ASSERT_EQ(sa->violation.has_value(), sb->violation.has_value());
      if (sa->violation.has_value()) {
        EXPECT_EQ(sa->violation->schedule, sb->violation->schedule);
        EXPECT_EQ(sa->violation->txn_cycle, sb->violation->txn_cycle);
      }

      auto ca = CheckSafety(s, sopt);
      ASSERT_TRUE(ca.ok());
      ASSERT_EQ(ca->holds, cb->holds);
      ASSERT_EQ(ca->states_visited, cb->states_visited);
      if (ca->violation.has_value() && cb->violation.has_value()) {
        EXPECT_EQ(ca->violation->schedule, cb->violation->schedule);
      }
    }
  }
}

// The reduced engine composes with delta (and spill): same reduced-space
// ids, counts, and violations as its plain-store run.
TEST(StoreModeCrossval, ReducedEngineComposesWithDelta) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomSystemOptions opts;
    opts.num_transactions = 3;
    opts.entities_per_txn = 2;
    opts.seed = seed;
    auto sys = GenerateRandomSystem(opts);
    ASSERT_TRUE(sys.ok());
    const TransactionSystem& s = *sys->system;

    DeadlockCheckOptions ref;
    ref.engine = SearchEngine::kReduced;
    ref.search_threads = 2;
    auto b = CheckDeadlockFreedom(s, ref);
    ASSERT_TRUE(b.ok());
    for (uint64_t budget : {0ull, 1ull}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " budget "
                                      << budget);
      DeadlockCheckOptions fast = ref;
      fast.store = DeltaOptions(budget);
      auto a = CheckDeadlockFreedom(s, fast);
      ASSERT_TRUE(a.ok());
      ASSERT_EQ(a->deadlock_free, b->deadlock_free);
      ASSERT_EQ(a->states_visited, b->states_visited);
      ASSERT_EQ(a->sleep_set_pruned, b->sleep_set_pruned);
      ASSERT_EQ(a->witness.has_value(), b->witness.has_value());
      if (a->witness.has_value()) {
        EXPECT_EQ(a->witness->schedule, b->witness->schedule);
      }
    }
  }
}

// ---------------------------------------------------------------------
// A big enough search under a 1 MiB budget must actually hit the spill
// file — and still match the unbounded plain run exactly.

TEST(FrontierSpillTest, BudgetedFarmSpillsAndMatchesUnbounded) {
  ReplicatedFarmOptions fopts;
  fopts.workers = 12;  // (2.5*12+1)*2^12 = 126,976 reachable states.
  fopts.entities = 3;
  fopts.degree = 1;
  fopts.certified = true;
  auto sys = GenerateReplicatedFarm(fopts);
  ASSERT_TRUE(sys.ok());

  DeadlockCheckOptions plain;
  plain.engine = SearchEngine::kParallelSharded;
  plain.search_threads = 2;
  auto unbounded = CheckDeadlockFreedom(*sys->system, plain);
  ASSERT_TRUE(unbounded.ok());
  ASSERT_TRUE(unbounded->deadlock_free);
  ASSERT_EQ(unbounded->spilled_levels, 0u);
  ASSERT_GT(unbounded->store_bytes, 1u << 20);  // The budget below binds.

  DeadlockCheckOptions budgeted = plain;
  budgeted.store = DeltaOptions(/*budget_mb=*/1);
  auto spilled = CheckDeadlockFreedom(*sys->system, budgeted);
  ASSERT_TRUE(spilled.ok());
  EXPECT_GT(spilled->spilled_levels, 0u);
  EXPECT_TRUE(spilled->deadlock_free);
  EXPECT_EQ(spilled->states_visited, unbounded->states_visited);
  EXPECT_EQ(spilled->states_interned, unbounded->states_interned);
  // Delta keys must be strictly smaller than plain keys at this scale.
  EXPECT_LT(spilled->arena_bytes, unbounded->arena_bytes);
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
  // Retiring expanded levels keeps only the frontier resident: the
  // compacted arena must be a small fraction of the full one.
  EXPECT_LT(a->arena_bytes, b->arena_bytes / 4);
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

// kIncremental is the shared driver at one thread, so it takes every
// memory mode with the same results as the plain store.
TEST(StoreModeValidation, IncrementalEngineTakesEveryMemoryMode) {
  auto ring = GenerateRingSystem(3);
  ASSERT_TRUE(ring.ok());
  DeadlockCheckOptions plain;
  auto b = CheckDeadlockFreedom(*ring->system, plain);
  SafetyCheckOptions splain;
  auto sb = CheckSafety(*ring->system, splain);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(sb.ok());
  for (const StoreOptions& store :
       {DeltaOptions(), DeltaOptions(/*budget_mb=*/1), CompactOptions()}) {
    DeadlockCheckOptions d;
    d.store = store;
    auto a = CheckDeadlockFreedom(*ring->system, d);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_EQ(a->deadlock_free, b->deadlock_free);
    EXPECT_EQ(a->states_visited, b->states_visited);
    ASSERT_TRUE(a->witness.has_value());
    EXPECT_EQ(a->witness->schedule, b->witness->schedule);
    SafetyCheckOptions s;
    s.store = store;
    auto sa = CheckSafety(*ring->system, s);
    ASSERT_TRUE(sa.ok()) << sa.status().ToString();
    EXPECT_EQ(sa->holds, sb->holds);
    EXPECT_EQ(sa->states_visited, sb->states_visited);
    EXPECT_EQ(sa->exact,
              store.encoding != StoreOptions::KeyEncoding::kCompact);
  }
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
// Debug-build guard rails (satellite of ISSUE 6): arena-epoch checks on
// KeyOf/AuxOf pointers and the retired-state / delta-KeyOf footguns
// abort under WYDB_DCHECK instead of reading reallocated memory.

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

TEST(ArenaEpochDeathTest, KeyOfOnDeltaStoreAborts) {
  ShardedStateStore store(1, 0, 2, DeltaOptions());
  uint64_t k = 0;
  uint32_t root = store.InternRoot(&k);
  EXPECT_DEATH({ volatile uint64_t v = store.KeyOf(root)[0]; (void)v; },
               "KeyView");
}

#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace wydb
