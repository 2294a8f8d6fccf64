// Arena-backed intern tables for packed search states.
//
// The exact checkers explore exponentially many states, so every constant
// factor per expansion matters (the cost story of Theorems 1-2). The seed
// implementation kept three heap copies of every state (visited set,
// parent map, BFS queue), each behind its own hash-map node. StateStore
// collapses all of that into flat arrays:
//
//   * every state is `key_words` 64-bit words of identity plus `aux_words`
//     of engine cache (frontier masks, lock-holder tables, flags), stored
//     contiguously in two arenas and addressed by a dense 32-bit id;
//   * an open-addressing table (power-of-two capacity, linear probing)
//     maps key words -> id, so visited-set membership is one probe
//     sequence with no per-node allocation;
//   * parent links are a flat array of (parent id, move), making witness
//     reconstruction an array walk instead of a hash-map chase.
//
// Ids are stable for the lifetime of the store; pointers returned by
// KeyOf/AuxOf are invalidated by the next insertion (the arenas are
// std::vectors), so re-fetch them after every insertion. Debug builds
// enforce this: accessors return an epoch-stamped pointer wrapper that
// aborts on dereference once the arena generation has moved (DESIGN.md
// §9.4) — in release builds the wrapper compiles away to a raw pointer.
//
// ShardedStateStore is the multi-core variant (DESIGN.md §7): the intern
// table is split by key-hash into power-of-two shards, each with its own
// arenas and probe table, and deduplication of a whole BFS level runs as
// one batched commit — stage children in parent order, dedup every shard
// in parallel, then assign dense global ids in staging order. The id
// sequence, parent links, and first-visit semantics are bit-identical to
// a serial StateStore fed the same insertions, for any shard count,
// thread count, or chunk size.
//
// Beyond-RAM modes (DESIGN.md §9): StoreOptions selects how the sharded
// store represents state identity. kPlain keeps every key (the default);
// kCompact keeps only a 64-bit fingerprint per state (sound for
// refutation, not for certification). In both a key whose words use only
// their low bits is stored bit-packed (DESIGN.md §9.6), and a state's aux
// words are dropped once its level has been expanded.
#ifndef WYDB_CORE_STATE_STORE_H_
#define WYDB_CORE_STATE_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "core/system.h"

namespace wydb {

class ThreadPool;

/// \brief How a ShardedStateStore represents state identity. Threaded
/// from the CLI through both checkers' options down to the store
/// (DESIGN.md §9).
struct StoreOptions {
  enum class KeyEncoding {
    /// Full key words in the arena (the default; exact).
    kPlain,
    /// 64-bit fingerprint only; hash-equal states merge. Sound for
    /// refutation (witnesses replay), NOT for certification.
    kCompact,
  };
  KeyEncoding encoding = KeyEncoding::kPlain;
};

/// \brief Arena/probe byte breakdown for the --stats memory counters.
struct StoreMemoryStats {
  uint64_t arena_bytes = 0;  ///< Key/aux/record/fingerprint arenas.
  uint64_t probe_bytes = 0;  ///< Open-addressing tables.
  uint64_t link_bytes = 0;   ///< Parent links, global index, scratch.
  uint64_t total() const { return arena_bytes + probe_bytes + link_bytes; }
};

namespace internal {

#ifndef NDEBUG
/// Debug-only checked arena pointer: remembers the store generation at
/// fetch time and aborts on any dereference after a later insertion has
/// (potentially) reallocated the arena. Converts implicitly to T* so
/// call sites read exactly like raw pointers.
template <typename T>
class CheckedArenaPtr {
 public:
  CheckedArenaPtr(T* ptr, const std::atomic<uint64_t>* generation)
      : ptr_(ptr),
        generation_(generation),
        snapshot_(generation->load(std::memory_order_relaxed)) {}

  operator T*() const {  // NOLINT(google-explicit-constructor)
    Check();
    return ptr_;
  }
  T& operator*() const {
    Check();
    return *ptr_;
  }
  T& operator[](size_t i) const {
    Check();
    return ptr_[i];
  }

 private:
  void Check() const {
    WYDB_DCHECK(generation_->load(std::memory_order_relaxed) == snapshot_ &&
                "stale StateStore arena pointer (insertion since fetch)");
  }
  T* ptr_;
  const std::atomic<uint64_t>* generation_;
  uint64_t snapshot_;
};
#endif  // NDEBUG

}  // namespace internal

#ifndef NDEBUG
using ConstArenaPtr = internal::CheckedArenaPtr<const uint64_t>;
using MutableArenaPtr = internal::CheckedArenaPtr<uint64_t>;
#else
using ConstArenaPtr = const uint64_t*;
using MutableArenaPtr = uint64_t*;
#endif

/// \brief Optional canonical-key hook (the symmetry half of
/// SearchEngine::kReduced, DESIGN.md §8.2).
///
/// Canonicalize rewrites a (key, aux) pair in place to the canonical
/// representative of its symmetry class — e.g. OrbitCanonicalizer
/// (core/symmetry.h) sorts the per-transaction key blocks by orbit —
/// so equivalent states intern to one id. Implementations must be
/// deterministic functions of the key and thread-safe: the sharded
/// store invokes the hook from concurrent staging workers, and the
/// canonical key is what feeds the shard hash.
class KeyCanonicalizer {
 public:
  virtual ~KeyCanonicalizer() = default;
  /// `aux` may be null when the caller only needs the key rewritten.
  virtual void Canonicalize(uint64_t* key, uint64_t* aux) const = 0;
};

class StateStore {
 public:
  /// Sentinel id: "no such state" / "no parent" (the root).
  static constexpr uint32_t kNoId = 0xFFFFFFFFu;

  /// `key_words` words of state identity (hashed, deduplicated) and
  /// `aux_words` words of per-state engine cache (not part of identity;
  /// zero-initialised on insertion).
  explicit StateStore(int key_words, int aux_words = 0);

  struct InternResult {
    uint32_t id;
    bool inserted;  ///< False when the key was already present.
  };

  /// Interns `key` (exactly key_words() words). On fresh insertion records
  /// the parent link and zero-fills the aux region; on a hit the existing
  /// id is returned and the parent link is left untouched (BFS first-visit
  /// parents).
  InternResult Intern(const uint64_t* key, uint32_t parent = kNoId,
                      GlobalNode move = GlobalNode{-1, -1});

  /// Installs (or clears, with null) the canonical-key hook used by
  /// InternCanonical. The store does not own the canonicalizer.
  void set_canonicalizer(const KeyCanonicalizer* canonicalizer) {
    canonicalizer_ = canonicalizer;
  }

  /// Canonicalizes `key`/`aux` in place through the installed hook (a
  /// no-op without one), then interns the canonical key; on fresh
  /// insertion the aux region is filled from `aux` (instead of the
  /// zero-fill of plain Intern). `aux` must hold aux_words() words.
  InternResult InternCanonical(uint64_t* key, uint64_t* aux,
                               uint32_t parent = kNoId,
                               GlobalNode move = GlobalNode{-1, -1});

  /// Lookup without insertion; kNoId if absent.
  uint32_t Find(const uint64_t* key) const;

  size_t size() const { return parents_.size(); }
  int key_words() const { return key_words_; }
  int aux_words() const { return aux_words_; }

  ConstArenaPtr KeyOf(uint32_t id) const {
    return {keys_.data() + static_cast<size_t>(id) * key_words_,
#ifndef NDEBUG
            &generation_
#endif
    };
  }
  ConstArenaPtr AuxOf(uint32_t id) const {
    return {aux_.data() + static_cast<size_t>(id) * aux_words_,
#ifndef NDEBUG
            &generation_
#endif
    };
  }
  MutableArenaPtr MutableAuxOf(uint32_t id) {
    return {aux_.data() + static_cast<size_t>(id) * aux_words_,
#ifndef NDEBUG
            &generation_
#endif
    };
  }

  uint32_t ParentOf(uint32_t id) const { return parents_[id].parent; }
  GlobalNode MoveOf(uint32_t id) const {
    return GlobalNode{parents_[id].move_txn, parents_[id].move_node};
  }

  /// The move sequence from the root (the ancestor with parent kNoId) to
  /// `id`, in execution order.
  std::vector<GlobalNode> PathFromRoot(uint32_t id) const;

  /// Bytes held by the arenas and the table (diagnostics).
  size_t MemoryBytes() const;
  /// The same bytes, broken down for the --stats memory counters.
  StoreMemoryStats MemoryStats() const;

 private:
  struct ParentLink {
    uint32_t parent;
    int32_t move_txn;
    int32_t move_node;
  };

  void Grow();
  /// Appends `key` as a fresh id (the table insertion is the caller's).
  uint32_t Append(const uint64_t* key, uint32_t parent, GlobalNode move);
  const uint64_t* KeyRaw(uint32_t id) const {
    return keys_.data() + static_cast<size_t>(id) * key_words_;
  }

  const int key_words_;
  const int aux_words_;
  const KeyCanonicalizer* canonicalizer_ = nullptr;
  std::vector<uint64_t> keys_;       ///< size() * key_words_ words.
  std::vector<uint64_t> aux_;        ///< size() * aux_words_ words.
  std::vector<ParentLink> parents_;  ///< One per id.
  std::vector<uint32_t> slots_;      ///< Open-addressing table of ids.
  size_t slot_mask_ = 0;             ///< slots_.size() - 1 (power of two).
  /// Arena epoch for the debug stale-pointer check; bumped by every
  /// insertion (relaxed: ordering is the caller's problem, the counter
  /// only needs to be race-free).
  std::atomic<uint64_t> generation_{0};
};

/// \brief Key-hash-sharded intern table with a deterministic batched
/// commit: the store of the level-synchronous search driver
/// (analysis/level_search.h) behind every exact-search engine.
///
/// Global ids are dense and allocated in *staging order* — the order
/// Stage() calls would reach a serial StateStore::Intern when chunks are
/// filled in parent order — so verdicts, witnesses, and state counts of a
/// level-synchronous BFS match a serial pop loop bit for bit at every
/// thread count.
///
/// Usage per BFS level:
///   1. Split the level's states into chunks (chunk c = states
///      [c*chunk_size, ...)); one Staging buffer per chunk.
///   2. In parallel (any worker<->chunk assignment): for each state of
///      chunk c in id order, Stage() each child into staging[c]. Stage
///      routes the child to a shard by key hash and records the staging
///      ordinal.
///   3. CommitStaged(): dedups every shard in parallel against both the
///      table and the batch itself (first staged occurrence wins the
///      parent link, as with serial Intern), then assigns global ids to
///      the fresh states by a serial rank scan in staging order.
///
/// Commits compose: committing a level as several sequential
/// CommitStaged batches (in chunk order) yields the same ids, parents,
/// and dedup decisions as one big commit — later batches dedup against
/// a table that already holds the earlier ones, and first-staged-
/// occurrence-wins holds across batch boundaries. The search driver
/// relies on this to commit each level one bounded window at a time.
///
/// Between commits the store is read-only and safe to read from any
/// thread; Stage() writes only to the caller's Staging buffer.
class ShardedStateStore {
 public:
  static constexpr uint32_t kNoId = 0xFFFFFFFFu;

  /// `num_shards` is rounded up to a power of two (minimum 1). Shard
  /// choice never affects ids — only contention and per-shard table size.
  /// `options` selects the key encoding (see StoreOptions).
  /// `key_word_bits`, when not empty, holds key_words entries: word w of
  /// every key uses only its low key_word_bits[w] bits (0..64). kPlain
  /// and kCompact then store keys bit-packed, in packed_key_words()
  /// words; KeyView unpacks them. A key bit outside its word's width
  /// would be lost (debug-checked at Stage).
  ShardedStateStore(int key_words, int aux_words, int num_shards,
                    const StoreOptions& options = StoreOptions{},
                    std::vector<int> key_word_bits = {});

  int key_words() const { return key_words_; }
  int aux_words() const { return aux_words_; }
  /// Words a stored key takes: key_words() unless keys are packed.
  int packed_key_words() const { return stored_words_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t size() const { return index_.size(); }
  const StoreOptions& options() const { return options_; }

  /// Serial insertion (the search root, before any batches).
  uint32_t InternRoot(const uint64_t* key);

  ConstArenaPtr AuxOf(uint32_t id) const {
    const Slot s = Unpack(index_[id]);
    const Shard& shard = shards_[s.shard];
    WYDB_DCHECK(s.local >= shard.aux_base && "retired state");
    return {shard.aux.data() +
                static_cast<size_t>(s.local - shard.aux_base) *
                    aux_words_,
#ifndef NDEBUG
            &generation_
#endif
    };
  }
  MutableArenaPtr MutableAuxOf(uint32_t id) {
    const Slot s = Unpack(index_[id]);
    Shard& shard = shards_[s.shard];
    WYDB_DCHECK(s.local >= shard.aux_base && "retired state");
    return {shard.aux.data() +
                static_cast<size_t>(s.local - shard.aux_base) *
                    aux_words_,
#ifndef NDEBUG
            &generation_
#endif
    };
  }
  uint32_t ParentOf(uint32_t id) const {
    const Slot s = Unpack(index_[id]);
    return shards_[s.shard].parents[s.local].parent;
  }
  GlobalNode MoveOf(uint32_t id) const {
    const Slot s = Unpack(index_[id]);
    const ParentLink& p = shards_[s.shard].parents[s.local];
    return GlobalNode{p.move_txn, p.move_node};
  }

  /// \brief Per-worker scratch for KeyView: the buffer a packed key is
  /// unpacked into, so callers need not know the stored layout.
  ///
  /// Not thread-safe; give each worker its own. Cheap to default-
  /// construct (storage is allocated on first use).
  class KeyDecodeCache {
   public:
    KeyDecodeCache() = default;

   private:
    friend class ShardedStateStore;
    std::vector<uint64_t> unpacked_;  ///< Packed keys: the last unpacked.
  };

  /// Full key words of `id` (kCompact: non-retired ids only): the arena
  /// pointer directly, or a packed key unpacked into `cache`, which must
  /// then be non-null. The returned pointer is invalidated by the next
  /// KeyView call on the same cache, and by any store insertion.
  const uint64_t* KeyView(uint32_t id, KeyDecodeCache* cache) const {
    if (stored_words_ == key_words_) return KeyRaw(id);
    cache->unpacked_.resize(key_words_);
    UnpackKey(KeyRaw(id), cache->unpacked_.data());
    return cache->unpacked_.data();
  }

  /// The move sequence from the root to `id`, in execution order.
  std::vector<GlobalNode> PathFromRoot(uint32_t id) const;

  /// Bytes held by the shard arenas, tables, and the global index, broken
  /// down for the --stats memory counters.
  StoreMemoryStats MemoryStats() const;

  /// Per-chunk staging buffer. Reusable across levels (Reset keeps the
  /// allocated capacity).
  class Staging {
   public:
    size_t staged() const { return count_; }

   private:
    friend class ShardedStateStore;
    struct Pending {
      uint64_t hash;
      uint32_t ordinal;  ///< Staging order within the chunk.
      uint32_t parent;
      int32_t move_txn;
      int32_t move_node;
    };
    std::vector<std::vector<uint64_t>> words_;  ///< [shard] key|aux runs.
    std::vector<std::vector<Pending>> pending_;  ///< [shard] metadata.
    std::vector<uint64_t> pack_scratch_;  ///< Packed keys: Stage's key.
    uint32_t count_ = 0;
  };

  /// Prepares `staging` for a new chunk of this store's batch.
  void ResetStaging(Staging* staging) const;

  /// Stages one candidate child (key_words + aux_words words) with its
  /// parent link. Writes only into `staging`; safe to call concurrently
  /// on distinct Staging objects.
  void Stage(Staging* staging, const uint64_t* key, const uint64_t* aux,
             uint32_t parent, GlobalNode move) const;

  /// Installs (or clears) the canonical-key hook used by StageCanonical.
  void set_canonicalizer(const KeyCanonicalizer* canonicalizer) {
    canonicalizer_ = canonicalizer;
  }

  /// Canonicalizes `key`/`aux` in place (no-op without a hook), then
  /// stages the canonical tuple — the canonical key is what gets hashed,
  /// so symmetric siblings land in one shard slot and dedup to one id.
  /// Safe to call concurrently on distinct Staging objects.
  void StageCanonical(Staging* staging, uint64_t* key, uint64_t* aux,
                      uint32_t parent, GlobalNode move) const;

  /// Commits `num_chunks` staged chunks, in chunk order. Keys already
  /// present (in the store or earlier in the batch) are dropped. Shard
  /// dedup runs on `pool` (may be null = serial). Returns the number of
  /// fresh states; their ids are [old size(), new size()), in staging
  /// order.
  size_t CommitStaged(std::vector<Staging>* chunks, size_t num_chunks,
                      ThreadPool* pool);

  /// Drops the aux words of every state below the first commit since
  /// the previous retire — i.e. of the levels that have been fully
  /// expanded, whose aux (an expansion cache) is never read again — and
  /// in kCompact their key words too, keeping only the current
  /// frontier's resident. Parents, kPlain keys, fingerprints and the
  /// probe tables stay (kCompact probes only fingerprints), so dedup and
  /// witness replay are unaffected. AuxOf of retired ids, and in kCompact
  /// KeyView, become invalid (debug-checked).
  void RetireExpanded();

  /// Live bytes currently staged in `staging` (the peak_staging_bytes
  /// counter).
  uint64_t StagingBytes(const Staging& staging) const;

 private:
  struct ParentLink {
    uint32_t parent;
    int32_t move_txn;
    int32_t move_node;
  };
  struct Slot {
    uint32_t shard;
    uint32_t local;
  };
  struct Shard {
    /// kPlain: all keys. kCompact: keys of locals >= frontier_base only.
    /// stored_words_ per key.
    std::vector<uint64_t> keys;
    /// Aux of locals >= aux_base only.
    std::vector<uint64_t> aux;
    std::vector<ParentLink> parents;  ///< One per local id, never retired.
    std::vector<uint32_t> slots;      ///< Open addressing -> local id.
    size_t slot_mask = 0;
    /// Full 64-bit key hash per local id: the probe prefilter (the whole
    /// identity in kCompact), and what table growth rehashes from.
    std::vector<uint64_t> hashes;
    /// kCompact: first local id whose key words are still resident.
    uint32_t frontier_base = 0;
    /// First local id whose aux words are still resident.
    uint32_t aux_base = 0;
  };

  static Slot Unpack(uint64_t packed) {
    return Slot{static_cast<uint32_t>(packed >> 32),
                static_cast<uint32_t>(packed)};
  }
  static uint64_t Pack(uint32_t shard, uint32_t local) {
    return (static_cast<uint64_t>(shard) << 32) | local;
  }

  uint32_t ShardOf(uint64_t hash) const {
    // High bits pick the shard; Find/insert probe with the low bits, so
    // the two choices stay independent.
    return static_cast<uint32_t>(hash >> (64 - shard_bits_)) &
           (static_cast<uint32_t>(shards_.size()) - 1);
  }

  const uint64_t* KeyRaw(uint32_t id) const {
    const Slot s = Unpack(index_[id]);
    const Shard& shard = shards_[s.shard];
    WYDB_DCHECK(s.local >= shard.frontier_base && "retired state");
    return shard.keys.data() +
           static_cast<size_t>(s.local - shard.frontier_base) *
               stored_words_;
  }

  /// Appends a tuple to `shard` (no table insertion); returns local id.
  uint32_t AppendToShard(Shard* shard, const uint64_t* key_aux,
                         const Staging::Pending& p);
  /// Doubles the probe table, rehashing from the stored hashes.
  void GrowShard(Shard* shard);
  /// Packed keys: writes `key` bit-packed into `out` (stored_words_
  /// words), and the reverse.
  void PackKey(const uint64_t* key, uint64_t* out) const;
  void UnpackKey(const uint64_t* packed, uint64_t* key) const;

  const int key_words_;
  const int aux_words_;
  const StoreOptions options_;
  /// Low bits used by each key word; empty unless keys are packed.
  std::vector<int> key_word_bits_;
  /// Words per stored key: key_words_, or the packed width.
  int stored_words_;
  const KeyCanonicalizer* canonicalizer_ = nullptr;
  int shard_bits_ = 0;
  std::vector<Shard> shards_;
  /// Global id -> packed (shard, local), in allocation order.
  std::vector<uint64_t> index_;
  /// Scratch for CommitStaged: staging-seq -> packed slot of the fresh
  /// insertion, or ~0 for duplicates. Sized to the batch, reused.
  std::vector<uint64_t> fresh_marks_;
  /// Per-shard local count at the first commit since the last
  /// RetireExpanded — the boundary below which states are expanded.
  std::vector<uint32_t> retire_base_;
  bool retire_base_valid_ = false;
  /// Arena epoch for the debug stale-pointer check. The sharded store
  /// bumps once per mutation batch (InternRoot / CommitStaged /
  /// RetireExpanded): within a batch internal writers append
  /// concurrently, and all outside pointers are invalidated together.
  std::atomic<uint64_t> generation_{0};
};

}  // namespace wydb

#endif  // WYDB_CORE_STATE_STORE_H_
