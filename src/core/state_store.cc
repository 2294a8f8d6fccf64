#include "core/state_store.h"

#include <algorithm>
#include <cstring>

#include "common/hash_util.h"
#include "common/thread_pool.h"

namespace wydb {

namespace {
constexpr size_t kInitialSlots = 1024;       // Power of two.
constexpr size_t kInitialShardSlots = 256;   // Power of two.
constexpr uint64_t kDuplicate = ~0ULL;       // fresh_marks_ sentinel.
}  // namespace

// ---------------------------------------------------------------------------
// StateStore (serial).
// ---------------------------------------------------------------------------

StateStore::StateStore(int key_words, int aux_words)
    : key_words_(key_words), aux_words_(aux_words) {
  slots_.assign(kInitialSlots, kNoId);
  slot_mask_ = kInitialSlots - 1;
}

void StateStore::Grow() {
  std::vector<uint32_t> next(slots_.size() * 2, kNoId);
  const size_t mask = next.size() - 1;
  for (uint32_t id = 0; id < parents_.size(); ++id) {
    size_t pos = HashWords(KeyRaw(id), key_words_) & mask;
    while (next[pos] != kNoId) pos = (pos + 1) & mask;
    next[pos] = id;
  }
  slots_ = std::move(next);
  slot_mask_ = mask;
}

StateStore::InternResult StateStore::Intern(const uint64_t* key,
                                            uint32_t parent,
                                            GlobalNode move) {
  // Keep the load factor below 1/2.
  if ((parents_.size() + 1) * 2 > slots_.size()) Grow();
  size_t pos = HashWords(key, key_words_) & slot_mask_;
  while (true) {
    uint32_t id = slots_[pos];
    if (id == kNoId) break;
    if (std::memcmp(KeyRaw(id), key, key_words_ * sizeof(uint64_t)) == 0) {
      return InternResult{id, false};
    }
    pos = (pos + 1) & slot_mask_;
  }
  uint32_t id = Append(key, parent, move);
  slots_[pos] = id;
  return InternResult{id, true};
}

StateStore::InternResult StateStore::InternCanonical(uint64_t* key,
                                                     uint64_t* aux,
                                                     uint32_t parent,
                                                     GlobalNode move) {
  if (canonicalizer_ != nullptr) canonicalizer_->Canonicalize(key, aux);
  InternResult r = Intern(key, parent, move);
  if (r.inserted && aux_words_ > 0) {
    std::memcpy(aux_.data() + static_cast<size_t>(r.id) * aux_words_, aux,
                aux_words_ * sizeof(uint64_t));
  }
  return r;
}

uint32_t StateStore::Append(const uint64_t* key, uint32_t parent,
                            GlobalNode move) {
  uint32_t id = static_cast<uint32_t>(parents_.size());
  keys_.insert(keys_.end(), key, key + key_words_);
  aux_.resize(aux_.size() + aux_words_, 0);
  parents_.push_back(ParentLink{parent, move.txn, move.node});
  generation_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

uint32_t StateStore::Find(const uint64_t* key) const {
  size_t pos = HashWords(key, key_words_) & slot_mask_;
  while (true) {
    uint32_t id = slots_[pos];
    if (id == kNoId) return kNoId;
    if (std::memcmp(KeyRaw(id), key, key_words_ * sizeof(uint64_t)) == 0) {
      return id;
    }
    pos = (pos + 1) & slot_mask_;
  }
}

std::vector<GlobalNode> StateStore::PathFromRoot(uint32_t id) const {
  std::vector<GlobalNode> path;
  for (uint32_t cur = id; parents_[cur].parent != kNoId;
       cur = parents_[cur].parent) {
    path.push_back(MoveOf(cur));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

StoreMemoryStats StateStore::MemoryStats() const {
  StoreMemoryStats m;
  m.arena_bytes = keys_.capacity() * sizeof(uint64_t) +
                  aux_.capacity() * sizeof(uint64_t);
  m.probe_bytes = slots_.capacity() * sizeof(uint32_t);
  m.link_bytes = parents_.capacity() * sizeof(ParentLink);
  return m;
}

size_t StateStore::MemoryBytes() const { return MemoryStats().total(); }

// ---------------------------------------------------------------------------
// ShardedStateStore.
// ---------------------------------------------------------------------------

ShardedStateStore::ShardedStateStore(int key_words, int aux_words,
                                     int num_shards,
                                     const StoreOptions& options,
                                     std::vector<int> key_word_bits)
    : key_words_(key_words),
      aux_words_(aux_words),
      options_(options),
      stored_words_(key_words) {
  if (!key_word_bits.empty()) {
    WYDB_DCHECK(static_cast<int>(key_word_bits.size()) == key_words);
    int bits = 0;
    for (int b : key_word_bits) {
      WYDB_DCHECK(b >= 0 && b <= 64);
      bits += b;
    }
    const int packed = std::max(1, (bits + 63) / 64);
    if (packed < key_words) {
      key_word_bits_ = std::move(key_word_bits);
      stored_words_ = packed;
    }
  }
  size_t shards = 1;
  shard_bits_ = 0;
  while (shards < static_cast<size_t>(num_shards > 1 ? num_shards : 1)) {
    shards <<= 1;
    ++shard_bits_;
  }
  if (shard_bits_ == 0) shard_bits_ = 1;  // Keep the >> (64-bits) defined.
  shards_ = std::vector<Shard>(shards);
  for (Shard& shard : shards_) {
    shard.slots.assign(kInitialShardSlots, kNoId);
    shard.slot_mask = kInitialShardSlots - 1;
  }
}

uint32_t ShardedStateStore::InternRoot(const uint64_t* key) {
  // The root's stored tuple: its (packed) key, then aux words that start
  // zeroed; the caller fills them via MutableAuxOf.
  std::vector<uint64_t> key_aux(static_cast<size_t>(stored_words_) + aux_words_,
                                0);
  if (stored_words_ == key_words_) {
    std::memcpy(key_aux.data(), key, key_words_ * sizeof(uint64_t));
  } else {
    PackKey(key, key_aux.data());
  }
  const uint64_t hash = HashWords(key_aux.data(), stored_words_);
  const uint32_t si = ShardOf(hash);
  Shard& shard = shards_[si];
  const Staging::Pending p{hash, 0, kNoId, -1, -1};
  const uint32_t local = AppendToShard(&shard, key_aux.data(), p);
  shard.hashes.push_back(hash);
  size_t pos = hash & shard.slot_mask;
  while (shard.slots[pos] != kNoId) pos = (pos + 1) & shard.slot_mask;
  shard.slots[pos] = local;
  const uint32_t id = static_cast<uint32_t>(index_.size());
  index_.push_back(Pack(si, local));
  generation_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void ShardedStateStore::ResetStaging(Staging* staging) const {
  staging->words_.resize(shards_.size());
  staging->pending_.resize(shards_.size());
  // clear() keeps each lane's capacity from earlier levels. No eager
  // reserve: there are O(chunks x shards) lanes and most stay empty, so
  // a speculative floor would dwarf the states it stages.
  for (size_t s = 0; s < shards_.size(); ++s) {
    staging->words_[s].clear();
    staging->pending_[s].clear();
  }
  staging->count_ = 0;
}

void ShardedStateStore::Stage(Staging* staging, const uint64_t* key,
                              const uint64_t* aux, uint32_t parent,
                              GlobalNode move) const {
  uint64_t hash;
  uint32_t shard;
  if (stored_words_ == key_words_) {
    hash = HashWords(key, key_words_);
    shard = ShardOf(hash);
    std::vector<uint64_t>& words = staging->words_[shard];
    words.insert(words.end(), key, key + key_words_);
    words.insert(words.end(), aux, aux + aux_words_);
  } else {
    // The shard is chosen by the packed key's hash, so pack into the
    // chunk's scratch first.
    std::vector<uint64_t>& packed = staging->pack_scratch_;
    packed.resize(stored_words_);
    PackKey(key, packed.data());
    hash = HashWords(packed.data(), stored_words_);
    shard = ShardOf(hash);
    std::vector<uint64_t>& words = staging->words_[shard];
    words.insert(words.end(), packed.begin(), packed.end());
    words.insert(words.end(), aux, aux + aux_words_);
  }
  staging->pending_[shard].push_back(Staging::Pending{
      hash, staging->count_++, parent, move.txn, move.node});
}

void ShardedStateStore::StageCanonical(Staging* staging, uint64_t* key,
                                       uint64_t* aux, uint32_t parent,
                                       GlobalNode move) const {
  if (canonicalizer_ != nullptr) canonicalizer_->Canonicalize(key, aux);
  Stage(staging, key, aux, parent, move);
}

uint32_t ShardedStateStore::AppendToShard(Shard* shard,
                                          const uint64_t* key_aux,
                                          const Staging::Pending& p) {
  const uint32_t local = static_cast<uint32_t>(shard->parents.size());
  shard->keys.insert(shard->keys.end(), key_aux, key_aux + stored_words_);
  shard->aux.insert(shard->aux.end(), key_aux + stored_words_,
                    key_aux + stored_words_ + aux_words_);
  shard->parents.push_back(ParentLink{p.parent, p.move_txn, p.move_node});
  return local;
}

void ShardedStateStore::GrowShard(Shard* shard) {
  std::vector<uint32_t> next(shard->slots.size() * 2, kNoId);
  const size_t mask = next.size() - 1;
  for (uint32_t local = 0; local < shard->hashes.size(); ++local) {
    size_t pos = shard->hashes[local] & mask;
    while (next[pos] != kNoId) pos = (pos + 1) & mask;
    next[pos] = local;
  }
  shard->slots = std::move(next);
  shard->slot_mask = mask;
}

void ShardedStateStore::PackKey(const uint64_t* key, uint64_t* out) const {
  std::memset(out, 0, static_cast<size_t>(stored_words_) * sizeof(uint64_t));
  size_t bit = 0;
  for (int w = 0; w < key_words_; ++w) {
    const int width = key_word_bits_[w];
    if (width == 0) continue;
    const uint64_t v = key[w];
    WYDB_DCHECK((width == 64 || (v >> width) == 0) &&
                "key bit outside its word's declared width");
    const size_t word = bit / 64;
    const size_t shift = bit % 64;
    out[word] |= v << shift;
    if (shift + width > 64) out[word + 1] |= v >> (64 - shift);
    bit += width;
  }
}

void ShardedStateStore::UnpackKey(const uint64_t* packed,
                                  uint64_t* key) const {
  size_t bit = 0;
  for (int w = 0; w < key_words_; ++w) {
    const int width = key_word_bits_[w];
    if (width == 0) {
      key[w] = 0;
      continue;
    }
    const size_t word = bit / 64;
    const size_t shift = bit % 64;
    uint64_t v = packed[word] >> shift;
    if (shift + width > 64) v |= packed[word + 1] << (64 - shift);
    if (width < 64) v &= (uint64_t{1} << width) - 1;
    key[w] = v;
    bit += width;
  }
}

size_t ShardedStateStore::CommitStaged(std::vector<Staging>* chunks,
                                       size_t num_chunks, ThreadPool* pool) {
  // The retire boundary is the shard occupancy at the *first* commit
  // since the last RetireExpanded: a level commits one batch per window,
  // all of which belong to the same (unexpanded) frontier.
  if (!retire_base_valid_) {
    retire_base_.resize(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      retire_base_[s] = static_cast<uint32_t>(shards_[s].parents.size());
    }
    retire_base_valid_ = true;
  }
  const bool compact =
      options_.encoding == StoreOptions::KeyEncoding::kCompact;
  // Staging sequence of chunk c's ordinal o is chunk_base[c] + o: exactly
  // the order a serial loop over chunks (= parents in id order) would
  // have called Intern.
  size_t total = 0;
  std::vector<size_t> chunk_base(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    chunk_base[c] = total;
    total += (*chunks)[c].count_;
  }
  if (total == 0) return 0;
  fresh_marks_.assign(total, kDuplicate);

  // Phase 1 (parallel over shards): per-shard dedup in staging order.
  // Shard s touches only its own arenas/table and disjoint fresh_marks_
  // entries, so shards are embarrassingly parallel.
  auto commit_shard = [&](size_t shard_begin, size_t shard_end,
                          int /*worker*/) {
    const size_t kTupleWords = static_cast<size_t>(stored_words_) + aux_words_;
    for (size_t s = shard_begin; s < shard_end; ++s) {
      Shard& shard = shards_[s];
      for (size_t c = 0; c < num_chunks; ++c) {
        const Staging& staging = (*chunks)[c];
        const std::vector<uint64_t>& words = staging.words_[s];
        const std::vector<Staging::Pending>& pending = staging.pending_[s];
        for (size_t t = 0; t < pending.size(); ++t) {
          const Staging::Pending& p = pending[t];
          const uint64_t* key_aux = words.data() + t * kTupleWords;
          if ((shard.parents.size() + 1) * 2 > shard.slots.size()) {
            GrowShard(&shard);
          }
          size_t pos = p.hash & shard.slot_mask;
          bool hit = false;
          while (true) {
            uint32_t local = shard.slots[pos];
            if (local == kNoId) break;
            // Fingerprint identity in kCompact: hash-equal is a (possibly
            // colliding) duplicate. kPlain confirms on the full key.
            if (shard.hashes[local] == p.hash &&
                (compact ||
                 std::memcmp(shard.keys.data() +
                                 static_cast<size_t>(local) * stored_words_,
                             key_aux, stored_words_ * sizeof(uint64_t)) == 0)) {
              hit = true;
              break;
            }
            pos = (pos + 1) & shard.slot_mask;
          }
          if (hit) continue;
          const uint32_t local = AppendToShard(&shard, key_aux, p);
          shard.hashes.push_back(p.hash);
          shard.slots[pos] = local;
          fresh_marks_[chunk_base[c] + p.ordinal] =
              Pack(static_cast<uint32_t>(s), local);
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(shards_.size(), 1, commit_shard);
  } else {
    commit_shard(0, shards_.size(), 0);
  }

  // Phase 2 (serial rank): allocate dense global ids to the fresh states
  // in staging order — the step that pins down the serial-identical id
  // sequence. One word read per staged tuple.
  const size_t before = index_.size();
  for (size_t seq = 0; seq < total; ++seq) {
    if (fresh_marks_[seq] != kDuplicate) index_.push_back(fresh_marks_[seq]);
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
  return index_.size() - before;
}

void ShardedStateStore::RetireExpanded() {
  if (!retire_base_valid_) return;
  const bool compact =
      options_.encoding == StoreOptions::KeyEncoding::kCompact;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    const uint32_t keep = retire_base_[s];
    shard.aux.erase(shard.aux.begin(),
                    shard.aux.begin() +
                        static_cast<size_t>(keep - shard.aux_base) *
                            aux_words_);
    shard.aux_base = keep;
    if (!compact) continue;
    shard.keys.erase(shard.keys.begin(),
                     shard.keys.begin() +
                         static_cast<size_t>(keep - shard.frontier_base) *
                             stored_words_);
    shard.frontier_base = keep;
  }
  retire_base_valid_ = false;
  generation_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t ShardedStateStore::StagingBytes(const Staging& staging) const {
  uint64_t bytes = 0;
  for (size_t s = 0; s < staging.words_.size(); ++s) {
    bytes += staging.words_[s].size() * sizeof(uint64_t) +
             staging.pending_[s].size() * sizeof(Staging::Pending);
  }
  return bytes;
}

std::vector<GlobalNode> ShardedStateStore::PathFromRoot(uint32_t id) const {
  std::vector<GlobalNode> path;
  uint32_t cur = id;
  while (true) {
    const Slot s = Unpack(index_[cur]);
    const ParentLink& link = shards_[s.shard].parents[s.local];
    if (link.parent == kNoId) break;
    path.push_back(GlobalNode{link.move_txn, link.move_node});
    cur = link.parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

StoreMemoryStats ShardedStateStore::MemoryStats() const {
  StoreMemoryStats m;
  m.link_bytes = index_.capacity() * sizeof(uint64_t) +
                 fresh_marks_.capacity() * sizeof(uint64_t);
  for (const Shard& shard : shards_) {
    m.arena_bytes += shard.keys.capacity() * sizeof(uint64_t) +
                     shard.aux.capacity() * sizeof(uint64_t) +
                     shard.hashes.capacity() * sizeof(uint64_t);
    m.probe_bytes += shard.slots.capacity() * sizeof(uint32_t);
    m.link_bytes += shard.parents.capacity() * sizeof(ParentLink);
  }
  return m;
}

}  // namespace wydb
