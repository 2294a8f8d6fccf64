#include "analysis/level_search.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/string_util.h"

namespace wydb {

Status ValidateStoreOptions(const StoreOptions& store, SearchEngine engine) {
  if (store.encoding == StoreOptions::KeyEncoding::kCompact &&
      engine == SearchEngine::kReduced) {
    return Status::InvalidArgument(
        "hash compaction requires the parallel engine: reduced witness "
        "replay reads ancestor keys, which compaction discards");
  }
  return Status::OK();
}

LevelSearchBase::LevelSearchBase(const LevelSearchLimits& limits,
                                 int key_words,
                                 std::vector<int> key_word_bits,
                                 int aux_words,
                                 const KeyCanonicalizer* canonicalizer)
    : limits_(limits),
      pool_(limits.threads),
      // Shard count never changes a result, only cost. Four per worker;
      // at one worker, two: one shard measured slower (its arenas regrow
      // in large copies), and four left a server ~12% more resident
      // memory (more mid-size allocations to fragment the heap).
      store_(key_words, aux_words,
             /*num_shards=*/pool_.threads() == 1 ? 2 : 4 * pool_.threads(),
             limits.store, std::move(key_word_bits)),
      window_(kWindowChunks),
      has_deadline_(limits.deadline !=
                    std::chrono::steady_clock::time_point{}) {
  store_.set_canonicalizer(canonicalizer);
}

void LevelSearchBase::InternRoot(const uint64_t* key, const uint64_t* aux) {
  // The empty state is its own canonical form.
  const uint32_t root = store_.InternRoot(key);
  std::memcpy(store_.MutableAuxOf(root), aux,
              store_.aux_words() * sizeof(uint64_t));
}

bool LevelSearchBase::DeadlinePassed() {
  if (!has_deadline_) return false;
  ++deadline_polls_;
  return std::chrono::steady_clock::now() >= limits_.deadline;
}

bool LevelSearchBase::ChunkExpired() {
  // A per-level poll alone would let one oversized level outrun the
  // budget by its whole expansion time.
  if (!has_deadline_) return false;
  if (deadline_hit_.load(std::memory_order_relaxed)) return true;
  worker_polls_.fetch_add(1, std::memory_order_relaxed);
  if (std::chrono::steady_clock::now() >= limits_.deadline) {
    deadline_hit_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool LevelSearchBase::EndWindowPolls() {
  deadline_polls_ += worker_polls_.exchange(0, std::memory_order_relaxed);
  return deadline_hit_.load(std::memory_order_relaxed);
}

Status LevelSearchBase::BudgetError() const {
  return Status::ResourceExhausted(
      StrFormat("%s check exceeded %llu states", limits_.check,
                static_cast<unsigned long long>(limits_.max_states)));
}

Status LevelSearchBase::DeadlineError() const {
  return Status::ResourceExhausted(
      StrFormat("%s check deadline exceeded", limits_.check));
}

Status LevelSearchBase::Finish(uint32_t id) {
  if (OverBudget(static_cast<uint64_t>(id) + 1)) return BudgetError();
  witness_ = id;
  states_visited_ = static_cast<uint64_t>(id) + 1;
  return Status::OK();
}

void LevelSearchBase::CommitWindow(size_t chunks) {
  uint64_t bytes = 0;
  for (size_t c = 0; c < chunks; ++c) bytes += store_.StagingBytes(window_[c]);
  peak_staging_bytes_ = std::max(peak_staging_bytes_, bytes);
  store_.CommitStaged(&window_, chunks, &pool_);
}

double LevelSearchBase::CollisionBound() const {
  // Fingerprint identity can merge distinct states, so a positive verdict
  // is not a certificate; the expected number of colliding pairs among n
  // 64-bit fingerprints is <= n(n-1)/2^65.
  const double n = static_cast<double>(store_.size());
  return std::ldexp(n * (n - 1.0), -65);
}

}  // namespace wydb
