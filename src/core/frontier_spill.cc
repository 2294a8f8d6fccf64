#include "core/frontier_spill.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace wydb {

namespace {
// Chunks staged between watermark checks (and per read-back batch): with
// the engines' 64-state chunks this is 4096 states of staging in RAM at
// a time once a level starts spilling.
constexpr size_t kSpillWindowChunks = 64;
}  // namespace

FrontierStager::FrontierStager(ShardedStateStore* store, ThreadPool* pool,
                               uint64_t mem_budget_bytes,
                               size_t chunk_states)
    : store_(store),
      pool_(pool),
      budget_bytes_(mem_budget_bytes),
      chunk_states_(chunk_states),
      window_states_(mem_budget_bytes == 0
                         ? static_cast<size_t>(-1)
                         : kSpillWindowChunks * chunk_states) {}

FrontierStager::~FrontierStager() {
  if (file_ != nullptr) std::fclose(file_);
}

ShardedStateStore::Staging* FrontierStager::PrepareWindow(size_t states) {
  const size_t nchunks = (states + chunk_states_ - 1) / chunk_states_;
  if (chunks_.size() < chunks_used_ + nchunks) {
    chunks_.resize(chunks_used_ + nchunks);
  }
  window_first_ = chunks_used_;
  for (size_t c = 0; c < nchunks; ++c) {
    store_->ResetStaging(&chunks_[chunks_used_ + c]);
  }
  chunks_used_ += nchunks;
  return chunks_.data() + window_first_;
}

bool FrontierStager::EndWindow() {
  for (size_t c = window_first_; c < chunks_used_; ++c) {
    retained_bytes_ += store_->StagingBytes(chunks_[c]);
  }
  window_first_ = chunks_used_;
  if (budget_bytes_ == 0) return true;
  if (spilling_ ||
      store_->MemoryBytes() + retained_bytes_ > budget_bytes_) {
    return SpillRetained();
  }
  return true;
}

bool FrontierStager::SpillRetained() {
  if (file_ == nullptr) {
    file_ = std::tmpfile();
    if (file_ == nullptr) return false;
  }
  for (size_t c = 0; c < chunks_used_; ++c) {
    if (!store_->WriteStaging(file_, chunks_[c])) return false;
  }
  spilled_chunks_ += chunks_used_;
  chunks_used_ = 0;
  window_first_ = 0;
  retained_bytes_ = 0;
  spilling_ = true;
  return true;
}

bool FrontierStager::Commit() {
  if (spilled_chunks_ > 0) {
    // A spilling level spills every window, so nothing is retained in
    // RAM here and the file holds the whole level in chunk order.
    // Replay it in window-sized batches; sequential CommitStaged calls
    // in chunk order are id-identical to one big commit.
    if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
      return false;
    }
    size_t remaining = spilled_chunks_;
    while (remaining > 0) {
      const size_t n = std::min(kSpillWindowChunks, remaining);
      if (chunks_.size() < n) chunks_.resize(n);
      for (size_t c = 0; c < n; ++c) {
        if (!store_->ReadStaging(file_, &chunks_[c])) return false;
      }
      store_->CommitStaged(&chunks_, n, pool_);
      remaining -= n;
    }
    // Rewind for the next level; later writes overwrite in place.
    if (std::fseek(file_, 0, SEEK_SET) != 0) return false;
    ++spilled_levels_;
    spilled_chunks_ = 0;
    spilling_ = false;
  } else if (chunks_used_ > 0) {
    store_->CommitStaged(&chunks_, chunks_used_, pool_);
  }
  chunks_used_ = 0;
  window_first_ = 0;
  retained_bytes_ = 0;
  return true;
}

}  // namespace wydb
