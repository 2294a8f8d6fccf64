// The one breadth-first search behind both exact checkers (DESIGN.md §7,
// §8).
//
// Theorem 1 (deadlock) and Lemma 1 (safety) both ask a question about
// the reachable prefixes of a system, and both checkers answer it with
// the same search: a FIFO BFS whose states get dense ids in discovery
// order. Such a BFS pops states in id order, so it is equivalent to
// processing the store one *level* at a time:
//
//   1. Scan (serial; policies that flag terminal states when they are
//      created): the flagged states of the level are decided in id order
//      — the first one the policy confirms is the witness, the others
//      are pruned.
//   2. Expand (parallel, work-stealing chunks of one window of the
//      level): generate each state's moves, test the policy's per-state
//      witness predicate (policies that recognize terminal states when
//      they are expanded), and stage every child into the chunk's
//      staging buffer.
//   3. Commit the window: ShardedStateStore dedups every shard in
//      parallel and ranks the fresh states in staging (= serial Intern)
//      order.
//
// Steps 2 and 3 alternate over fixed windows of kWindowStates states, so
// staging never holds more than one window's children. Sequential
// commits in chunk order are id-identical to one commit of the whole
// level (state_store.h), so the window size changes no id, parent or
// dedup decision; a level of at most one window is one expand and one
// commit.
//
// The witness with the smallest id wins, and the state budget is charged
// exactly as a serial pop counter would be (states_visited = witness + 1,
// or the end of the level), so verdicts, witnesses and states_visited are
// the same at every thread count. SearchEngine::kIncremental is this
// search at one thread.
//
// Two compile-time parameters keep the hot loop monomorphic:
//   * Expansion: kFull (ExpandInto + Stage) or kReduced (ExpandReducedInto
//     + the orbit canonicalizer + StageCanonical, DESIGN.md §8);
//   * the checker policy, which builds the root and each child and
//     recognizes terminal states. It provides
//
//       struct Scratch;                 // per-worker scratch
//       static constexpr bool kCreationFlags;
//       int key_words() const;  int aux_words() const;
//       std::vector<int> key_word_bits() const;  // low bits per key word
//       Scratch NewScratch() const;
//       void InitRoot(uint64_t* key, uint64_t* aux) const;
//       void MakeChild(Scratch&, const uint64_t* key, const uint64_t* aux,
//                      GlobalNode move, uint64_t* child_key,
//                      uint64_t* child_aux) const;
//
//     and, with kCreationFlags (terminal states flagged when staged),
//
//       bool Flagged(const uint64_t* aux) const;
//       Result<bool> Confirm(const uint64_t* key);  // serial; true = report
//
//     or, without (terminal states recognized when expanded),
//
//       bool IsWitness(const uint64_t* key,
//                      const std::vector<GlobalNode>& moves) const;
//
// Witness construction stays with each checker: it reads the finished
// store through store() and witness().
#ifndef WYDB_ANALYSIS_LEVEL_SEARCH_H_
#define WYDB_ANALYSIS_LEVEL_SEARCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "analysis/search_engine.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/state_space.h"
#include "core/state_store.h"

namespace wydb {

/// The resources and limits of one search, taken from the checker options.
struct LevelSearchLimits {
  /// Worker threads (0 = ResolveThreadCount's default).
  int threads = 1;
  StoreOptions store;
  /// ResourceExhausted once a serial pop counter would pass this (0 =
  /// unbounded).
  uint64_t max_states = 0;
  /// Default-constructed (epoch) = no deadline.
  std::chrono::steady_clock::time_point deadline{};
  /// Names the check in error texts ("deadlock", "safety").
  const char* check = "search";
};

/// The limits of `options` (either checker's options struct):
/// kIncremental runs one thread, the other engines `search_threads`.
template <typename Options>
LevelSearchLimits LimitsOf(const Options& options, const char* check) {
  LevelSearchLimits limits;
  limits.threads = options.engine == SearchEngine::kIncremental
                       ? 1
                       : options.search_threads;
  limits.store = options.store;
  limits.max_states = options.max_states;
  limits.deadline = options.deadline;
  limits.check = check;
  return limits;
}

/// The one store-mode rule left: hash compaction discards the ancestor
/// keys that reduced witness replay reads.
Status ValidateStoreOptions(const StoreOptions& store, SearchEngine engine);

enum class Expansion { kFull, kReduced };

/// Everything of the search that does not depend on the policy.
class LevelSearchBase {
 public:
  static constexpr uint32_t kNoWitness = ShardedStateStore::kNoId;

  LevelSearchBase(const LevelSearchBase&) = delete;
  LevelSearchBase& operator=(const LevelSearchBase&) = delete;

  /// The finished store (for witness reconstruction).
  const ShardedStateStore& store() const { return store_; }
  /// The minimum witness id, or kNoWitness when the space was exhausted.
  uint32_t witness() const { return witness_; }

  /// Fills the counters every report shares: states_visited,
  /// states_interned, sleep_set_pruned, deadline_polls and the --stats
  /// memory fields.
  template <typename Report>
  void FillReport(Report* report) const {
    report->states_visited = states_visited_;
    report->states_interned = store_.size();
    report->sleep_set_pruned = sleep_set_pruned_;
    report->deadline_polls = deadline_polls_;
    const StoreMemoryStats m = store_.MemoryStats();
    report->store_bytes = m.total();
    report->arena_bytes = m.arena_bytes;
    report->probe_table_bytes = m.probe_bytes;
    report->peak_staging_bytes = peak_staging_bytes_;
    if (store_.options().encoding == StoreOptions::KeyEncoding::kCompact) {
      report->exact = false;
      report->fingerprint_collision_bound = CollisionBound();
    }
  }

 protected:
  /// States per ParallelFor chunk (and per staging buffer).
  static constexpr size_t kChunkStates = 64;
  /// Chunks per window: a level is expanded and committed 4096 states at
  /// a time.
  static constexpr size_t kWindowChunks = 64;
  static constexpr size_t kWindowStates = kWindowChunks * kChunkStates;
  /// How often the serial flag scan polls the deadline, in states.
  static constexpr size_t kScanPollStride = 2048;

  LevelSearchBase(const LevelSearchLimits& limits, int key_words,
                  std::vector<int> key_word_bits, int aux_words,
                  const KeyCanonicalizer* canonicalizer);

  void InternRoot(const uint64_t* key, const uint64_t* aux);
  /// Serial deadline poll, counted in deadline_polls.
  bool DeadlinePassed();
  /// Worker poll at chunk entry: true once any worker saw the deadline
  /// pass, so the rest of the window is skipped.
  bool ChunkExpired();
  /// Folds the worker polls into deadline_polls; true if the window
  /// expired (its staged children must not be committed).
  bool EndWindowPolls();
  /// True when `pops` serial pops would exceed the budget.
  bool OverBudget(uint64_t pops) const {
    return limits_.max_states != 0 && pops > limits_.max_states;
  }
  Status BudgetError() const;
  Status DeadlineError() const;
  /// Records `id` as the witness, unless popping it exceeds the budget.
  Status Finish(uint32_t id);
  /// Commits the first `chunks` staging buffers of the window, in chunk
  /// order, and records their bytes in peak_staging_bytes.
  void CommitWindow(size_t chunks);
  void MarkExhausted() { states_visited_ = store_.size(); }

  const LevelSearchLimits limits_;
  ThreadPool pool_;
  ShardedStateStore store_;
  /// The window's kWindowChunks staging buffers, reused across windows
  /// and levels.
  std::vector<ShardedStateStore::Staging> window_;
  uint64_t sleep_set_pruned_ = 0;
  uint64_t peak_staging_bytes_ = 0;

 private:
  double CollisionBound() const;

  const bool has_deadline_;
  std::atomic<bool> deadline_hit_{false};
  std::atomic<uint64_t> worker_polls_{0};
  uint64_t deadline_polls_ = 0;
  uint64_t states_visited_ = 0;
  uint32_t witness_ = kNoWitness;
};

template <Expansion kExpansion, typename Policy>
class LevelSearch : public LevelSearchBase {
 public:
  /// `space` and `policy` must outlive the search. `canonicalizer` (kReduced
  /// only; null = no symmetry to exploit) is installed on the store.
  LevelSearch(const LevelSearchLimits& limits, const StateSpace& space,
              Policy* policy, const KeyCanonicalizer* canonicalizer = nullptr)
      : LevelSearchBase(limits, policy->key_words(),
                        policy->key_word_bits(), policy->aux_words(),
                        canonicalizer),
        space_(space),
        policy_(policy) {
    workers_.reserve(pool_.threads());
    for (int t = 0; t < pool_.threads(); ++t) {
      Worker& w = workers_.emplace_back(policy->NewScratch());
      w.key.resize(policy->key_words());
      w.aux.resize(policy->aux_words());
      w.moves.reserve(64);
    }
  }

  /// Runs the search to a witness or to exhaustion. Errors are
  /// ResourceExhausted (budget, deadline) or whatever the policy's
  /// Confirm returns.
  Status Run() {
    Status status = RunLevels();
    for (const Worker& w : workers_) sleep_set_pruned_ += w.pruned;
    return status;
  }

  /// Visits every worker's policy scratch (for per-worker counters).
  template <typename F>
  void ForEachScratch(F&& f) const {
    for (const Worker& w : workers_) f(w.scratch);
  }

 private:
  struct Worker {
    explicit Worker(typename Policy::Scratch s) : scratch(std::move(s)) {}
    typename Policy::Scratch scratch;
    std::vector<uint64_t> key;
    std::vector<uint64_t> aux;
    std::vector<GlobalNode> moves;
    ShardedStateStore::KeyDecodeCache decode;
    uint32_t witness = kNoWitness;  ///< Min witness id seen this level.
    uint64_t pruned = 0;
  };

  Status RunLevels();
  /// Phase 1: the flagged states of [begin, end), in id order.
  Result<uint32_t> ScanFlagged(size_t begin, size_t end);
  /// Phases 2 and 3: expands [begin, end) window by window, committing
  /// each window's children; returns the level's minimum witness.
  /// `stage` false skips the children (the level is the budget's last).
  Result<uint32_t> ExpandLevel(size_t begin, size_t end, bool stage);
  void ExpandChunk(Worker& w, ShardedStateStore::Staging& staging,
                   size_t begin, size_t end, bool stage);

  const StateSpace& space_;
  Policy* const policy_;
  std::vector<Worker> workers_;
  ShardedStateStore::KeyDecodeCache scan_decode_;
};

template <Expansion kExpansion, typename Policy>
Status LevelSearch<kExpansion, Policy>::RunLevels() {
  {
    std::vector<uint64_t> key(policy_->key_words(), 0);
    std::vector<uint64_t> aux(policy_->aux_words(), 0);
    policy_->InitRoot(key.data(), aux.data());
    InternRoot(key.data(), aux.data());
  }
  size_t level_begin = 0;
  while (level_begin < store_.size()) {
    if (DeadlinePassed()) return DeadlineError();
    const size_t level_end = store_.size();
    // Popping this whole level exceeds the budget, so the search can only
    // end inside it: with a witness whose id fits, or ResourceExhausted.
    // Its children are never observed.
    const bool last_level = OverBudget(level_end);
    uint32_t witness = kNoWitness;
    if constexpr (Policy::kCreationFlags) {
      WYDB_ASSIGN_OR_RETURN(witness, ScanFlagged(level_begin, level_end));
      if (witness != kNoWitness) return Finish(witness);
      if (last_level) return BudgetError();
    }
    WYDB_ASSIGN_OR_RETURN(witness,
                          ExpandLevel(level_begin, level_end, !last_level));
    if (witness != kNoWitness) return Finish(witness);
    if (last_level) return BudgetError();
    // Every level below the frontier has been fully expanded: drop its
    // aux words (an expansion cache), and under hash compaction its keys.
    store_.RetireExpanded();
    level_begin = level_end;
  }
  MarkExhausted();
  return Status::OK();
}

template <Expansion kExpansion, typename Policy>
Result<uint32_t> LevelSearch<kExpansion, Policy>::ScanFlagged(size_t begin,
                                                              size_t end) {
  for (size_t id = begin; id < end; ++id) {
    if ((id - begin) % kScanPollStride == kScanPollStride - 1 &&
        DeadlinePassed()) {
      return DeadlineError();
    }
    if (!policy_->Flagged(store_.AuxOf(static_cast<uint32_t>(id)))) continue;
    // The serial pop of `id` charges the budget before deciding it.
    if (OverBudget(id + 1)) return BudgetError();
    WYDB_ASSIGN_OR_RETURN(
        bool report, policy_->Confirm(store_.KeyView(
                         static_cast<uint32_t>(id), &scan_decode_)));
    if (report) return static_cast<uint32_t>(id);
  }
  return kNoWitness;
}

template <Expansion kExpansion, typename Policy>
Result<uint32_t> LevelSearch<kExpansion, Policy>::ExpandLevel(size_t begin,
                                                              size_t end,
                                                              bool stage) {
  for (Worker& w : workers_) w.witness = kNoWitness;
  // Ids ascend across windows, so the first window holding a witness
  // holds the level's minimum. Neither it nor any later window is
  // committed: children of the witness level are never observed.
  uint32_t witness = kNoWitness;
  for (size_t base = begin; base < end; base += kWindowStates) {
    const size_t count = std::min(kWindowStates, end - base);
    const size_t chunks = (count + kChunkStates - 1) / kChunkStates;
    const bool stage_window = stage && witness == kNoWitness;
    if (stage_window) {
      for (size_t c = 0; c < chunks; ++c) store_.ResetStaging(&window_[c]);
    }
    pool_.ParallelFor(count, kChunkStates,
                      [&](size_t b, size_t e, int worker) {
                        if (ChunkExpired()) return;  // Window aborts below.
                        ExpandChunk(workers_[worker], window_[b / kChunkStates],
                                    base + b, base + e, stage_window);
                      });
    for (const Worker& w : workers_) witness = std::min(witness, w.witness);
    // Skipped chunks may hide the minimum witness, so an expired window
    // reports the deadline, never a possibly-non-minimal witness.
    if (EndWindowPolls()) return DeadlineError();
    if (witness == kNoWitness) {
      if (stage) CommitWindow(chunks);
      continue;
    }
    // The reduced expansion runs the windows past the witness without
    // staging, because its sleep_set_pruned count covers the whole level
    // at every thread count.
    if constexpr (kExpansion == Expansion::kFull) break;
  }
  return witness;
}

template <Expansion kExpansion, typename Policy>
void LevelSearch<kExpansion, Policy>::ExpandChunk(
    Worker& w, ShardedStateStore::Staging& staging, size_t begin, size_t end,
    bool stage) {
  for (size_t i = begin; i < end; ++i) {
    const uint32_t id = static_cast<uint32_t>(i);
    // Past a witness this worker found, a state can neither lower the
    // level's minimum nor be observed. The reduced expansion still runs
    // to the level end, because its sleep_set_pruned count covers the
    // whole level at every thread count.
    if (kExpansion == Expansion::kFull && id > w.witness) return;
    const uint64_t* aux = store_.AuxOf(id);
    if constexpr (Policy::kCreationFlags) {
      if (policy_->Flagged(aux)) continue;  // Pruned by the scan.
    }
    const uint64_t* key = store_.KeyView(id, &w.decode);
    w.moves.clear();
    if constexpr (kExpansion == Expansion::kReduced) {
      // An empty reduced expansion still means "stuck" (§8.1), so the
      // witness predicates need no change.
      w.pruned += space_.ExpandReducedInto(key, aux, &w.moves);
    } else {
      space_.ExpandInto(aux, &w.moves);
    }
    if constexpr (!Policy::kCreationFlags) {
      if (policy_->IsWitness(key, w.moves)) {
        // Children of a witness are never observed; its window is never
        // committed.
        w.witness = std::min(w.witness, id);
        continue;
      }
    }
    if (!stage) continue;
    for (GlobalNode g : w.moves) {
      policy_->MakeChild(w.scratch, key, aux, g, w.key.data(), w.aux.data());
      if constexpr (kExpansion == Expansion::kReduced) {
        store_.StageCanonical(&staging, w.key.data(), w.aux.data(), id, g);
      } else {
        store_.Stage(&staging, w.key.data(), w.aux.data(), id, g);
      }
    }
  }
}

}  // namespace wydb

#endif  // WYDB_ANALYSIS_LEVEL_SEARCH_H_
