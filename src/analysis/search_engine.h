// Engine selection knob shared by the exact checkers.
#ifndef WYDB_ANALYSIS_SEARCH_ENGINE_H_
#define WYDB_ANALYSIS_SEARCH_ENGINE_H_

namespace wydb {

/// Which configuration of the level-synchronous search (analysis/
/// level_search.h, DESIGN.md §7) backs an exact check. Every engine runs
/// the same driver over a ShardedStateStore; they differ in the expansion
/// and the thread count only. Verdicts, witnesses and states_visited of
/// kIncremental and kParallelSharded are bit-identical at every thread
/// count; kReduced agrees on every verdict.
enum class SearchEngine {
  /// Full expansion at one thread; the checker options' `search_threads`
  /// is ignored.
  kIncremental,
  /// Full expansion at `search_threads` workers: expansion and per-shard
  /// deduplication run on a work-stealing thread pool, and fresh states
  /// get dense ids by a deterministic staging-order rank.
  kParallelSharded,
  /// Commutativity- and symmetry-reduced expansion (DESIGN.md §8) at
  /// `search_threads` workers: sleep-set style persistent-move pruning
  /// (StateSpace::ExpandReducedInto) plus transaction-orbit
  /// canonicalization of state keys (core/symmetry). Every witness
  /// replays to a real stuck/unsafe state, but states_visited counts the
  /// *reduced* space — orders of magnitude smaller on symmetric
  /// workloads. Results are identical for every thread count.
  kReduced,
};

}  // namespace wydb

#endif  // WYDB_ANALYSIS_SEARCH_ENGINE_H_
