// Exact deadlock-freedom decision (Theorem 1).
//
// Two equivalent formulations are implemented, both exploring the
// reachable execution states (= prefixes admitting a schedule):
//   * kStuckState:      look for a reachable, incomplete state with no
//                       legal move — a deadlock partial schedule.
//   * kReductionGraph:  look for a reachable prefix whose reduction graph
//                       is cyclic — a deadlock prefix (Theorem 1). This
//                       detects doom earlier but decides the same
//                       predicate; the equivalence is property-tested.
// Worst-case exponential — Theorem 2 proves this is unavoidable in general
// (coNP-completeness even for two transactions).
#ifndef WYDB_ANALYSIS_DEADLOCK_CHECKER_H_
#define WYDB_ANALYSIS_DEADLOCK_CHECKER_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "analysis/search_engine.h"
#include "common/result.h"
#include "core/prefix.h"
#include "core/schedule.h"
#include "core/state_store.h"
#include "core/system.h"

namespace wydb {

/// How DeadlockChecker recognizes a deadlock.
enum class DeadlockDetectionMode {
  kStuckState,
  kReductionGraph,
};

struct DeadlockCheckOptions {
  DeadlockDetectionMode mode = DeadlockDetectionMode::kStuckState;
  /// Abort with ResourceExhausted after visiting this many states
  /// (0 = unbounded).
  uint64_t max_states = 5'000'000;
  /// Search engine (analysis/search_engine.h).
  SearchEngine engine = SearchEngine::kIncremental;
  /// Worker threads for kParallelSharded and kReduced (kIncremental runs
  /// one). 0 = the WYDB_SEARCH_THREADS environment variable when set,
  /// else the hardware concurrency. Results are identical for every value.
  int search_threads = 0;
  /// Store key encoding (DESIGN.md §9): kPlain (exact) or kCompact
  /// (fingerprints, not exact). Every engine takes both except kCompact
  /// under kReduced (reduced witness replay reads ancestor keys, which
  /// compaction discards).
  StoreOptions store;
  /// Wall-clock abort point; default-constructed (epoch) = no deadline.
  /// Overruns return ResourceExhausted, like max_states. Checked once per
  /// level and once per worker chunk of 64 states.
  std::chrono::steady_clock::time_point deadline{};
};

/// Evidence that a system can deadlock.
struct DeadlockWitness {
  /// A partial schedule leading to the deadlock prefix / stuck state.
  Schedule schedule;
  /// The prefix executed by `schedule`.
  std::vector<std::vector<NodeId>> prefix_nodes;
  /// For kReductionGraph: the cycle found in R(A'), as "T.Lx -> ..." text.
  std::string reduction_cycle;
};

struct DeadlockReport {
  bool deadlock_free = false;
  std::optional<DeadlockWitness> witness;
  uint64_t states_visited = 0;
  /// Distinct states held by the search store when the verdict was
  /// reached — the memory-side cost metric behind `--stats`. On a
  /// deadlock-free run this is the full reachable-state count (the
  /// orbit-representative count under kReduced). On witness-bearing runs
  /// it counts the levels, and the windows of the witness level,
  /// committed before the witness window, which a serial pop loop would
  /// not reproduce.
  uint64_t states_interned = 0;
  /// Expansions skipped by kReduced's persistent-move (sleep-set)
  /// pruning; 0 for the exhaustive engines.
  uint64_t sleep_set_pruned = 0;
  /// Times the search consulted the wall clock against `deadline`
  /// (0 when no deadline was set): evidence that the budget was being
  /// enforced, surfaced by `--stats` and the server's `stats` verb. The
  /// count follows the polling cadence, so it depends on the thread count.
  uint64_t deadline_polls = 0;
  /// Memory-side cost metrics (--stats; DESIGN.md §9). Total store
  /// bytes, of which the key/aux/record arenas and the probe tables.
  uint64_t store_bytes = 0;
  uint64_t arena_bytes = 0;
  uint64_t probe_table_bytes = 0;
  /// Bytes staged in the largest committed window of the search
  /// (level_search.h): the bound on staging memory.
  uint64_t peak_staging_bytes = 0;
  /// False when the verdict came from a hash-compacted (fingerprint)
  /// search: sound for refutation, not a certificate. Witnesses replay
  /// concretely and stay trustworthy either way.
  bool exact = true;
  /// kCompact only: Stanford-bitstate-style expected collision
  /// probability bound, n(n-1)/2^65 for n interned fingerprints.
  double fingerprint_collision_bound = 0.0;
};

/// Decides deadlock-freedom of `sys` exactly.
Result<DeadlockReport> CheckDeadlockFreedom(
    const TransactionSystem& sys, const DeadlockCheckOptions& options = {});

/// Convenience: tests whether `prefix` is a deadlock prefix in the sense of
/// Section 3 — it admits a schedule AND its reduction graph is cyclic.
Result<bool> IsDeadlockPrefix(const TransactionSystem& sys,
                              const PrefixSet& prefix,
                              uint64_t max_states = 5'000'000);

}  // namespace wydb

#endif  // WYDB_ANALYSIS_DEADLOCK_CHECKER_H_
