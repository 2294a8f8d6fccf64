// Exact safety and safety+deadlock-freedom decisions (Lemma 1).
//
// Lemma 1: a system is safe AND deadlock-free iff the conflict digraph
// D(S') of every partial schedule S' is acyclic. The checker explores
// reachable (state, conflict-arc-set) pairs; a reachable cyclic D(S') is a
// violation witness. Pure safety additionally requires the violating
// schedule to be completable.
//
// Exponential in the worst case; the polynomial algorithms of Section 5
// (PairAnalyzer, MultiAnalyzer) are the paper's contribution — this module
// is their ground-truth oracle at small sizes.
#ifndef WYDB_ANALYSIS_SAFETY_CHECKER_H_
#define WYDB_ANALYSIS_SAFETY_CHECKER_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "analysis/search_engine.h"
#include "common/result.h"
#include "core/schedule.h"
#include "core/state_store.h"
#include "core/system.h"

namespace wydb {

struct SafetyCheckOptions {
  uint64_t max_states = 5'000'000;  ///< 0 = unbounded.
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
  /// level, once per worker chunk of 64 states, and every 2048 states of
  /// the serial cycle-flag scan.
  std::chrono::steady_clock::time_point deadline{};
  /// Incremental-recertification gate (docs/SERVE.md): when >= 0, names
  /// a transaction T such that the system minus T is already known safe
  /// and deadlock-free. Any reachable cyclic D(S') then has a step of T
  /// executed, so cycle tests are skipped (and their cost saved) for
  /// children of T-idle states reached by non-T moves. Sound ONLY under
  /// that precondition; requires full expansion (kIncremental or
  /// kParallelSharded: kReduced permutes the transaction blocks) and
  /// CheckSafeAndDeadlockFree (rejected elsewhere). The verdict is
  /// bit-identical to a full run at every thread count.
  int delta_txn = -1;
};

struct SafetyViolation {
  /// A partial (for safe+DF) or complete (for safety) schedule whose
  /// conflict digraph is cyclic.
  Schedule schedule;
  /// The D(S') cycle, as transaction indices.
  std::vector<int> txn_cycle;
};

struct SafetyReport {
  bool holds = false;  ///< The checked property (see function) holds.
  std::optional<SafetyViolation> violation;
  uint64_t states_visited = 0;
  /// Distinct (state, arc-set) pairs held by the search store when the
  /// verdict was reached (orbit representatives only under kReduced) —
  /// the memory-side cost metric behind `--stats`. The full reachable
  /// count when the property holds; on violation runs it counts the
  /// levels, and the windows of the violation's level, committed before
  /// the violation's window.
  uint64_t states_interned = 0;
  /// Expansions skipped by kReduced's persistent-move (sleep-set)
  /// pruning; 0 for the exhaustive engines.
  uint64_t sleep_set_pruned = 0;
  /// Cycle tests elided by the delta_txn gate; 0 unless delta_txn >= 0.
  /// On violation runs it depends on how far the final level got.
  uint64_t delta_skipped_tests = 0;
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
  /// search: sound for refutation, not a certificate. Violations replay
  /// concretely and stay trustworthy either way.
  bool exact = true;
  /// kCompact only: Stanford-bitstate-style expected collision
  /// probability bound, n(n-1)/2^65 for n interned fingerprints.
  double fingerprint_collision_bound = 0.0;
};

/// Decides "safe and deadlock-free" exactly via Lemma 1.
Result<SafetyReport> CheckSafeAndDeadlockFree(
    const TransactionSystem& sys, const SafetyCheckOptions& options = {});

/// Decides safety alone: every *complete* schedule serializable.
Result<SafetyReport> CheckSafety(const TransactionSystem& sys,
                                 const SafetyCheckOptions& options = {});

}  // namespace wydb

#endif  // WYDB_ANALYSIS_SAFETY_CHECKER_H_
