// Safety + deadlock-freedom of a transaction SYSTEM in time polynomial in
// the number of cycles of its interaction graph (Section 5, Theorem 4;
// O(n^2) for fixed transaction count, Corollary 4).
//
// Algorithm:
//   1. Every pair must pass the Theorem 3 test (else the system fails).
//   2. Each cycle of the interaction graph G(A), traversed in one direction
//      with one choice of "last transaction", is a closed ordered simple
//      path T1..Tk. For it, compute the canonical maximal prefixes
//      T1*,...,Tk* of the normal-form theorem; if every Ti* retains its
//      Lx_i step (x_i = dominating entity of the pair (Ti, Ti+1)), the
//      serial concatenation of the prefixes is a partial schedule with a
//      cyclic conflict digraph — a violation. The closed paths are not
//      listed: a depth-first search grows ordered simple paths T1..Tm,
//      tests the closing edge Tm -> T1 at every path with m >= 3, and cuts
//      a path as soon as some Ti* with a fixed successor (i < m) has lost
//      its Lx_i step. Growing a path only grows the set such a Ti* must
//      avoid, so no closed path below a cut can pass. The prefixes are kept
//      on a stack along the path and narrowed, not recomputed, when the
//      path grows. DESIGN.md §14 has the argument.
//   3. Otherwise the system is safe and deadlock-free.
#ifndef WYDB_ANALYSIS_MULTI_ANALYZER_H_
#define WYDB_ANALYSIS_MULTI_ANALYZER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pair_analyzer.h"
#include "common/result.h"
#include "core/schedule.h"
#include "core/system.h"

namespace wydb {

struct MultiCheckOptions {
  /// Refuse (ResourceExhausted) once the path search has visited more path
  /// nodes (MultiReport::path_nodes) than this (0 = unbounded). The name
  /// predates the path search, which replaced a list of simple cycles.
  uint64_t max_cycles = 1'000'000;
};

struct MultiViolation {
  /// For a failed pair: the two transaction indices and the pair verdict.
  std::optional<std::pair<int, int>> failed_pair;
  PairVerdict pair_verdict;

  /// For a cycle-based violation: the traversal order T1..Tk (Tk last).
  std::vector<int> cycle;
  /// The normal-form partial schedule S* whose D(S*) is cyclic.
  Schedule witness;
};

struct MultiReport {
  bool safe_and_deadlock_free = false;
  std::optional<MultiViolation> violation;
  /// Ordered simple paths T1..Tm (m >= 1) the search visited: the paths
  /// whose positions with a fixed successor all kept their Lx_i step.
  /// Bounded by MultiCheckOptions::max_cycles.
  uint64_t path_nodes = 0;
  /// Closed paths tested at their closing edge: each is one direction x
  /// rotation variant of one interaction-graph cycle.
  uint64_t variants_checked = 0;
  /// The tested closed paths in normal form (smallest member first, its
  /// smaller neighbour second), so a cycle counts at most once. A cycle
  /// whose normal-form variant was cut is not counted.
  uint64_t cycles_checked = 0;
};

Result<MultiReport> CheckSystemSafeAndDeadlockFree(
    const TransactionSystem& sys, const MultiCheckOptions& options = {});

/// The Section 6 remark, as API: deadlock-freedom alone is coNP-complete
/// even for fixed transaction counts (Theorem 2 via sites, [Y2] via
/// transaction count), BUT transactions locked by a safe policy (e.g.
/// two-phase locking [EGLT]) are safe by construction, and for a safe
/// system deadlock-freedom coincides with safety+deadlock-freedom — which
/// Theorem 4 decides in polynomial time for a fixed number of
/// transactions.
///
/// The caller asserts safety (e.g. all transactions two-phase locked);
/// the function merely re-labels the Theorem 4 verdict. Passing an unsafe
/// system yields a sound "not deadlock-free OR not safe" refutation but
/// the verdict can no longer be read as deadlock-freedom alone.
inline Result<MultiReport> CheckDeadlockFreedomAssumingSafe(
    const TransactionSystem& sys, const MultiCheckOptions& options = {}) {
  return CheckSystemSafeAndDeadlockFree(sys, options);
}

}  // namespace wydb

#endif  // WYDB_ANALYSIS_MULTI_ANALYZER_H_
