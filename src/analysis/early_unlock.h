// Early unlocking (the extension the paper points to via [W2], Wolfson's
// "An algorithm for early unlocking of entities in database transactions"):
// given a transaction system that is safe and deadlock-free, hoist Unlock
// steps earlier — shrinking the window each entity stays locked — while
// re-certifying safety+deadlock-freedom with the paper's polynomial tests
// after every move.
//
// The optimizer is greedy and conservative: it only commits a hoist when
// the Theorem 4 test still passes, so the output system carries the same
// certificate as the input. Currently supports totally-ordered
// transactions (sequences), the common case for workloads authored as
// programs; partially-ordered inputs are returned unchanged.
#ifndef WYDB_ANALYSIS_EARLY_UNLOCK_H_
#define WYDB_ANALYSIS_EARLY_UNLOCK_H_

#include <cstdint>

#include "common/result.h"
#include "core/system.h"

namespace wydb {

struct EarlyUnlockOptions {
  /// Passed through to the Theorem 4 re-certification: the path-node
  /// budget of each re-run (MultiCheckOptions::max_cycles).
  uint64_t max_cycles = 100'000;
  /// Upper bound on committed hoists (0 = unbounded); a safety valve for
  /// very large systems.
  uint64_t max_moves = 0;
};

struct EarlyUnlockResult {
  TransactionSystem system;  ///< The optimized (still certified) system.
  /// Sum over transactions and entities of (pos(Ux) - pos(Lx)) before and
  /// after — the paper's "amount of time entities are kept locked".
  int64_t holding_cost_before = 0;
  int64_t holding_cost_after = 0;
  uint64_t moves_committed = 0;
  uint64_t moves_rejected = 0;
  /// Transactions skipped because they are genuinely partial orders.
  int skipped_partial = 0;
};

/// Requires the input system to already be safe+deadlock-free (returns
/// FailedPrecondition otherwise — hoisting cannot repair an unsafe
/// system, only preserve a certificate).
Result<EarlyUnlockResult> OptimizeEarlyUnlock(
    const TransactionSystem& sys, const EarlyUnlockOptions& options = {});

/// The holding cost of one totally-ordered transaction (sum of per-entity
/// lock window lengths); -1 if the transaction is not a total order.
int64_t HoldingCost(const Transaction& t);

}  // namespace wydb

#endif  // WYDB_ANALYSIS_EARLY_UNLOCK_H_
