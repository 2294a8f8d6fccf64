// Identical-copy systems (Section 5, Corollary 3 and Theorem 5).
//
// Corollary 3: two copies of a distributed transaction T are safe and
// deadlock-free iff some entity x has Lx preceding every other node of T,
// and every other entity y has some z locked before Ly and unlocked after
// Ly. Theorem 5 lifts this to ANY number of copies. (Deadlock-freedom
// alone does NOT lift: Fig. 6 shows 3 copies that deadlock although 2
// cannot.)
#ifndef WYDB_ANALYSIS_COPIES_ANALYZER_H_
#define WYDB_ANALYSIS_COPIES_ANALYZER_H_

#include <string>

#include "common/result.h"
#include "core/system.h"
#include "core/transaction.h"

namespace wydb {

struct CopiesVerdict {
  bool safe_and_deadlock_free = false;
  /// The entity whose lock precedes everything (Corollary 3's x), or
  /// kInvalidEntity.
  EntityId first_entity = kInvalidEntity;
  /// When failing: the uncovered entity, if that is the reason.
  EntityId offending_entity = kInvalidEntity;
  std::string explanation;
};

/// Corollary 3 test, directly on the syntax of T. O(n^2) with the closure.
CopiesVerdict CheckTwoCopies(const Transaction& t);

/// Theorem 5: d >= 2 copies are safe+DF iff two copies are. d < 2 is
/// trivially safe+DF.
CopiesVerdict CheckCopies(const Transaction& t, int d);

/// Materializes a system of d copies of `t` (named "<name>_1".."<name>_d", names a .wydb file can hold) for
/// cross-validation against the exact checkers.
Result<TransactionSystem> MakeCopies(const Transaction& t, int d);

/// Cross-validation bridge to the replicated traffic engine: d identical
/// transaction copies of `t` plus a round-robin data placement of the
/// given degree over t's database.
///
/// The CheckCopies verdict is placement-independent: the engine's
/// write-all protocol serializes every entity on its primary copy, so
/// the reachable wait-for states over primaries are exactly those of the
/// single-copy system, and secondary-copy waits always resolve (in-flight
/// release) — see DESIGN.md §6. Hence `certified` below predicts the
/// replicated runtime for ANY degree, which tests/replication_test.cc
/// drives empirically.
struct ReplicatedCopies {
  TransactionSystem system;
  CopyPlacement placement;
  /// The syntactic Theorem 5 verdict for the transaction copies.
  CopiesVerdict verdict;
};
Result<ReplicatedCopies> MakeReplicatedCopies(const Transaction& t, int d,
                                              int degree);

}  // namespace wydb

#endif  // WYDB_ANALYSIS_COPIES_ANALYZER_H_
