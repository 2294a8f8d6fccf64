// The seed implementation of the exact searches, kept as the test oracle.
//
// Heap-copied states in hash containers, full move rescans per state, and
// (for Lemma 1) the conflict digraph rebuilt and FindCycle rerun from
// scratch at every state: slow, but independent of the StateSpace
// incremental expansion, the sharded store and the level-synchronous
// driver that every library engine shares. Verdicts, witnesses and
// states_visited of SearchEngine::kIncremental and kParallelSharded must
// match these bit for bit (the serial FIFO pop order is the contract).
//
// Only `mode` and `max_states` of the options are honoured; the engine,
// thread, store and deadline fields are ignored. Reports carry no memory
// counters (there is no instrumented store).
#ifndef WYDB_TESTS_REFERENCE_SEARCH_H_
#define WYDB_TESTS_REFERENCE_SEARCH_H_

#include "analysis/deadlock_checker.h"
#include "analysis/safety_checker.h"
#include "common/result.h"
#include "core/system.h"

namespace wydb {
namespace reference {

/// Theorem 1 by breadth-first search over execution states.
Result<DeadlockReport> CheckDeadlockFreedom(
    const TransactionSystem& sys, const DeadlockCheckOptions& options = {});

/// Lemma 1 by breadth-first search over (state, conflict-arc set) pairs.
Result<SafetyReport> CheckSafeAndDeadlockFree(
    const TransactionSystem& sys, const SafetyCheckOptions& options = {});

/// Safety alone: cyclic partial schedules count only when completable.
Result<SafetyReport> CheckSafety(const TransactionSystem& sys,
                                 const SafetyCheckOptions& options = {});

}  // namespace reference
}  // namespace wydb

#endif  // WYDB_TESTS_REFERENCE_SEARCH_H_
