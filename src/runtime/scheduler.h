// Deadlock-handling policies for the runtime, including the classic
// timestamp baselines of Rosenkrantz, Stearns & Lewis [RSL] that the
// paper's static approach is an alternative to.
#ifndef WYDB_RUNTIME_SCHEDULER_H_
#define WYDB_RUNTIME_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"

namespace wydb {

/// What the runtime does when a lock request conflicts.
enum class ConflictPolicy {
  /// Pure blocking: wait until the lock table grants the request (by the
  /// model's rule, DESIGN.md §11.5). Deadlocks can happen; a system
  /// statically certified safe+DF by the paper's algorithms never
  /// deadlocks under this policy.
  kBlock,
  /// Wound-wait [RSL]: an older requester wounds (aborts) a younger
  /// holder; a younger requester waits. Deadlock-free, restarts instead.
  kWoundWait,
  /// Wait-die [RSL]: an older requester waits; a younger requester dies
  /// (aborts itself). Deadlock-free, restarts instead.
  kWaitDie,
  /// Block, but run a global wait-for-graph cycle detector whenever the
  /// system quiesces, aborting the youngest transaction on each cycle.
  kDetect,
};

const char* ConflictPolicyName(ConflictPolicy policy);

/// Inverse of ConflictPolicyName ("block", "wound-wait", "wait-die",
/// "detect"); false if the name is unknown.
bool ParseConflictPolicy(const std::string& name, ConflictPolicy* out);

/// Resolution of a single conflict under a timestamp policy.
enum class ConflictAction {
  kWait,
  kAbortRequester,
  kAbortHolder,
};

/// Applies the policy given the transactions' (immutable, assigned-once)
/// timestamps. Smaller timestamp = older transaction.
ConflictAction ResolveConflict(ConflictPolicy policy, uint64_t ts_requester,
                               uint64_t ts_holder);

/// kDetect victims for a wait-for snapshot (arc waiter -> holder, nodes
/// are transactions): the youngest transaction on a cycle, repeated with
/// the victims removed until no cycle is left. Breaking only one cycle
/// per pass can livelock under shared locks: a writer may wait on two
/// readers, each on a cycle with it, and a victim that restarts as a
/// reader is granted past the writer again and re-forms its cycle. With
/// exclusive locks alone each waiter waits on one holder, so the cycles
/// are disjoint. Empty when the snapshot is acyclic.
std::vector<NodeId> DeadlockVictims(const Digraph& wait_for,
                                    const std::vector<uint64_t>& timestamp);

}  // namespace wydb

#endif  // WYDB_RUNTIME_SCHEDULER_H_
