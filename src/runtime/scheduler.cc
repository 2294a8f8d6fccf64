#include "runtime/scheduler.h"

#include "graph/algorithms.h"

namespace wydb {

const char* ConflictPolicyName(ConflictPolicy policy) {
  switch (policy) {
    case ConflictPolicy::kBlock:
      return "block";
    case ConflictPolicy::kWoundWait:
      return "wound-wait";
    case ConflictPolicy::kWaitDie:
      return "wait-die";
    case ConflictPolicy::kDetect:
      return "detect";
  }
  return "unknown";
}

bool ParseConflictPolicy(const std::string& name, ConflictPolicy* out) {
  for (ConflictPolicy policy :
       {ConflictPolicy::kBlock, ConflictPolicy::kWoundWait,
        ConflictPolicy::kWaitDie, ConflictPolicy::kDetect}) {
    if (name == ConflictPolicyName(policy)) {
      *out = policy;
      return true;
    }
  }
  return false;
}

ConflictAction ResolveConflict(ConflictPolicy policy, uint64_t ts_requester,
                               uint64_t ts_holder) {
  switch (policy) {
    case ConflictPolicy::kBlock:
    case ConflictPolicy::kDetect:
      return ConflictAction::kWait;
    case ConflictPolicy::kWoundWait:
      // Older requester wounds the younger holder.
      return ts_requester < ts_holder ? ConflictAction::kAbortHolder
                                      : ConflictAction::kWait;
    case ConflictPolicy::kWaitDie:
      // Older requester may wait; younger requester dies.
      return ts_requester < ts_holder ? ConflictAction::kWait
                                      : ConflictAction::kAbortRequester;
  }
  return ConflictAction::kWait;
}

std::vector<NodeId> DeadlockVictims(const Digraph& wait_for,
                                    const std::vector<uint64_t>& timestamp) {
  std::vector<NodeId> victims;
  for (std::vector<NodeId> cycle = FindCycle(wait_for); !cycle.empty();
       cycle = FindCycle(wait_for, victims)) {
    NodeId victim = cycle.front();
    for (NodeId t : cycle) {
      if (timestamp[t] > timestamp[victim]) victim = t;
    }
    victims.push_back(victim);
  }
  return victims;
}

}  // namespace wydb
