#include "analysis/copies_analyzer.h"

#include "common/string_util.h"

namespace wydb {

CopiesVerdict CheckTwoCopies(const Transaction& t) {
  CopiesVerdict v;
  if (t.entities().size() <= 1) {
    // Zero or one entity: two copies just serialize on it.
    v.safe_and_deadlock_free = true;
    v.first_entity =
        t.entities().empty() ? kInvalidEntity : t.entities()[0];
    return v;
  }

  // Condition 1: some Lx precedes all other nodes.
  EntityId x = kInvalidEntity;
  for (EntityId cand : t.entities()) {
    NodeId lx = t.LockNode(cand);
    bool first = true;
    for (NodeId u = 0; u < t.num_steps() && first; ++u) {
      if (u != lx && !t.Precedes(lx, u)) first = false;
    }
    if (first) {
      x = cand;
      break;
    }
  }
  if (x == kInvalidEntity) {
    v.safe_and_deadlock_free = false;
    v.explanation = StrFormat(
        "no entity of '%s' is locked before all other steps (Corollary 3)",
        t.name().c_str());
    return v;
  }
  v.first_entity = x;

  // Condition 2: every other y is covered by some z with Lz < Ly < Uz.
  for (EntityId y : t.entities()) {
    if (y == x) continue;
    NodeId ly = t.LockNode(y);
    bool covered = false;
    for (EntityId z : t.entities()) {
      if (z == y) continue;
      if (t.Precedes(t.LockNode(z), ly) && t.Precedes(ly, t.UnlockNode(z))) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      v.safe_and_deadlock_free = false;
      v.offending_entity = y;
      v.explanation = StrFormat(
          "entity '%s' of '%s' has no cover: nothing is locked before L%s "
          "and unlocked after it (Corollary 3)",
          t.db().EntityName(y).c_str(), t.name().c_str(),
          t.db().EntityName(y).c_str());
      return v;
    }
  }
  v.safe_and_deadlock_free = true;
  return v;
}

CopiesVerdict CheckCopies(const Transaction& t, int d) {
  if (d < 2) {
    CopiesVerdict v;
    v.safe_and_deadlock_free = true;
    v.explanation = "fewer than two copies cannot interleave";
    return v;
  }
  // Theorem 5: the d-copy system is safe+DF iff the 2-copy system is.
  return CheckTwoCopies(t);
}

Result<TransactionSystem> MakeCopies(const Transaction& t, int d) {
  if (d < 1) return Status::InvalidArgument("need at least one copy");
  std::vector<Transaction> txns;
  txns.reserve(d);
  for (int i = 1; i <= d; ++i) {
    std::vector<Step> steps;
    steps.reserve(t.num_steps());
    std::vector<std::pair<int, int>> arcs;
    for (NodeId v = 0; v < t.num_steps(); ++v) steps.push_back(t.step(v));
    for (NodeId v = 0; v < t.num_steps(); ++v) {
      for (NodeId w : t.graph().OutNeighbors(v)) arcs.emplace_back(v, w);
    }
    auto copy = Transaction::Create(&t.db(),
                                    StrFormat("%s_%d", t.name().c_str(), i),
                                    std::move(steps), std::move(arcs));
    if (!copy.ok()) return copy.status();
    txns.push_back(std::move(*copy));
  }
  return TransactionSystem::Create(&t.db(), std::move(txns));
}

Result<ReplicatedCopies> MakeReplicatedCopies(const Transaction& t, int d,
                                              int degree) {
  if (degree < 1) return Status::InvalidArgument("need degree >= 1");
  Result<TransactionSystem> sys = MakeCopies(t, d);
  if (!sys.ok()) return sys.status();
  return ReplicatedCopies{std::move(*sys),
                          CopyPlacement::RoundRobin(t.db(), degree),
                          CheckCopies(t, d)};
}

}  // namespace wydb
