// The list-then-test Theorem 4 analyzer, kept as the oracle of the pruned
// path search in analysis/multi_analyzer.cc: every simple cycle of the
// interaction graph is listed first (Johnson's algorithm, via
// SimpleCycles), then all 2k direction x rotation variants of each are
// tested with every canonical prefix recomputed from scratch.
#include <algorithm>

#include "common/string_util.h"
#include "core/prefix.h"
#include "tests/johnson.h"
#include "tests/reference_search.h"

namespace wydb {
namespace reference {
namespace {

// Linear extension of the prefix (a downward-closed node mask) of `t`,
// obtained by filtering a topological order of the whole transaction.
std::vector<NodeId> PrefixExtension(const Transaction& t,
                                    const std::vector<uint64_t>& mask) {
  std::vector<NodeId> out;
  for (NodeId v : t.SomeLinearExtension()) {
    if (bitmask::Test(mask, v)) out.push_back(v);
  }
  return out;
}

// Entities of the given transactions whose access CONFLICTS with
// `target`'s own access of them (at least one side exclusive). The
// canonical-prefix construction only needs T* to avoid CONFLICTING
// contact with the rest of the cycle: an entity both sides merely read
// neither blocks nor draws an arc, so truncating T* at it would lose
// violations. For X-only systems this is the paper's full entity union
// (entities `target` never accesses are dropped too, which
// MaximalPrefixAvoiding ignores anyway).
std::vector<EntityId> ConflictingEntityUnion(const TransactionSystem& sys,
                                             int target,
                                             const std::vector<int>& txns) {
  const Transaction& tt = sys.txn(target);
  std::vector<EntityId> out;
  for (int i : txns) {
    const Transaction& t = sys.txn(i);
    for (EntityId e : t.entities()) {
      if (tt.ConflictsOn(e, t.LockModeOf(e))) out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Result<MultiReport> CheckSystemSafeAndDeadlockFree(
    const TransactionSystem& sys, const MultiCheckOptions& options) {
  MultiReport report;
  const int n = sys.num_transactions();

  // Step 1: all pairs safe+DF; remember dominating entities.
  // dom[i][j] is only meaningful when i and j share entities.
  std::vector<std::vector<EntityId>> dom(
      n, std::vector<EntityId>(n, kInvalidEntity));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      auto verdict = CheckPairTheorem3(sys.txn(i), sys.txn(j));
      if (!verdict.ok()) return verdict.status();
      if (!verdict->safe_and_deadlock_free) {
        report.safe_and_deadlock_free = false;
        MultiViolation v;
        v.failed_pair = {i, j};
        v.pair_verdict = *verdict;
        report.violation = std::move(v);
        return report;
      }
      dom[i][j] = dom[j][i] = verdict->dominating_entity;
    }
  }

  // Step 2: enumerate interaction-graph cycles.
  std::vector<std::vector<NodeId>> cycles = SimpleCycles(
      sys.InteractionGraph(),
      options.max_cycles == 0 ? 0 : options.max_cycles + 1);
  if (options.max_cycles != 0 &&
      static_cast<uint64_t>(cycles.size()) > options.max_cycles) {
    return Status::ResourceExhausted(StrFormat(
        "interaction graph has more than %llu simple cycles",
        static_cast<unsigned long long>(options.max_cycles)));
  }

  for (const std::vector<NodeId>& raw_cycle : cycles) {
    ++report.cycles_checked;
    const int k = static_cast<int>(raw_cycle.size());
    for (int direction = 0; direction < 2; ++direction) {
      std::vector<int> seq(raw_cycle.begin(), raw_cycle.end());
      if (direction == 1) std::reverse(seq.begin(), seq.end());
      for (int rot = 0; rot < k; ++rot) {
        ++report.variants_checked;
        // order[0..k-1] = T1..Tk, traversed so that arcs go
        // order[i] -> order[i+1] and order[k-1] is the last transaction.
        std::vector<int> order(k);
        for (int i = 0; i < k; ++i) order[i] = seq[(rot + i) % k];

        // Dominating entity x_i for each consecutive pair (mod k).
        std::vector<EntityId> x(k);
        bool pairs_share = true;
        for (int i = 0; i < k; ++i) {
          x[i] = dom[order[i]][order[(i + 1) % k]];
          if (x[i] == kInvalidEntity) {
            pairs_share = false;  // Not an edge of G(A); skip.
            break;
          }
        }
        if (!pairs_share) continue;

        // Canonical maximal prefixes.
        std::vector<std::vector<uint64_t>> prefix(k);
        // T1*: avoid conflicting entities of every cycle transaction
        // except T1, T2.
        {
          std::vector<int> others;
          for (int j = 2; j < k; ++j) others.push_back(order[j]);
          prefix[0] = MaximalPrefixAvoiding(
              sys.txn(order[0]), ConflictingEntityUnion(sys, order[0], others));
        }
        // Ti*: avoid the conflicting part of Y(T*_{i-1}) plus conflicting
        // entities of non-adjacent cycle transactions.
        for (int i = 1; i < k; ++i) {
          std::vector<int> others;
          for (int j = 0; j < k; ++j) {
            if (j == i - 1 || j == i || j == (i + 1) % k) continue;
            others.push_back(order[j]);
          }
          const Transaction& cur = sys.txn(order[i]);
          const Transaction& prev = sys.txn(order[i - 1]);
          std::vector<EntityId> avoid =
              ConflictingEntityUnion(sys, order[i], others);
          std::vector<EntityId> y = RemainingEntities(prev, prefix[i - 1]);
          std::erase_if(y, [&](EntityId e) {
            return !cur.ConflictsOn(e, prev.LockModeOf(e));
          });
          avoid.insert(avoid.end(), y.begin(), y.end());
          std::sort(avoid.begin(), avoid.end());
          avoid.erase(std::unique(avoid.begin(), avoid.end()), avoid.end());
          prefix[i] = MaximalPrefixAvoiding(cur, avoid);
        }

        // Property (3): every Ti* keeps its Lx_i step.
        bool all_lock = true;
        for (int i = 0; i < k; ++i) {
          NodeId lx = sys.txn(order[i]).LockNode(x[i]);
          if (!bitmask::Test(prefix[i], lx)) {
            all_lock = false;
            break;
          }
        }
        if (!all_lock) continue;

        // Violation: serial concatenation is a partial schedule with a
        // cyclic conflict digraph.
        MultiViolation v;
        v.cycle = order;
        for (int i = 0; i < k; ++i) {
          for (NodeId node : PrefixExtension(sys.txn(order[i]), prefix[i])) {
            v.witness.push_back(GlobalNode{order[i], node});
          }
        }
        report.safe_and_deadlock_free = false;
        report.violation = std::move(v);
        return report;
      }
    }
  }

  report.safe_and_deadlock_free = true;
  return report;
}

}  // namespace reference
}  // namespace wydb
