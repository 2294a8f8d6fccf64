#include "tests/reference_search.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"
#include "core/reduction_graph.h"
#include "core/state_space.h"
#include "graph/algorithms.h"

namespace wydb {
namespace reference {
namespace {

Status BudgetError(const char* check, uint64_t max_states) {
  return Status::ResourceExhausted(
      StrFormat("%s check exceeded %llu states", check,
                static_cast<unsigned long long>(max_states)));
}

std::vector<std::vector<NodeId>> PrefixNodesOf(const StateSpace& space,
                                               const ExecState& s) {
  const TransactionSystem& sys = space.system();
  std::vector<std::vector<NodeId>> out(sys.num_transactions());
  for (int i = 0; i < sys.num_transactions(); ++i) {
    for (NodeId v = 0; v < sys.txn(i).num_steps(); ++v) {
      if (space.IsExecuted(s, i, v)) out[i].push_back(v);
    }
  }
  return out;
}

/// FIFO breadth-first search over hashed states: parent links in a map,
/// the schedule to a state rebuilt by chasing them back to the root.
template <typename State, typename Hash>
class Bfs {
 public:
  explicit Bfs(State root) : root_(root) {
    queue_.push_back(root);
    visited_.insert(std::move(root));
  }

  bool Done() const { return head_ >= queue_.size(); }
  /// Pops the next state (by value: the queue may grow while it is used).
  State Pop() { return queue_[head_++]; }
  void Push(const State& parent, GlobalNode g, State child) {
    if (!visited_.insert(child).second) return;
    parent_.emplace(child, std::make_pair(parent, g));
    queue_.push_back(std::move(child));
  }
  size_t interned() const { return visited_.size(); }

  Schedule PathTo(const State& state) const {
    Schedule rev;
    State cur = state;
    while (!(cur == root_)) {
      auto it = parent_.find(cur);
      rev.push_back(it->second.second);
      cur = it->second.first;
    }
    return Schedule(rev.rbegin(), rev.rend());
  }

 private:
  const State root_;
  std::unordered_set<State, Hash> visited_;
  std::unordered_map<State, std::pair<State, GlobalNode>, Hash> parent_;
  std::vector<State> queue_;
  size_t head_ = 0;
};

// Lemma search state: executed steps plus the arc set of D(S') packed as
// an n*n bitmask appended to the exec words (arc i->j at bit i*n + j).
struct LemmaState {
  std::vector<uint64_t> words;
  bool operator==(const LemmaState&) const = default;
};

struct LemmaStateHash {
  size_t operator()(const LemmaState& s) const {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (uint64_t w : s.words) {
      h ^= w;
      h *= 0x100000001B3ULL;
    }
    return static_cast<size_t>(h);
  }
};

class LemmaSearch {
 public:
  LemmaSearch(const TransactionSystem& sys, const SafetyCheckOptions& options,
              bool require_complete)
      : sys_(sys),
        options_(options),
        require_complete_(require_complete),
        space_(&sys),
        n_(sys.num_transactions()),
        exec_words_(space_.words_per_state()),
        arc_words_((n_ * n_ + 63) / 64) {}

  Result<SafetyReport> Run();

 private:
  ExecState ExecOf(const LemmaState& s) const {
    ExecState e;
    e.words.assign(s.words.begin(), s.words.begin() + exec_words_);
    return e;
  }

  bool ArcSet(const LemmaState& s, int i, int j) const {
    int bit = i * n_ + j;
    return (s.words[exec_words_ + bit / 64] >> (bit % 64)) & 1;
  }

  void AddArc(LemmaState* s, int i, int j) const {
    int bit = i * n_ + j;
    s->words[exec_words_ + bit / 64] |= 1ULL << (bit % 64);
  }

  Digraph ArcsDigraph(const LemmaState& s) const {
    Digraph d(n_);
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        if (i != j && ArcSet(s, i, j)) d.AddArc(i, j);
      }
    }
    return d;
  }

  // Applies `g`, updating arcs per the partial-schedule digraph D(S')
  // definition of Section 5.
  LemmaState Apply(const LemmaState& s, GlobalNode g) const {
    LemmaState next = s;
    ExecState exec = ExecOf(s);
    ExecState exec_next = space_.Apply(exec, g);
    for (int w = 0; w < exec_words_; ++w) next.words[w] = exec_next.words[w];

    const Step& st = sys_.txn(g.txn).step(g.node);
    if (st.kind == StepKind::kLock) {
      EntityId x = st.entity;
      for (int j : sys_.AccessorsOf(x)) {
        if (j == g.txn) continue;
        if (!LockModesConflict(st.mode, sys_.txn(j).LockModeOf(x))) {
          continue;  // S–S: compatible, no conflict arc.
        }
        NodeId lj = sys_.txn(j).LockNode(x);
        if (space_.IsExecuted(exec, j, lj)) {
          AddArc(&next, j, g.txn);  // Tj locked x earlier in S'.
        } else {
          AddArc(&next, g.txn, j);  // Ti locks first, even if Lx of Tj
                                    // never executes in S'.
        }
      }
    }
    return next;
  }

  const TransactionSystem& sys_;
  const SafetyCheckOptions& options_;
  const bool require_complete_;
  StateSpace space_;
  const int n_;
  const int exec_words_;
  const int arc_words_;
};

Result<SafetyReport> LemmaSearch::Run() {
  SafetyReport report;
  LemmaState root;
  root.words.assign(exec_words_ + arc_words_, 0);
  Bfs<LemmaState, LemmaStateHash> bfs(root);

  auto violation = [&](Schedule sched, const std::vector<NodeId>& cycle) {
    report.holds = false;
    report.violation = SafetyViolation{
        std::move(sched), std::vector<int>(cycle.begin(), cycle.end())};
    report.states_interned = bfs.interned();
    return report;
  };

  while (!bfs.Done()) {
    LemmaState s = bfs.Pop();
    ++report.states_visited;
    if (options_.max_states != 0 &&
        report.states_visited > options_.max_states) {
      return BudgetError("safety", options_.max_states);
    }

    std::vector<NodeId> cycle = FindCycle(ArcsDigraph(s));
    if (!cycle.empty()) {
      Schedule sched = bfs.PathTo(s);
      if (!require_complete_) return violation(std::move(sched), cycle);
      // Safety alone: the cyclic partial schedule only matters if it can
      // be extended to a complete schedule. Arc sets only grow, so the
      // completed schedule is also cyclic.
      auto completion = space_.FindCompletion(ExecOf(s), options_.max_states);
      if (!completion.ok()) return completion.status();
      if (completion->has_value()) {
        sched.insert(sched.end(), (*completion)->begin(),
                     (*completion)->end());
        return violation(std::move(sched), cycle);
      }
      // Not completable: neither this state nor any descendant can reach
      // a complete schedule — prune the subtree.
      continue;
    }

    for (GlobalNode g : space_.LegalMoves(ExecOf(s))) {
      bfs.Push(s, g, Apply(s, g));
    }
  }

  report.holds = true;
  report.states_interned = bfs.interned();
  return report;
}

}  // namespace

Result<DeadlockReport> CheckDeadlockFreedom(
    const TransactionSystem& sys, const DeadlockCheckOptions& options) {
  StateSpace space(&sys);
  DeadlockReport report;
  // Reachable state <=> prefix admitting a schedule, so in kReductionGraph
  // mode every visited state is a candidate deadlock prefix.
  Bfs<ExecState, ExecStateHash> bfs(space.EmptyState());

  auto refuted = [&](const ExecState& s, std::string cycle_text) {
    DeadlockWitness w;
    w.schedule = bfs.PathTo(s);
    w.prefix_nodes = PrefixNodesOf(space, s);
    w.reduction_cycle = std::move(cycle_text);
    report.deadlock_free = false;
    report.witness = std::move(w);
    report.states_interned = bfs.interned();
    return report;
  };

  while (!bfs.Done()) {
    ExecState s = bfs.Pop();
    ++report.states_visited;
    if (options.max_states != 0 &&
        report.states_visited > options.max_states) {
      return BudgetError("deadlock", options.max_states);
    }

    std::vector<GlobalNode> moves = space.LegalMoves(s);
    if (options.mode == DeadlockDetectionMode::kStuckState) {
      if (moves.empty() && !space.IsComplete(s)) return refuted(s, "");
    } else {
      ReductionGraph rg(space.ToPrefixSet(s));
      if (rg.HasCycle()) {
        return refuted(s, rg.CycleToString(sys, rg.FindGlobalCycle()));
      }
    }
    for (GlobalNode g : moves) bfs.Push(s, g, space.Apply(s, g));
  }

  report.deadlock_free = true;
  report.states_interned = bfs.interned();
  return report;
}

Result<SafetyReport> CheckSafeAndDeadlockFree(
    const TransactionSystem& sys, const SafetyCheckOptions& options) {
  return LemmaSearch(sys, options, /*require_complete=*/false).Run();
}

Result<SafetyReport> CheckSafety(const TransactionSystem& sys,
                                 const SafetyCheckOptions& options) {
  return LemmaSearch(sys, options, /*require_complete=*/true).Run();
}

}  // namespace reference
}  // namespace wydb
