#include "analysis/multi_analyzer.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/prefix.h"

namespace wydb {
namespace {

// Step 2 as a depth-first search over ordered simple paths T1..Tm of the
// interaction graph (DESIGN.md §14). Position i of a path keeps its
// canonical prefix Ti* as a kept-node mask; Ti* is defined once Ti has a
// successor, i.e. for every position but the last. MaximalPrefixAvoiding
// of a union is the intersection of the kept sets, so Ti* is the AND of
// one mask per avoided transaction (its entities that conflict with Ti's)
// and one per avoided entity of Y(T*_{i-1}). Growing the path only ANDs
// more masks in, which is what makes both the update and the cut sound.
class PathSearch {
 public:
  PathSearch(const TransactionSystem& sys,
             const std::vector<std::vector<EntityId>>& dom,
             uint64_t max_nodes, MultiReport* report)
      : sys_(sys),
        n_(sys.num_transactions()),
        max_nodes_(max_nodes),
        report_(report),
        arc_of_(static_cast<size_t>(n_) * n_, -1),
        succ_(n_),
        on_path_(n_, false),
        frames_(n_ + 1) {
    for (int t = 0; t < n_; ++t) {
      words_ = std::max(words_, (sys.txn(t).num_steps() + 63) / 64);
    }
    words_ = std::max(words_, 1);
    scratch_.resize(words_);
    for (int a = 0; a < n_; ++a) {
      const Transaction& ta = sys.txn(a);
      for (int b = 0; b < n_; ++b) {
        if (a == b || dom[a][b] == kInvalidEntity) continue;
        const Transaction& tb = sys.txn(b);
        Arc arc;
        arc.lock_x = ta.LockNode(dom[a][b]);
        std::vector<EntityId> conflicting;
        for (EntityId e : tb.entities()) {
          if (ta.ConflictsOn(e, tb.LockModeOf(e))) conflicting.push_back(e);
        }
        arc.keep = AddMask(MaximalPrefixAvoiding(ta, conflicting));
        for (EntityId e : conflicting) {
          arc.hand_off.push_back(
              {ta.UnlockNode(e), AddMask(MaximalPrefixAvoiding(tb, {e}))});
        }
        arc_of_[Index(a, b)] = static_cast<int>(arcs_.size());
        arcs_.push_back(std::move(arc));
        succ_[a].push_back(b);
      }
    }
  }

  Status Run() {
    for (int root = 0; root < n_ && !report_->violation; ++root) {
      path_.assign(1, root);
      on_path_[root] = true;
      Status s = Visit();
      on_path_[root] = false;
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  // The ordered pair (a, b) of conflicting transactions, read as "b
  // follows a on a path".
  struct Arc {
    NodeId lock_x = kInvalidNode;  ///< a's Lx step, x = dom(a, b).
    size_t keep = 0;  ///< a's kept set avoiding b's conflicting entities.
    /// Per conflicting entity e: a's Ue step, and b's kept set avoiding e
    /// (ANDed into b's prefix when Ue is outside a's prefix: e ∈ Y(a*)).
    std::vector<std::pair<NodeId, size_t>> hand_off;
  };

  size_t Index(int a, int b) const { return static_cast<size_t>(a) * n_ + b; }
  const Arc& ArcOf(int a, int b) const { return arcs_[arc_of_[Index(a, b)]]; }

  size_t AddMask(const std::vector<uint64_t>& kept) {
    const size_t at = pool_.size();
    pool_.resize(at + words_, 0);
    std::copy(kept.begin(), kept.end(), pool_.begin() + at);
    return at;
  }

  // Frame m holds the prefixes of positions 0..m-2 of a path of m members.
  uint64_t* Frame(int m) {
    std::vector<uint64_t>& f = frames_[m];
    if (f.empty()) f.resize(std::max(1, m - 1) * words_);
    return f.data();
  }

  static bool Test(const uint64_t* kept, NodeId v) {
    return (kept[v / 64] >> (v % 64)) & 1;
  }
  void And(uint64_t* dst, size_t mask) const {
    for (int w = 0; w < words_; ++w) dst[w] &= pool_[mask + w];
  }
  void Fill(uint64_t* dst) const { std::fill(dst, dst + words_, ~0ULL); }
  // Narrows cur's prefix by the conflicting entities of Y(prev*).
  void HandOff(int prev, int cur, const uint64_t* prev_kept,
               uint64_t* dst) const {
    for (const auto& [unlock, mask] : ArcOf(prev, cur).hand_off) {
      if (!Test(prev_kept, unlock)) And(dst, mask);
    }
  }

  // path_ is a path the search accepted; its frame is up to date.
  Status Visit() {
    const int m = static_cast<int>(path_.size());
    ++report_->path_nodes;
    if (max_nodes_ != 0 && report_->path_nodes > max_nodes_) {
      return Status::ResourceExhausted(StrFormat(
          "Theorem 4 path search visited more than %llu interaction-graph "
          "paths",
          static_cast<unsigned long long>(max_nodes_)));
    }
    if (m >= 3 && arc_of_[Index(path_.back(), path_[0])] >= 0) {
      TestClosed();
      if (report_->violation) return Status::OK();
    }
    for (int b : succ_[path_.back()]) {
      if (on_path_[b] || !Extend(b)) continue;
      path_.push_back(b);
      on_path_[b] = true;
      Status s = Visit();
      on_path_[b] = false;
      path_.pop_back();
      if (!s.ok() || report_->violation) return s;
    }
    return Status::OK();
  }

  // Fills frame m+1 for path_ + [b]; false when a position with a fixed
  // successor loses its Lx step (the cut).
  bool Extend(int b) {
    const int m = static_cast<int>(path_.size());
    uint64_t* child = Frame(m + 1);
    const uint64_t* parent = Frame(m);
    // Positions 0..m-2: b is a new non-adjacent member, and a narrower
    // T*_{i-1} may have grown Y(T*_{i-1}).
    for (int i = 0; i + 1 < m; ++i) {
      uint64_t* dst = child + i * words_;
      std::copy(parent + i * words_, parent + (i + 1) * words_, dst);
      const int arc = arc_of_[Index(path_[i], b)];
      if (arc >= 0) And(dst, arcs_[arc].keep);
      if (i > 0) HandOff(path_[i - 1], path_[i], dst - words_, dst);
      if (!Test(dst, ArcOf(path_[i], path_[i + 1]).lock_x)) return false;
    }
    // Position m-1 gains its successor b: it avoids the members 0..m-3
    // (position 0 has no predecessor and avoids every member but T2).
    const int a = path_[m - 1];
    uint64_t* dst = child + (m - 1) * words_;
    Fill(dst);
    for (int j = 0; j + 3 <= m; ++j) {
      const int arc = arc_of_[Index(a, path_[j])];
      if (arc >= 0) And(dst, arcs_[arc].keep);
    }
    if (m >= 2) HandOff(path_[m - 2], a, dst - words_, dst);
    return Test(dst, ArcOf(a, b).lock_x);
  }

  // The closed variant of path_: the last member's successor is T1, so it
  // avoids members 1..m-3. Every other prefix is the one in the frame.
  void TestClosed() {
    const int m = static_cast<int>(path_.size());
    ++report_->variants_checked;
    if (path_[0] == *std::min_element(path_.begin(), path_.end()) &&
        path_[1] < path_.back()) {
      ++report_->cycles_checked;
    }
    const int last = path_.back();
    const uint64_t* frame = Frame(m);
    uint64_t* dst = scratch_.data();
    Fill(dst);
    for (int j = 1; j + 2 < m; ++j) {
      const int arc = arc_of_[Index(last, path_[j])];
      if (arc >= 0) And(dst, arcs_[arc].keep);
    }
    HandOff(path_[m - 2], last, frame + (m - 2) * words_, dst);
    if (!Test(dst, ArcOf(last, path_[0]).lock_x)) return;

    // Violation: the serial concatenation of the prefixes is a partial
    // schedule with a cyclic conflict digraph.
    MultiViolation v;
    v.cycle = path_;
    for (int i = 0; i < m; ++i) {
      const uint64_t* kept = i + 1 < m ? frame + i * words_ : dst;
      for (NodeId node : sys_.txn(path_[i]).SomeLinearExtension()) {
        if (Test(kept, node)) v.witness.push_back(GlobalNode{path_[i], node});
      }
    }
    report_->violation = std::move(v);
  }

  const TransactionSystem& sys_;
  const int n_;
  const uint64_t max_nodes_;
  MultiReport* report_;
  int words_ = 0;  ///< Mask width: the widest transaction, in words.
  std::vector<uint64_t> pool_;
  std::vector<Arc> arcs_;
  std::vector<int> arc_of_;  ///< n x n; -1 where the pair shares nothing.
  std::vector<std::vector<int>> succ_;
  std::vector<int> path_;
  std::vector<bool> on_path_;
  std::vector<std::vector<uint64_t>> frames_;
  std::vector<uint64_t> scratch_;
};

}  // namespace

Result<MultiReport> CheckSystemSafeAndDeadlockFree(
    const TransactionSystem& sys, const MultiCheckOptions& options) {
  MultiReport report;
  const int n = sys.num_transactions();

  // Step 1: all pairs safe+DF; remember dominating entities.
  // dom[i][j] is kInvalidEntity exactly when i and j share no conflicting
  // entity, i.e. when {i, j} is not an edge of G(A).
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

  // Step 2: the pruned path search over the interaction graph.
  PathSearch search(sys, dom, options.max_cycles, &report);
  WYDB_RETURN_IF_ERROR(search.Run());
  report.safe_and_deadlock_free = !report.violation.has_value();
  return report;
}

}  // namespace wydb
