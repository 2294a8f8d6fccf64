#include "tests/johnson.h"

#include <algorithm>

#include "tests/tarjan.h"

namespace wydb {
namespace {

// State for Johnson's circuit-finding procedure restricted to one SCC and
// rooted at the SCC's least vertex `s`.
class JohnsonSearch {
 public:
  JohnsonSearch(const Digraph& g, const std::vector<bool>& in_scope,
                NodeId s, const CycleEnumOptions& options,
                const std::function<void(const std::vector<NodeId>&)>& emit,
                uint64_t* emitted)
      : g_(g),
        in_scope_(in_scope),
        s_(s),
        options_(options),
        emit_(emit),
        emitted_(emitted),
        blocked_(g.num_nodes(), false),
        block_list_(g.num_nodes()) {}

  bool Run() { return Circuit(s_); }

 private:
  bool Budget() const {
    return options_.max_cycles == 0 || *emitted_ < options_.max_cycles;
  }

  void Unblock(NodeId v) {
    blocked_[v] = false;
    for (NodeId w : block_list_[v]) {
      if (blocked_[w]) Unblock(w);
    }
    block_list_[v].clear();
  }

  // Returns true if a cycle through the current path was found.
  bool Circuit(NodeId v) {
    if (!Budget()) return false;
    bool found = false;
    path_.push_back(v);
    blocked_[v] = true;
    if (options_.max_length == 0 ||
        static_cast<int>(path_.size()) <= options_.max_length) {
      for (NodeId w : g_.OutNeighbors(v)) {
        if (!in_scope_[w] || w < s_) continue;
        if (w == s_) {
          if (Budget()) {
            emit_(path_);
            ++*emitted_;
            found = true;
          }
        } else if (!blocked_[w]) {
          if (Circuit(w)) found = true;
        }
        if (!Budget()) break;
      }
    }
    if (found) {
      Unblock(v);
    } else {
      for (NodeId w : g_.OutNeighbors(v)) {
        if (!in_scope_[w] || w < s_) continue;
        auto& bl = block_list_[w];
        if (std::find(bl.begin(), bl.end(), v) == bl.end()) bl.push_back(v);
      }
    }
    path_.pop_back();
    return found;
  }

  const Digraph& g_;
  const std::vector<bool>& in_scope_;
  const NodeId s_;
  const CycleEnumOptions& options_;
  const std::function<void(const std::vector<NodeId>&)>& emit_;
  uint64_t* emitted_;

  std::vector<bool> blocked_;
  std::vector<std::vector<NodeId>> block_list_;
  std::vector<NodeId> path_;
};

}  // namespace

uint64_t EnumerateElementaryCycles(
    const Digraph& g, const CycleEnumOptions& options,
    const std::function<void(const std::vector<NodeId>&)>& emit) {
  const int n = g.num_nodes();
  uint64_t emitted = 0;

  // Self-loops are cycles of length 1; Johnson's SCC trick skips them, so
  // handle explicitly first.
  for (NodeId v = 0; v < n; ++v) {
    if (options.max_cycles != 0 && emitted >= options.max_cycles) {
      return emitted;
    }
    if (g.HasArc(v, v)) {
      std::vector<NodeId> self{v};
      emit(self);
      ++emitted;
    }
  }

  for (NodeId s = 0; s < n; ++s) {
    if (options.max_cycles != 0 && emitted >= options.max_cycles) break;
    // Restrict to nodes >= s and find the SCC containing s in that
    // subgraph.
    Digraph sub(n);
    for (NodeId v = s; v < n; ++v) {
      for (NodeId w : g.OutNeighbors(v)) {
        if (w >= s && w != v) sub.AddArc(v, w);
      }
    }
    SccResult scc = StronglyConnectedComponents(sub);
    int cs = scc.component[s];
    if (static_cast<int>(scc.members[cs].size()) < 2) continue;
    std::vector<bool> in_scope(n, false);
    for (NodeId v : scc.members[cs]) in_scope[v] = true;

    JohnsonSearch search(sub, in_scope, s, options, emit, &emitted);
    search.Run();
  }
  return emitted;
}

std::vector<std::vector<NodeId>> AllElementaryCycles(
    const Digraph& g, const CycleEnumOptions& options) {
  std::vector<std::vector<NodeId>> cycles;
  EnumerateElementaryCycles(
      g, options,
      [&](const std::vector<NodeId>& c) { cycles.push_back(c); });
  return cycles;
}

std::vector<std::vector<NodeId>> SimpleCycles(const UndirectedGraph& g,
                                              uint64_t max_cycles) {
  // Run Johnson on the symmetric digraph; each undirected cycle of length
  // >= 3 appears exactly twice (once per orientation), and every edge
  // {u,v} yields the spurious directed 2-cycle u->v->u. Filter and
  // canonicalize.
  Digraph sym(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) sym.AddArc(u, v);
  }
  std::vector<std::vector<NodeId>> out;
  CycleEnumOptions opts;
  // Each kept cycle is seen twice, plus one 2-cycle per edge is discarded.
  opts.max_cycles = max_cycles == 0
                        ? 0
                        : 2 * max_cycles + static_cast<uint64_t>(g.num_edges());
  EnumerateElementaryCycles(sym, opts, [&](const std::vector<NodeId>& c) {
    if (c.size() < 3) return;
    // Johnson roots every cycle at its minimal vertex, so c[0] is the
    // smallest. Keep the orientation whose second vertex is smaller than
    // the last; the reverse orientation is the duplicate.
    if (c[1] < c.back()) {
      if (max_cycles == 0 || out.size() < max_cycles) out.push_back(c);
    }
  });
  return out;
}

}  // namespace wydb
