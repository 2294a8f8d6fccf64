#include "graph/algorithms.h"

#include <algorithm>
#include <cassert>

namespace wydb {

std::optional<std::vector<NodeId>> TopologicalSort(const Digraph& g) {
  const int n = g.num_nodes();
  std::vector<int> indeg(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : g.OutNeighbors(v)) indeg[w]++;
  }
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> frontier;
  for (NodeId v = 0; v < n; ++v) {
    if (indeg[v] == 0) frontier.push_back(v);
  }
  while (!frontier.empty()) {
    NodeId v = frontier.back();
    frontier.pop_back();
    order.push_back(v);
    for (NodeId w : g.OutNeighbors(v)) {
      if (--indeg[w] == 0) frontier.push_back(w);
    }
  }
  if (static_cast<int>(order.size()) != n) return std::nullopt;
  return order;
}

bool HasCycle(const Digraph& g) { return !TopologicalSort(g).has_value(); }

std::vector<NodeId> FindCycle(const Digraph& g,
                              const std::vector<NodeId>& removed) {
  const int n = g.num_nodes();
  // Colors: 0 = white, 1 = on stack, 2 = done (a removed node starts so).
  std::vector<int> color(n, 0);
  for (NodeId v : removed) color[v] = 2;
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<NodeId> cycle;

  // Iterative DFS keeping an explicit stack of (node, next-edge-index).
  for (NodeId root = 0; root < n && cycle.empty(); ++root) {
    if (color[root] != 0) continue;
    std::vector<std::pair<NodeId, size_t>> stack{{root, 0}};
    color[root] = 1;
    while (!stack.empty() && cycle.empty()) {
      auto& [v, idx] = stack.back();
      const auto& succ = g.OutNeighbors(v);
      if (idx == succ.size()) {
        color[v] = 2;
        stack.pop_back();
        continue;
      }
      NodeId w = succ[idx++];
      if (color[w] == 0) {
        color[w] = 1;
        parent[w] = v;
        stack.emplace_back(w, 0);
      } else if (color[w] == 1) {
        // Found a back edge v -> w; walk parents from v up to w.
        cycle.push_back(w);
        for (NodeId u = v; u != w; u = parent[u]) cycle.push_back(u);
        std::reverse(cycle.begin() + 1, cycle.end());
      }
    }
  }
  return cycle;
}

ReachabilityMatrix TransitiveClosure(const Digraph& g) {
  auto order = TopologicalSort(g);
  assert(order.has_value() && "TransitiveClosure requires a DAG");
  const int n = g.num_nodes();
  ReachabilityMatrix m(n);
  // Process in reverse topological order so successors are complete.
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    NodeId v = *it;
    for (NodeId w : g.OutNeighbors(v)) {
      m.Set(v, w);
      m.OrRow(v, w);
    }
  }
  return m;
}

Digraph TransitiveReduction(const Digraph& g,
                            const ReachabilityMatrix& closure) {
  const int n = g.num_nodes();
  Digraph reduced(n);
  for (NodeId v = 0; v < n; ++v) {
    // Keep arc v->w iff no other direct successor u of v reaches w.
    std::vector<NodeId> succ = g.OutNeighbors(v);
    std::sort(succ.begin(), succ.end());
    succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
    for (NodeId w : succ) {
      bool redundant = false;
      for (NodeId u : succ) {
        if (u != w && closure.Reaches(u, w)) {
          redundant = true;
          break;
        }
      }
      if (!redundant) reduced.AddArc(v, w);
    }
  }
  return reduced;
}

std::vector<NodeId> ReachableFrom(const Digraph& g, NodeId start) {
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<NodeId> stack{start}, out;
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    for (NodeId w : g.OutNeighbors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        out.push_back(w);
        stack.push_back(w);
      }
    }
  }
  return out;
}

std::vector<NodeId> AncestorsOf(const Digraph& g, NodeId v) {
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<NodeId> stack{v}, out;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (NodeId p : g.InNeighbors(u)) {
      if (!seen[p]) {
        seen[p] = true;
        out.push_back(p);
        stack.push_back(p);
      }
    }
  }
  return out;
}

}  // namespace wydb
