#include "graph/undirected.h"

#include <algorithm>


namespace wydb {

void UndirectedGraph::AddEdge(NodeId u, NodeId v) {
  if (u == v || HasEdge(u, v)) return;
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++num_edges_;
}

bool UndirectedGraph::HasEdge(NodeId u, NodeId v) const {
  const auto& nb = adj_[u];
  return std::find(nb.begin(), nb.end(), v) != nb.end();
}

int UndirectedGraph::CycleSpaceDimension() const {
  const int n = num_nodes();
  std::vector<bool> seen(n, false);
  int components = 0;
  for (NodeId root = 0; root < n; ++root) {
    if (seen[root]) continue;
    ++components;
    std::vector<NodeId> stack{root};
    seen[root] = true;
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      for (NodeId w : adj_[v]) {
        if (!seen[w]) {
          seen[w] = true;
          stack.push_back(w);
        }
      }
    }
  }
  return num_edges_ - n + components;
}

}  // namespace wydb
