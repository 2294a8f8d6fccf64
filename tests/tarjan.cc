#include "tests/tarjan.h"

#include <algorithm>

namespace wydb {

SccResult StronglyConnectedComponents(const Digraph& g) {
  const int n = g.num_nodes();
  SccResult res;
  res.component.assign(n, -1);

  std::vector<int> index(n, -1), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> stack;
  int next_index = 0;

  // Explicit DFS frames: (node, next out-edge position).
  struct Frame {
    NodeId v;
    size_t edge;
  };
  std::vector<Frame> frames;

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto& succ = g.OutNeighbors(f.v);
      if (f.edge < succ.size()) {
        NodeId w = succ[f.edge++];
        if (index[w] == -1) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
        continue;
      }
      // Post-visit.
      NodeId v = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().v] = std::min(lowlink[frames.back().v],
                                            lowlink[v]);
      }
      if (lowlink[v] == index[v]) {
        res.members.emplace_back();
        NodeId w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          res.component[w] = res.num_components;
          res.members.back().push_back(w);
        } while (w != v);
        ++res.num_components;
      }
    }
  }
  return res;
}

}  // namespace wydb
