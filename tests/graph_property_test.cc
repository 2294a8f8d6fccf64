// Property tests for the graph substrate against independent reference
// implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "graph/algorithms.h"
#include "tests/johnson.h"
#include "tests/tarjan.h"

namespace wydb {
namespace {

Digraph RandomDigraph(int n, double p, Rng* rng, bool acyclic) {
  Digraph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      if (acyclic && j < i) continue;  // Forward arcs only.
      if (rng->NextBernoulli(p)) g.AddArc(i, j);
    }
  }
  return g;
}

// Reference reachability: Floyd-Warshall style boolean closure.
std::vector<std::vector<bool>> ReferenceClosure(const Digraph& g) {
  const int n = g.num_nodes();
  std::vector<std::vector<bool>> r(n, std::vector<bool>(n, false));
  for (int i = 0; i < n; ++i) {
    for (NodeId j : g.OutNeighbors(i)) r[i][j] = true;
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      if (!r[i][k]) continue;
      for (int j = 0; j < n; ++j) {
        if (r[k][j]) r[i][j] = true;
      }
    }
  }
  return r;
}

// Reference cycle enumeration: DFS from every root, canonicalized.
std::set<std::vector<NodeId>> ReferenceCycles(const Digraph& g) {
  std::set<std::vector<NodeId>> out;
  const int n = g.num_nodes();
  std::vector<NodeId> path;
  std::vector<bool> on_path(n, false);
  std::function<void(NodeId, NodeId)> dfs = [&](NodeId root, NodeId v) {
    for (NodeId w : g.OutNeighbors(v)) {
      if (w == root) {
        // Canonical: rotate so the minimum is first (here root is forced
        // minimal by construction below).
        out.insert(path);
      } else if (w > root && !on_path[w]) {
        on_path[w] = true;
        path.push_back(w);
        dfs(root, w);
        path.pop_back();
        on_path[w] = false;
      }
    }
  };
  for (NodeId root = 0; root < n; ++root) {
    path = {root};
    on_path.assign(n, false);
    on_path[root] = true;
    dfs(root, root);
  }
  return out;
}

TEST(GraphProperty, ClosureMatchesFloydWarshall) {
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    int n = 2 + static_cast<int>(rng.NextBelow(12));
    Digraph g = RandomDigraph(n, 0.25, &rng, /*acyclic=*/true);
    ReachabilityMatrix m = TransitiveClosure(g);
    auto ref = ReferenceClosure(g);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(m.Reaches(i, j), ref[i][j])
            << "trial " << trial << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(GraphProperty, ReductionClosureRoundTrip) {
  Rng rng(22);
  for (int trial = 0; trial < 30; ++trial) {
    int n = 2 + static_cast<int>(rng.NextBelow(10));
    Digraph g = RandomDigraph(n, 0.3, &rng, /*acyclic=*/true);
    ReachabilityMatrix m = TransitiveClosure(g);
    Digraph h = TransitiveReduction(g, m);
    // The reduction must have the same closure and no redundant arcs.
    ReachabilityMatrix m2 = TransitiveClosure(h);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(m.Reaches(i, j), m2.Reaches(i, j));
      }
    }
    EXPECT_LE(h.num_arcs(), g.num_arcs());
  }
}

TEST(GraphProperty, JohnsonMatchesReferenceEnumeration) {
  Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    int n = 2 + static_cast<int>(rng.NextBelow(7));
    Digraph g = RandomDigraph(n, 0.35, &rng, /*acyclic=*/false);
    std::set<std::vector<NodeId>> got;
    EnumerateElementaryCycles(g, {}, [&](const std::vector<NodeId>& c) {
      got.insert(c);  // Johnson roots cycles at their minimal node.
    });
    std::set<std::vector<NodeId>> want = ReferenceCycles(g);
    EXPECT_EQ(got, want) << "trial " << trial << "\n" << g.DebugString();
  }
}

TEST(GraphProperty, SccAgreesWithMutualReachability) {
  Rng rng(24);
  for (int trial = 0; trial < 30; ++trial) {
    int n = 2 + static_cast<int>(rng.NextBelow(10));
    Digraph g = RandomDigraph(n, 0.25, &rng, /*acyclic=*/false);
    SccResult scc = StronglyConnectedComponents(g);
    // Reference: i ~ j iff i reaches j and j reaches i (reflexive).
    auto ref = ReferenceClosure(g);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        bool same = scc.component[i] == scc.component[j];
        bool mutual = i == j || (ref[i][j] && ref[j][i]);
        EXPECT_EQ(same, mutual) << i << "," << j;
      }
    }
  }
}

TEST(GraphProperty, CycleDetectionConsistentWithTopoSort) {
  Rng rng(25);
  for (int trial = 0; trial < 60; ++trial) {
    int n = 2 + static_cast<int>(rng.NextBelow(10));
    bool acyclic = rng.NextBernoulli(0.5);
    Digraph g = RandomDigraph(n, 0.3, &rng, acyclic);
    bool cyc = HasCycle(g);
    std::vector<NodeId> cycle = FindCycle(g);
    EXPECT_EQ(cyc, !cycle.empty());
    if (acyclic) EXPECT_FALSE(cyc);
    if (!cycle.empty()) {
      for (size_t i = 0; i < cycle.size(); ++i) {
        EXPECT_TRUE(g.HasArc(cycle[i], cycle[(i + 1) % cycle.size()]));
      }
    }
  }
}

}  // namespace
}  // namespace wydb
