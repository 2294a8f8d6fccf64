// Tests for graph/: Digraph, algorithms, Tarjan SCC, Johnson cycles,
// undirected graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/undirected.h"
#include "tests/johnson.h"
#include "tests/tarjan.h"

namespace wydb {
namespace {

Digraph Chain(int n) {
  Digraph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddArc(i, i + 1);
  return g;
}

TEST(DigraphTest, AddAndQuery) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_arcs(), 2);
  EXPECT_TRUE(g.HasArc(0, 1));
  EXPECT_FALSE(g.HasArc(1, 0));
  EXPECT_EQ(g.OutDegree(1), 1);
  EXPECT_EQ(g.InDegree(1), 1);
}

TEST(DigraphTest, AddNodeGrows) {
  Digraph g;
  NodeId a = g.AddNode();
  NodeId b = g.AddNode();
  g.AddArc(a, b);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_TRUE(g.HasArc(a, b));
}

TEST(DigraphTest, DeduplicateArcs) {
  Digraph g(2);
  g.AddArc(0, 1);
  g.AddArc(0, 1);
  g.AddArc(0, 1);
  EXPECT_EQ(g.num_arcs(), 3);
  g.DeduplicateArcs();
  EXPECT_EQ(g.num_arcs(), 1);
  EXPECT_TRUE(g.HasArc(0, 1));
}

TEST(TopoSortTest, ChainOrder) {
  auto order = TopologicalSort(Chain(5));
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(TopoSortTest, CycleReturnsNullopt) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 0);
  EXPECT_FALSE(TopologicalSort(g).has_value());
  EXPECT_TRUE(HasCycle(g));
}

TEST(TopoSortTest, EmptyGraph) {
  Digraph g;
  auto order = TopologicalSort(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(order->empty());
}

TEST(FindCycleTest, ReportsActualCycle) {
  Digraph g(5);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 3);
  g.AddArc(3, 1);  // Cycle 1-2-3.
  g.AddArc(3, 4);
  std::vector<NodeId> cycle = FindCycle(g);
  ASSERT_EQ(cycle.size(), 3u);
  // Consecutive arcs exist and it closes.
  for (size_t i = 0; i < cycle.size(); ++i) {
    EXPECT_TRUE(g.HasArc(cycle[i], cycle[(i + 1) % cycle.size()]));
  }
}

TEST(FindCycleTest, AcyclicGivesEmpty) {
  EXPECT_TRUE(FindCycle(Chain(4)).empty());
}

TEST(ClosureTest, ChainReachability) {
  Digraph g = Chain(4);
  ReachabilityMatrix m = TransitiveClosure(g);
  EXPECT_TRUE(m.Reaches(0, 3));
  EXPECT_TRUE(m.Reaches(1, 2));
  EXPECT_FALSE(m.Reaches(2, 1));
  EXPECT_FALSE(m.Reaches(0, 0));  // Strict: no self-reachability in a DAG.
}

TEST(ClosureTest, DiamondReachability) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(0, 2);
  g.AddArc(1, 3);
  g.AddArc(2, 3);
  ReachabilityMatrix m = TransitiveClosure(g);
  EXPECT_TRUE(m.Reaches(0, 3));
  EXPECT_FALSE(m.Reaches(1, 2));
  EXPECT_FALSE(m.Reaches(2, 1));
}

TEST(ReductionTest, RemovesTransitiveArc) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(0, 2);  // Redundant.
  ReachabilityMatrix m = TransitiveClosure(g);
  Digraph h = TransitiveReduction(g, m);
  EXPECT_TRUE(h.HasArc(0, 1));
  EXPECT_TRUE(h.HasArc(1, 2));
  EXPECT_FALSE(h.HasArc(0, 2));
}

TEST(ReachableFromTest, FindsDescendants) {
  Digraph g = Chain(4);
  std::vector<NodeId> r = ReachableFrom(g, 1);
  std::set<NodeId> s(r.begin(), r.end());
  EXPECT_EQ(s, (std::set<NodeId>{2, 3}));
}

TEST(AncestorsOfTest, FindsAncestors) {
  Digraph g = Chain(4);
  std::vector<NodeId> a = AncestorsOf(g, 2);
  std::set<NodeId> s(a.begin(), a.end());
  EXPECT_EQ(s, (std::set<NodeId>{0, 1}));
}

TEST(TarjanTest, ChainAllSingletons) {
  SccResult r = StronglyConnectedComponents(Chain(4));
  EXPECT_EQ(r.num_components, 4);
}

TEST(TarjanTest, CycleIsOneComponent) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 0);
  g.AddArc(2, 3);
  SccResult r = StronglyConnectedComponents(g);
  EXPECT_EQ(r.num_components, 2);
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[1], r.component[2]);
  EXPECT_NE(r.component[3], r.component[0]);
}

TEST(TarjanTest, TwoDisjointCycles) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(1, 0);
  g.AddArc(2, 3);
  g.AddArc(3, 2);
  SccResult r = StronglyConnectedComponents(g);
  EXPECT_EQ(r.num_components, 2);
}

TEST(JohnsonTest, AcyclicHasNoCycles) {
  EXPECT_EQ(AllElementaryCycles(Chain(5)).size(), 0u);
}

TEST(JohnsonTest, SingleTriangle) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(2, 0);
  auto cycles = AllElementaryCycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 3u);
}

TEST(JohnsonTest, SelfLoop) {
  Digraph g(2);
  g.AddArc(0, 0);
  g.AddArc(0, 1);
  auto cycles = AllElementaryCycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0], (std::vector<NodeId>{0}));
}

// Complete digraph on n nodes has sum_{k=2..n} C(n,k) * (k-1)! elementary
// cycles: n=3 -> 5, n=4 -> 20.
TEST(JohnsonTest, CompleteDigraphCounts) {
  for (auto [n, expected] : {std::pair<int, uint64_t>{3, 5}, {4, 20}}) {
    Digraph g(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j) g.AddArc(i, j);
      }
    }
    EXPECT_EQ(AllElementaryCycles(g).size(), expected) << "n=" << n;
  }
}

TEST(JohnsonTest, MaxCyclesBound) {
  Digraph g(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i != j) g.AddArc(i, j);
    }
  }
  CycleEnumOptions opts;
  opts.max_cycles = 7;
  EXPECT_EQ(AllElementaryCycles(g, opts).size(), 7u);
}

TEST(JohnsonTest, MaxLengthBound) {
  Digraph g(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i != j) g.AddArc(i, j);
    }
  }
  CycleEnumOptions opts;
  opts.max_length = 2;
  // Only the C(4,2) = 6 two-cycles.
  EXPECT_EQ(AllElementaryCycles(g, opts).size(), 6u);
}

TEST(UndirectedTest, EdgesDeduplicated) {
  UndirectedGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(1, 1);  // Self loop ignored.
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
}

TEST(UndirectedTest, CycleSpaceDimension) {
  UndirectedGraph tree(4);
  tree.AddEdge(0, 1);
  tree.AddEdge(1, 2);
  tree.AddEdge(1, 3);
  EXPECT_EQ(tree.CycleSpaceDimension(), 0);

  UndirectedGraph ring(4);
  for (int i = 0; i < 4; ++i) ring.AddEdge(i, (i + 1) % 4);
  EXPECT_EQ(ring.CycleSpaceDimension(), 1);
}

TEST(UndirectedTest, TriangleHasOneSimpleCycle) {
  UndirectedGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  auto cycles = SimpleCycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 3u);
}

// K4 has 7 simple cycles (4 triangles + 3 squares); K5 has 37.
TEST(UndirectedTest, CompleteGraphCycleCounts) {
  for (auto [n, expected] : {std::pair<int, size_t>{4, 7}, {5, 37}}) {
    UndirectedGraph g(n);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) g.AddEdge(i, j);
    }
    EXPECT_EQ(SimpleCycles(g).size(), expected) << "n=" << n;
  }
}

TEST(UndirectedTest, CyclesAreClosedWalks) {
  UndirectedGraph g(5);
  for (int i = 0; i < 5; ++i) g.AddEdge(i, (i + 1) % 5);
  g.AddEdge(0, 2);
  for (const auto& cycle : SimpleCycles(g)) {
    ASSERT_GE(cycle.size(), 3u);
    for (size_t i = 0; i < cycle.size(); ++i) {
      EXPECT_TRUE(g.HasEdge(cycle[i], cycle[(i + 1) % cycle.size()]));
    }
    // No repeated vertices.
    std::set<NodeId> uniq(cycle.begin(), cycle.end());
    EXPECT_EQ(uniq.size(), cycle.size());
  }
}

}  // namespace
}  // namespace wydb
