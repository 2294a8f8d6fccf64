// Undirected graphs: used for the interaction graph G(A) of a transaction
// system (Section 5 of the paper).
#ifndef WYDB_GRAPH_UNDIRECTED_H_
#define WYDB_GRAPH_UNDIRECTED_H_

#include <vector>

#include "graph/digraph.h"

namespace wydb {

/// \brief Simple undirected graph over nodes 0..n-1 (no parallel edges,
/// no self-loops).
class UndirectedGraph {
 public:
  UndirectedGraph() = default;
  explicit UndirectedGraph(int num_nodes)
      : adj_(static_cast<size_t>(num_nodes)) {}

  int num_nodes() const { return static_cast<int>(adj_.size()); }
  int num_edges() const { return num_edges_; }

  /// Adds edge {u, v}; ignored if it already exists or u == v.
  void AddEdge(NodeId u, NodeId v);

  bool HasEdge(NodeId u, NodeId v) const;

  const std::vector<NodeId>& Neighbors(NodeId v) const { return adj_[v]; }

  /// Number of edges in a spanning forest = n - #components; the cycle
  /// space dimension is num_edges() - n + #components.
  int CycleSpaceDimension() const;

 private:
  std::vector<std::vector<NodeId>> adj_;
  int num_edges_ = 0;
};

}  // namespace wydb

#endif  // WYDB_GRAPH_UNDIRECTED_H_
