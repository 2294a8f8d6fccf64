// Core digraph algorithms: topological sort, cycle detection, reachability,
// transitive closure and reduction.
#ifndef WYDB_GRAPH_ALGORITHMS_H_
#define WYDB_GRAPH_ALGORITHMS_H_

#include <optional>
#include <vector>

#include "graph/digraph.h"

namespace wydb {

/// \brief Row-per-node bitset reachability matrix.
///
/// closure.Reaches(u, v) is true iff there is a path (of length >= 1 when
/// built with ReflexiveClosure=false) from u to v.
class ReachabilityMatrix {
 public:
  ReachabilityMatrix() = default;
  ReachabilityMatrix(int n)  // NOLINT(runtime/explicit)
      : n_(n), words_((n + 63) / 64), bits_(static_cast<size_t>(n) * words_) {}

  int num_nodes() const { return n_; }

  bool Reaches(NodeId u, NodeId v) const {
    return (bits_[static_cast<size_t>(u) * words_ + v / 64] >>
            (v % 64)) & 1;
  }
  void Set(NodeId u, NodeId v) {
    bits_[static_cast<size_t>(u) * words_ + v / 64] |= 1ULL << (v % 64);
  }
  /// rows[u] |= rows[v]
  void OrRow(NodeId u, NodeId v) {
    size_t ub = static_cast<size_t>(u) * words_;
    size_t vb = static_cast<size_t>(v) * words_;
    for (int w = 0; w < words_; ++w) bits_[ub + w] |= bits_[vb + w];
  }

 private:
  int n_ = 0;
  int words_ = 0;
  std::vector<uint64_t> bits_;
};

/// Topological order of `g`, or nullopt if `g` has a cycle (Kahn).
std::optional<std::vector<NodeId>> TopologicalSort(const Digraph& g);

/// True iff `g` contains a directed cycle.
bool HasCycle(const Digraph& g);

/// Some directed cycle of `g` through none of the `removed` nodes, as a
/// node sequence (first node not repeated), or empty vector if none.
std::vector<NodeId> FindCycle(const Digraph& g,
                              const std::vector<NodeId>& removed = {});

/// Transitive closure of a DAG via reverse topological DP.
/// Requires `g` acyclic (asserts in debug builds).
ReachabilityMatrix TransitiveClosure(const Digraph& g);

/// Hasse diagram: the unique minimal arc set with the same closure.
/// Requires `g` acyclic.
Digraph TransitiveReduction(const Digraph& g,
                            const ReachabilityMatrix& closure);

/// Nodes reachable from `start` (excluding start unless on a cycle).
std::vector<NodeId> ReachableFrom(const Digraph& g, NodeId start);

/// All ancestors of `v` (nodes that can reach v), excluding v.
std::vector<NodeId> AncestorsOf(const Digraph& g, NodeId v);

}  // namespace wydb

#endif  // WYDB_GRAPH_ALGORITHMS_H_
