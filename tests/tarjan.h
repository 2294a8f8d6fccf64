// Tarjan strongly-connected components: the SCC step of Johnson's cycle
// enumeration (tests/johnson.h), kept beside it in the test oracle.
#ifndef WYDB_TESTS_TARJAN_H_
#define WYDB_TESTS_TARJAN_H_

#include <vector>

#include "graph/digraph.h"

namespace wydb {

/// \brief Result of an SCC decomposition.
struct SccResult {
  /// component[v] = id of v's SCC; ids are in reverse topological order
  /// (an arc between SCCs goes from higher id to lower id... Tarjan's
  /// numbering: components are emitted in reverse topological order, so
  /// arcs between distinct components go from larger to smaller ids).
  std::vector<int> component;
  int num_components = 0;

  /// Members of each component, indexed by component id.
  std::vector<std::vector<NodeId>> members;
};

/// Computes SCCs of `g` (iterative Tarjan; safe for large graphs).
SccResult StronglyConnectedComponents(const Digraph& g);

}  // namespace wydb

#endif  // WYDB_TESTS_TARJAN_H_
