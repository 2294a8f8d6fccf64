// Johnson's algorithm: enumerate all elementary (simple) directed cycles,
// and the undirected simple-cycle lister built on it. Part of the test
// oracle: the list-then-test Theorem 4 analyzer (tests/reference_search.h)
// enumerates interaction-graph cycles with SimpleCycles.
#ifndef WYDB_TESTS_JOHNSON_H_
#define WYDB_TESTS_JOHNSON_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/digraph.h"
#include "graph/undirected.h"

namespace wydb {

/// \brief Options bounding the cycle enumeration.
struct CycleEnumOptions {
  /// Stop after this many cycles have been emitted (guard against the
  /// worst-case exponential count). 0 means unbounded.
  uint64_t max_cycles = 0;
  /// Ignore cycles longer than this many nodes. 0 means unbounded.
  int max_length = 0;
};

/// Calls `emit` for each elementary cycle of `g` (node sequence, first node
/// not repeated at the end). Returns the number of cycles emitted; if the
/// max_cycles bound fired, the result equals max_cycles and enumeration is
/// incomplete.
uint64_t EnumerateElementaryCycles(
    const Digraph& g, const CycleEnumOptions& options,
    const std::function<void(const std::vector<NodeId>&)>& emit);

/// Convenience: collect all cycles (use only when the count is known small).
std::vector<std::vector<NodeId>> AllElementaryCycles(
    const Digraph& g, const CycleEnumOptions& options = {});

/// All simple cycles of `g` as *undirected* vertex sequences (each cycle
/// listed once; orientation and rotation normalized to start at the
/// smallest vertex and move toward its smaller neighbor). Bounded by
/// `max_cycles` (0 = unbounded). Cycles have length >= 3.
std::vector<std::vector<NodeId>> SimpleCycles(const UndirectedGraph& g,
                                              uint64_t max_cycles = 0);

}  // namespace wydb

#endif  // WYDB_TESTS_JOHNSON_H_
