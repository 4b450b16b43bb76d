// Independent betweenness oracle for cross-checking graph::single_sweep's
// Brandes pass (graph::betweenness_centrality) in tests. Part of the
// test-support library: no production library compiles it.
#pragma once

#include <vector>

#include "graph/digraph.hpp"

namespace gea::graph {

/// Reference O(V^3)-ish betweenness for cross-checking Brandes in tests:
/// enumerates all shortest paths by dynamic programming over BFS DAGs.
std::vector<double> betweenness_centrality_reference(const DiGraph& g);

}  // namespace gea::graph
