// Node centrality measures for directed graphs. Definitions follow the
// conventions of NetworkX (which the paper's toolchain used), so that the
// 23-feature vector is comparable with the original study:
//
//  - degree_centrality(v)   = (in_deg(v) + out_deg(v)) / (n - 1)
//  - closeness_centrality   = Wasserman-Faust improved formula over
//                             *incoming* distances
//  - betweenness_centrality = Brandes' algorithm, normalized by
//                             (n-1)(n-2) for directed graphs
#pragma once

#include <vector>

#include "graph/digraph.hpp"

namespace gea::graph {

/// Degree centrality per node. Returns all zeros for n < 2.
std::vector<double> degree_centrality(const DiGraph& g);

/// Closeness centrality per node using incoming shortest paths:
///   C(v) = ((r-1) / sum_{u in R} d(u,v)) * ((r-1) / (n-1))
/// where R is the set of nodes that can reach v and r = |R|.
/// Nodes nothing reaches get 0. O(V * (V + E)).
/// Delegates to the single-sweep core (graph/sweep.hpp).
std::vector<double> closeness_centrality(const DiGraph& g);

/// Betweenness centrality per node via Brandes' algorithm (unit weights,
/// directed, endpoints excluded), normalized by (n-1)(n-2). O(V*E).
/// Delegates to the single-sweep core (graph/sweep.hpp).
std::vector<double> betweenness_centrality(const DiGraph& g);

}  // namespace gea::graph
