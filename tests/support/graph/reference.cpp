#include "graph/reference.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"

namespace gea::graph {

std::vector<double> betweenness_centrality_reference(const DiGraph& g) {
  // Independent re-derivation used only by tests: for every source s, count
  // shortest paths via forward DP, then for every target t distribute
  // pair-dependencies by walking the BFS DAG backwards explicitly.
  const std::size_t n = g.num_nodes();
  std::vector<double> bc(n, 0.0);
  if (n < 3) return bc;

  for (std::size_t s = 0; s < n; ++s) {
    const auto dist = bfs_distances(g, static_cast<NodeId>(s));
    // sigma[v]: number of shortest s->v paths.
    std::vector<double> sigma(n, 0.0);
    sigma[s] = 1.0;
    // process nodes in increasing distance
    std::vector<NodeId> by_dist;
    for (std::size_t v = 0; v < n; ++v) {
      if (dist[v] != kUnreachable) by_dist.push_back(static_cast<NodeId>(v));
    }
    std::sort(by_dist.begin(), by_dist.end(),
              [&](NodeId a, NodeId b) { return dist[a] < dist[b]; });
    for (NodeId u : by_dist) {
      for (NodeId w : g.out_neighbors(u)) {
        if (dist[w] != kUnreachable && dist[w] == dist[u] + 1) sigma[w] += sigma[u];
      }
    }
    // For each target t, count paths through v: sigma[v] * sigma_rev(v->t).
    for (std::size_t t = 0; t < n; ++t) {
      if (t == s || dist[t] == kUnreachable) continue;
      // sigma_to_t[v]: number of shortest v->t paths inside the s-BFS DAG.
      std::vector<double> sigma_to_t(n, 0.0);
      sigma_to_t[t] = 1.0;
      for (auto it = by_dist.rbegin(); it != by_dist.rend(); ++it) {
        const NodeId u = *it;
        if (dist[u] >= dist[t]) continue;
        for (NodeId w : g.out_neighbors(u)) {
          if (dist[w] != kUnreachable && dist[w] == dist[u] + 1 &&
              dist[w] <= dist[t]) {
            sigma_to_t[u] += sigma_to_t[w];
          }
        }
      }
      for (std::size_t v = 0; v < n; ++v) {
        if (v == s || v == t || dist[v] == kUnreachable) continue;
        bc[v] += sigma[v] * sigma_to_t[v] / sigma[t];
      }
    }
  }
  const double norm = static_cast<double>(n - 1) * static_cast<double>(n - 2);
  for (auto& b : bc) b /= norm;
  return bc;
}

}  // namespace gea::graph
