#include "features/reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <stack>

#include "graph/algorithms.hpp"
#include "graph/centrality.hpp"
#include "util/stats.hpp"

namespace gea::features::reference {

using graph::DiGraph;
using graph::kUnreachable;
using graph::NodeId;

std::vector<double> betweenness_centrality(const DiGraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<double> bc(n, 0.0);
  if (n < 3) return bc;

  // Brandes (2001), unweighted directed version. The counts are int64, as
  // in the seed: a graph with 2^63 or more shortest paths between two nodes
  // (63+ chained if/else diamonds) overflows them, which is undefined
  // behaviour. graph::single_sweep recounts such sources in double; the
  // tests compare it there with graph::betweenness_centrality_reference and
  // never call this oracle on such a graph.
  std::vector<std::int64_t> sigma(n);      // shortest-path counts
  std::vector<std::int64_t> dist(n);       // BFS distance, -1 = unvisited
  std::vector<double> delta(n);            // dependency accumulator
  std::vector<std::vector<NodeId>> pred(n);

  for (std::size_t s = 0; s < n; ++s) {
    std::fill(sigma.begin(), sigma.end(), 0);
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(delta.begin(), delta.end(), 0.0);
    for (auto& p : pred) p.clear();

    std::stack<NodeId> order;
    std::deque<NodeId> queue;
    sigma[s] = 1;
    dist[s] = 0;
    queue.push_back(static_cast<NodeId>(s));
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      order.push(u);
      for (NodeId w : g.out_neighbors(u)) {
        if (dist[w] < 0) {
          dist[w] = dist[u] + 1;
          queue.push_back(w);
        }
        if (dist[w] == dist[u] + 1) {
          sigma[w] += sigma[u];
          pred[w].push_back(u);
        }
      }
    }
    while (!order.empty()) {
      const NodeId w = order.top();
      order.pop();
      for (NodeId u : pred[w]) {
        delta[u] += static_cast<double>(sigma[u]) /
                    static_cast<double>(sigma[w]) * (1.0 + delta[w]);
      }
      if (w != s) bc[w] += delta[w];
    }
  }

  const double norm = static_cast<double>(n - 1) * static_cast<double>(n - 2);
  for (auto& b : bc) b /= norm;
  return bc;
}

std::vector<double> closeness_centrality(const DiGraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<double> c(n, 0.0);
  if (n < 2) return c;
  for (std::size_t v = 0; v < n; ++v) {
    const auto dist = graph::bfs_distances_reverse(g, static_cast<NodeId>(v));
    double total = 0.0;
    std::size_t reached = 0;  // nodes that can reach v, excluding v itself
    for (std::size_t u = 0; u < n; ++u) {
      if (u == v || dist[u] == kUnreachable) continue;
      total += static_cast<double>(dist[u]);
      ++reached;
    }
    if (reached == 0 || total == 0.0) continue;
    const double r = static_cast<double>(reached);
    c[v] = (r / total) * (r / static_cast<double>(n - 1));
  }
  return c;
}

std::vector<double> all_shortest_path_lengths(const DiGraph& g) {
  std::vector<double> lengths;
  const std::size_t n = g.num_nodes();
  for (std::size_t s = 0; s < n; ++s) {
    const auto dist = graph::bfs_distances(g, static_cast<NodeId>(s));
    for (std::size_t t = 0; t < n; ++t) {
      if (t != s && dist[t] != kUnreachable) {
        lengths.push_back(static_cast<double>(dist[t]));
      }
    }
  }
  return lengths;
}

FeatureVector extract_features(const DiGraph& g) {
  FeatureVector f{};

  auto put5 = [&f](std::size_t base, const util::Summary5& s) {
    const double vals[5] = {s.min, s.max, s.median, s.mean, s.stddev};
    for (std::size_t i = 0; i < 5; ++i) {
      f[base + i] = std::isfinite(vals[i]) ? vals[i] : 0.0;
    }
  };

  // Qualified: ADL on DiGraph would otherwise also find the gea::graph
  // overloads and make the calls ambiguous.
  put5(kBetweennessMin, util::summary5(reference::betweenness_centrality(g)));
  put5(kClosenessMin, util::summary5(reference::closeness_centrality(g)));
  put5(kDegreeMin, util::summary5(graph::degree_centrality(g)));
  put5(kShortestPathMin,
       util::summary5(reference::all_shortest_path_lengths(g)));
  f[kDensity] = g.num_nodes() < 2 ? 0.0 : g.density();
  f[kNumEdges] = static_cast<double>(g.num_edges());
  f[kNumNodes] = static_cast<double>(g.num_nodes());
  return f;
}

}  // namespace gea::features::reference
