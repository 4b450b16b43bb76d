#include "graph/centrality.hpp"

#include "graph/sweep.hpp"

namespace gea::graph {

std::vector<double> degree_centrality(const DiGraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<double> c(n, 0.0);
  if (n < 2) return c;
  const double denom = static_cast<double>(n - 1);
  for (std::size_t u = 0; u < n; ++u) {
    c[u] = static_cast<double>(g.degree(static_cast<NodeId>(u))) / denom;
  }
  return c;
}

std::vector<double> closeness_centrality(const DiGraph& g) {
  std::vector<double> c;
  SweepScratch scratch;
  single_sweep(g, scratch, {.closeness = &c});
  return c;
}

std::vector<double> betweenness_centrality(const DiGraph& g) {
  std::vector<double> bc;
  SweepScratch scratch;
  single_sweep(g, scratch, {.betweenness = &bc});
  return bc;
}

}  // namespace gea::graph
