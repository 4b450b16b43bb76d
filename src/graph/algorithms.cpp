#include "graph/algorithms.hpp"

#include <deque>

#include "graph/sweep.hpp"

namespace gea::graph {

namespace {

template <typename NeighborFn>
std::vector<std::uint32_t> bfs_impl(std::size_t n, NodeId source,
                                    NeighborFn&& neighbors) {
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const DiGraph& g, NodeId source) {
  return bfs_impl(g.num_nodes(), source,
                  [&](NodeId u) { return g.out_neighbors(u); });
}

std::vector<std::uint32_t> bfs_distances_reverse(const DiGraph& g, NodeId sink) {
  return bfs_impl(g.num_nodes(), sink,
                  [&](NodeId u) { return g.in_neighbors(u); });
}

std::vector<double> all_shortest_path_lengths(const DiGraph& g) {
  std::vector<std::uint32_t> lengths;
  SweepScratch scratch;
  single_sweep(g, scratch, {.path_lengths = &lengths});
  return {lengths.begin(), lengths.end()};
}

double average_shortest_path_length(const DiGraph& g) {
  // Delegates to the single-sweep core via all_shortest_path_lengths.
  const auto lengths = all_shortest_path_lengths(g);
  if (lengths.empty()) return 0.0;
  double s = 0.0;
  for (double d : lengths) s += d;
  return s / static_cast<double>(lengths.size());
}

std::vector<std::uint32_t> weakly_connected_components(const DiGraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<std::uint32_t> comp(n, kUnreachable);
  std::uint32_t next = 0;
  std::deque<NodeId> queue;
  for (std::size_t s = 0; s < n; ++s) {
    if (comp[s] != kUnreachable) continue;
    comp[s] = next;
    queue.push_back(static_cast<NodeId>(s));
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      auto visit = [&](NodeId v) {
        if (comp[v] == kUnreachable) {
          comp[v] = next;
          queue.push_back(v);
        }
      };
      for (NodeId v : g.out_neighbors(u)) visit(v);
      for (NodeId v : g.in_neighbors(u)) visit(v);
    }
    ++next;
  }
  return comp;
}

std::size_t num_weakly_connected_components(const DiGraph& g) {
  const auto comp = weakly_connected_components(g);
  std::uint32_t mx = 0;
  for (auto c : comp) mx = std::max(mx, c + 1);
  return g.num_nodes() == 0 ? 0 : mx;
}

std::vector<bool> reachable_from(const DiGraph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  std::vector<bool> r(dist.size());
  for (std::size_t i = 0; i < dist.size(); ++i) r[i] = dist[i] != kUnreachable;
  return r;
}

bool all_reachable_from(const DiGraph& g, NodeId source) {
  const auto r = reachable_from(g, source);
  for (bool b : r) {
    if (!b) return false;
  }
  return true;
}

std::vector<NodeId> topological_order(const DiGraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<std::uint32_t> indeg(n);
  for (std::size_t u = 0; u < n; ++u) {
    indeg[u] = static_cast<std::uint32_t>(g.in_degree(static_cast<NodeId>(u)));
  }
  std::deque<NodeId> queue;
  for (std::size_t u = 0; u < n; ++u) {
    if (indeg[u] == 0) queue.push_back(static_cast<NodeId>(u));
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    order.push_back(u);
    for (NodeId v : g.out_neighbors(u)) {
      if (--indeg[v] == 0) queue.push_back(v);
    }
  }
  if (order.size() != n) return {};
  return order;
}

bool has_cycle(const DiGraph& g) {
  return g.num_nodes() != 0 && topological_order(g).empty();
}

}  // namespace gea::graph
