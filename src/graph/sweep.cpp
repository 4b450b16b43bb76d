#include "graph/sweep.hpp"

#include <bit>

namespace gea::graph {

std::size_t SweepScratch::footprint_bytes() const {
  return (out_off.capacity() + out_adj.capacity() + in_off.capacity() +
          in_adj.capacity() + queue.capacity() + close_reached.capacity()) *
             sizeof(std::uint32_t) +
         sigma.capacity() * sizeof(std::int64_t) +
         sigma_wide.capacity() * sizeof(double) +
         dist.capacity() * sizeof(std::int32_t) +
         delta.capacity() * sizeof(double) +
         (close_total.capacity() + reached_bits.capacity()) *
             sizeof(std::uint64_t);
}

namespace {

/// Copy one direction of g's adjacency into CSR arrays. Node ids are
/// 32-bit, and so are edge offsets: a simple graph with 2^32 edges would
/// not fit in memory as a DiGraph in the first place.
template <typename Neighbors>
void to_csr(std::size_t n, Neighbors neighbors, std::vector<std::uint32_t>& off,
            std::vector<NodeId>& adj) {
  off.resize(n + 1);
  adj.clear();
  for (std::size_t u = 0; u < n; ++u) {
    off[u] = static_cast<std::uint32_t>(adj.size());
    const auto nbrs = neighbors(static_cast<NodeId>(u));
    adj.insert(adj.end(), nbrs.begin(), nbrs.end());
  }
  off[n] = static_cast<std::uint32_t>(adj.size());
}

/// BFS from `src` over the CSR out-adjacency. Fills queue[0, visited) in
/// visit order, and dist and the shortest-path counts sigma for those
/// nodes. Returns the visited count; `overflow` is set when a count left
/// int64 (the wrapped counts are then unusable).
std::size_t bfs(NodeId src, const std::uint32_t* off, const NodeId* adj,
                std::int32_t* dist, std::int64_t* sigma, NodeId* queue,
                bool& overflow) {
  std::size_t tail = 0;
  dist[src] = 0;
  sigma[src] = 1;
  queue[tail++] = src;
  for (std::size_t head = 0; head < tail; ++head) {
    const NodeId u = queue[head];
    const std::int32_t next = dist[u] + 1;
    for (std::uint32_t e = off[u]; e < off[u + 1]; ++e) {
      const NodeId w = adj[e];
      if (dist[w] < 0) {
        dist[w] = next;
        queue[tail++] = w;
      }
      if (dist[w] == next) {
        overflow |= __builtin_add_overflow(sigma[w], sigma[u], &sigma[w]);
      }
    }
  }
  return tail;
}

/// Brandes' dependency accumulation for one source, popping the BFS queue
/// from the back. queue[0] is the source: it has no predecessors and no
/// betweenness of its own, so the pass stops above it. Predecessors of w
/// are the in-neighbours u with dist[u] + 1 == dist[w] (an unvisited u has
/// dist -1 and dist[w] >= 1, so it never matches). Within one w every
/// delta[u] is a distinct accumulator, so the enumeration order cannot
/// change any floating-point sum.
template <typename Count>
void accumulate_dependencies(const std::uint32_t* in_off, const NodeId* in_adj,
                             const NodeId* queue, std::size_t visited,
                             const std::int32_t* dist, const Count* sigma,
                             double* delta, double* bc) {
  for (std::size_t i = visited; i-- > 1;) {
    const NodeId w = queue[i];
    const std::int32_t pred_dist = dist[w] - 1;
    const double sigma_w = static_cast<double>(sigma[w]);
    const double weight = 1.0 + delta[w];
    for (std::uint32_t e = in_off[w]; e < in_off[w + 1]; ++e) {
      const NodeId u = in_adj[e];
      if (dist[u] == pred_dist) {
        delta[u] += static_cast<double>(sigma[u]) / sigma_w * weight;
      }
    }
    bc[w] += delta[w];
  }
}

}  // namespace

void single_sweep(const DiGraph& g, SweepScratch& s, const SweepSinks& sinks) {
  const std::size_t n = g.num_nodes();
  const bool want_bc = sinks.betweenness != nullptr;
  const bool want_cc = sinks.closeness != nullptr;
  const bool want_sp = sinks.path_lengths != nullptr;
  const bool want_hist = sinks.path_length_hist != nullptr;

  if (want_bc) sinks.betweenness->assign(n, 0.0);
  if (want_cc) sinks.closeness->assign(n, 0.0);
  if (want_sp) sinks.path_lengths->clear();
  if (want_hist) sinks.path_length_hist->assign(n, 0);

  // Seed-path degenerate contract: betweenness is identically zero below
  // three nodes (no interior vertices), closeness below two.
  const bool brandes = want_bc && n >= 3;
  const bool closeness = want_cc && n >= 2;
  if (n == 0 || (!brandes && !closeness && !want_sp && !want_hist)) return;

  to_csr(n, [&g](NodeId u) { return g.out_neighbors(u); }, s.out_off,
         s.out_adj);
  if (brandes) {
    to_csr(n, [&g](NodeId u) { return g.in_neighbors(u); }, s.in_off,
           s.in_adj);
  }

  // Grow-only sizing, maintaining the cross-call invariant that every
  // element reads "untouched": dist == -1, sigma == 0, sigma_wide == 0,
  // delta == 0, reached_bits == 0. Each source restores the invariant for
  // exactly the nodes it visited, so per-source setup costs O(visited),
  // not O(n) fills. Path counts are taken on every sweep (one add per BFS
  // DAG edge) and read only by the Brandes pass.
  if (s.dist.size() < n) s.dist.resize(n, -1);
  if (s.queue.size() < n) s.queue.resize(n);
  if (s.sigma.size() < n) s.sigma.resize(n, 0);
  if (brandes && s.delta.size() < n) s.delta.resize(n, 0.0);
  if (closeness) {
    s.close_total.assign(n, 0);
    s.close_reached.assign(n, 0);
  }
  const std::size_t words = (n + 63) / 64;
  if (want_sp && s.reached_bits.size() < words) s.reached_bits.resize(words, 0);

  const std::uint32_t* out_off = s.out_off.data();
  const NodeId* out_adj = s.out_adj.data();
  std::int32_t* dist = s.dist.data();
  std::int64_t* sigma = s.sigma.data();
  NodeId* queue = s.queue.data();
  std::uint64_t* hist = want_hist ? sinks.path_length_hist->data() : nullptr;
  std::uint64_t* close_total = s.close_total.data();
  std::uint32_t* close_reached = s.close_reached.data();
  std::uint64_t* reached_bits = s.reached_bits.data();

  for (std::size_t src = 0; src < n; ++src) {
    bool overflow = false;
    const std::size_t visited = bfs(static_cast<NodeId>(src), out_off,
                                    out_adj, dist, sigma, queue, overflow);

    // Distances to the nodes this source reached (queue[0] is the source
    // itself, d = 0, outside every population). Integer accumulators make
    // the visit order irrelevant to the closeness sums and the histogram.
    for (std::size_t i = 1; i < visited; ++i) {
      const NodeId t = queue[i];
      const auto d = static_cast<std::uint32_t>(dist[t]);
      if (want_hist) ++hist[d];
      if (closeness) {
        close_total[t] += d;
        ++close_reached[t];
      }
      if (want_sp) reached_bits[t / 64] |= std::uint64_t{1} << (t % 64);
    }

    // The population in the seed's order (targets ascending within a
    // source): walk the bitmap a word at a time, clearing it as it goes.
    if (want_sp) {
      for (std::size_t wi = 0; wi < words; ++wi) {
        std::uint64_t word = reached_bits[wi];
        if (word == 0) continue;
        reached_bits[wi] = 0;
        do {
          const std::size_t t = wi * 64 + std::countr_zero(word);
          sinks.path_lengths->push_back(static_cast<std::uint32_t>(dist[t]));
          word &= word - 1;
        } while (word != 0);
      }
    }

    if (brandes && !overflow) {
      accumulate_dependencies(s.in_off.data(), s.in_adj.data(), queue, visited,
                              dist, sigma, s.delta.data(),
                              sinks.betweenness->data());
    } else if (brandes) {
      // Recount this source in double, in the BFS's own order: dist is
      // final, so `dist[w] == dist[u] + 1` picks the same contributions.
      if (s.sigma_wide.size() < n) s.sigma_wide.resize(n, 0.0);
      double* wide = s.sigma_wide.data();
      wide[src] = 1.0;
      for (std::size_t i = 0; i < visited; ++i) {
        const NodeId u = queue[i];
        for (std::uint32_t e = out_off[u]; e < out_off[u + 1]; ++e) {
          const NodeId w = out_adj[e];
          if (dist[w] == dist[u] + 1) wide[w] += wide[u];
        }
      }
      accumulate_dependencies(s.in_off.data(), s.in_adj.data(), queue, visited,
                              dist, wide, s.delta.data(),
                              sinks.betweenness->data());
      for (std::size_t i = 0; i < visited; ++i) wide[queue[i]] = 0.0;
    }

    // Restore the untouched invariant for the nodes this source visited.
    for (std::size_t i = 0; i < visited; ++i) {
      const NodeId v = queue[i];
      dist[v] = -1;
      sigma[v] = 0;
      if (brandes) s.delta[v] = 0.0;
    }
  }

  if (brandes) {
    const double norm =
        static_cast<double>(n - 1) * static_cast<double>(n - 2);
    for (auto& b : *sinks.betweenness) b /= norm;
  }
  if (closeness) {
    for (std::size_t v = 0; v < n; ++v) {
      const std::uint32_t reached = close_reached[v];
      const std::uint64_t total = close_total[v];
      if (reached == 0 || total == 0) continue;
      const double r = static_cast<double>(reached);
      (*sinks.closeness)[v] =
          (r / static_cast<double>(total)) * (r / static_cast<double>(n - 1));
    }
  }
}

namespace {

/// splitmix64 finalizer — the per-word mixer for both digest lanes.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

GraphDigest graph_digest(const DiGraph& g) {
  GraphDigest d;
  d.lo = 0x6a09e667f3bcc908ULL;  // distinct lane seeds
  d.hi = 0xbb67ae8584caa73bULL;
  auto feed = [&d](std::uint64_t x) {
    d.lo = mix64(d.lo ^ x);
    d.hi = mix64(d.hi + (x ^ 0xa5a5a5a5a5a5a5a5ULL));
  };
  const std::size_t n = g.num_nodes();
  feed(n);
  for (std::size_t u = 0; u < n; ++u) {
    const auto out = g.out_neighbors(static_cast<NodeId>(u));
    feed(out.size());
    for (NodeId v : out) feed(v);
  }
  return d;
}

}  // namespace gea::graph
