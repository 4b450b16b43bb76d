// Single-sweep traversal core for the Table-II feature path.
//
// The three all-sources quantities the 23-feature vector needs —
// betweenness centrality (Brandes), closeness centrality (incoming-distance
// sums), and the shortest-path-length population — all derive from the same
// per-source BFS. The seed implementation ran that BFS three times per
// graph (once inside Brandes, once reversed per closeness sink, once for
// the path population); `single_sweep` runs it once and feeds every
// requested sink from the shared distance array:
//
//  - betweenness: the Brandes dependency accumulation, walking the BFS
//    queue in reverse (the order Brandes' stack pops);
//  - path lengths: d(s,t) as 32-bit integers in (s, t) lexicographic
//    order, exactly the order the seed's all_shortest_path_lengths
//    produced, emitted from a visited bitmap;
//  - closeness: integer sum/count of incoming distances per target. The
//    seed summed the same distances in double; every partial sum of
//    integers below 2^53 is exact, so the result is bit-for-bit the same.
//
// Each sweep first copies the DiGraph's adjacency lists into CSR arrays
// (offsets plus targets, 32-bit), so the per-source traversals read flat
// memory instead of one heap vector per node behind a bounds check.
//
// Shortest-path counts are int64, as in the seed. A source whose counts
// overflow int64 (about 63 chained if/else diamonds) is recounted in double
// and its dependencies accumulated from those counts; every graph whose
// counts fit keeps its bits.
//
// All working storage lives in a caller-owned SweepScratch, so repeated
// sweeps (corpus featurization, GEA sweeps, serving) perform no per-graph
// heap allocations once the buffers have grown to the largest graph seen.
//
// Determinism contract: for every sink, the output is bitwise identical to
// the seed-era multi-pass implementations (betweenness_centrality,
// closeness_centrality, all_shortest_path_lengths). The property suite in
// tests/feature_engine_test.cpp holds this against the retained reference
// path in tests/support/features/reference.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace gea::graph {

/// Reusable working storage for single_sweep. Buffers only ever grow;
/// clearing keeps capacity, so steady-state sweeps allocate nothing.
struct SweepScratch {
  // CSR copy of the adjacency, rebuilt by every sweep: node u's out-targets
  // are out_adj[out_off[u] .. out_off[u+1]), in-sources likewise.
  std::vector<std::uint32_t> out_off;
  std::vector<NodeId> out_adj;
  std::vector<std::uint32_t> in_off;
  std::vector<NodeId> in_adj;
  // Brandes bookkeeping. Predecessor sets are not stored: the dependency
  // pass recovers them from `dist` over in-edges, which is cheaper and
  // provably order-neutral.
  std::vector<std::int64_t> sigma;  // shortest-path counts
  std::vector<double> sigma_wide;   // double counts, after an int64 overflow
  std::vector<std::int32_t> dist;   // BFS distance, -1 = unvisited
  std::vector<double> delta;        // dependency accumulator
  std::vector<NodeId> queue;        // BFS order; reversed, Brandes' stack
  // Closeness accumulators (incoming-distance sum / count per target).
  std::vector<std::uint64_t> close_total;
  std::vector<std::uint32_t> close_reached;
  // One bit per node reached from the current source; the path population
  // is emitted by walking it, which yields targets in ascending order.
  std::vector<std::uint64_t> reached_bits;

  /// Bytes currently reserved across all buffers (capacities). Stable
  /// across repeated sweeps of graphs no larger than the largest seen —
  /// the no-allocation invariant the engine tests assert.
  std::size_t footprint_bytes() const;
};

/// Output selection: any subset of the three sinks may be requested; null
/// sinks cost nothing beyond the shared BFS. Vectors are reset by the sweep
/// (sized to n / cleared), not appended to.
struct SweepSinks {
  std::vector<double>* betweenness = nullptr;  // per node; zeros for n < 3
  std::vector<double>* closeness = nullptr;    // per node; zeros for n < 2
  /// d(s,t) per reachable ordered pair s != t, sources ascending, then
  /// targets ascending.
  std::vector<std::uint32_t>* path_lengths = nullptr;
  /// Count per distance value of the path_lengths population (sized to n;
  /// a BFS distance is at most n-1). Integer order statistics of the
  /// population read straight off this, letting the feature engine skip
  /// the selection sort over the O(V^2) population.
  std::vector<std::uint64_t>* path_length_hist = nullptr;
};

/// One all-sources BFS sweep feeding every requested sink. O(V*(V+E)) like
/// a single Brandes run; the two extra traversals of the seed path are gone.
void single_sweep(const DiGraph& g, SweepScratch& scratch,
                  const SweepSinks& sinks);

/// Order-sensitive 128-bit digest of the graph's adjacency content (node
/// count plus each node's out-list, labels ignored). Two graphs with equal
/// digests featurize identically — adjacency order included, which is what
/// the bitwise determinism contract keys on. Collisions across two
/// independently mixed 64-bit lanes are negligible at corpus scale.
struct GraphDigest {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool operator==(const GraphDigest& o) const {
    return lo == o.lo && hi == o.hi;
  }
};

GraphDigest graph_digest(const DiGraph& g);

}  // namespace gea::graph
