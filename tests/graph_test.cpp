#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/algorithms.hpp"
#include "graph/centrality.hpp"
#include "graph/digraph.hpp"
#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "util/rng.hpp"

namespace {

using namespace gea::graph;
using gea::util::Rng;

// ---------------------------------------------------------------------------
// DiGraph basics

TEST(DiGraph, EmptyGraph) {
  DiGraph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.density(), 0.0);
  EXPECT_FALSE(g.validate().has_value());
}

TEST(DiGraph, AddNodesAndEdges) {
  DiGraph g;
  const auto a = g.add_node("A");
  const auto b = g.add_node("B");
  EXPECT_TRUE(g.add_edge(a, b));
  EXPECT_FALSE(g.add_edge(a, b));  // duplicate collapsed
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_FALSE(g.has_edge(b, a));
  EXPECT_EQ(g.label(a), "A");
}

TEST(DiGraph, SelfLoopAllowed) {
  DiGraph g(1);
  EXPECT_TRUE(g.add_edge(0, 0));
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_FALSE(g.validate().has_value());
}

TEST(DiGraph, OutAndInNeighbors) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(2), 2u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(DiGraph, EdgeToInvalidNodeThrows) {
  DiGraph g(2);
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
  EXPECT_THROW(g.has_edge(5, 0), std::out_of_range);
}

TEST(DiGraph, DensityOfCompleteGraph) {
  const auto g = complete_digraph(5);
  EXPECT_DOUBLE_EQ(g.density(), 1.0);
}

TEST(DiGraph, DensityOfPath) {
  const auto g = path_graph(4);  // 3 edges / 12 possible
  EXPECT_DOUBLE_EQ(g.density(), 0.25);
}

TEST(DiGraph, DensityDegenerate) {
  EXPECT_DOUBLE_EQ(DiGraph(1).density(), 0.0);
}

TEST(DiGraph, MergeDisjoint) {
  auto g = path_graph(3);
  const auto h = cycle_graph(4);
  const auto off = g.merge_disjoint(h);
  EXPECT_EQ(off, 3u);
  EXPECT_EQ(g.num_nodes(), 7u);
  EXPECT_EQ(g.num_edges(), 2u + 4u);
  EXPECT_TRUE(g.has_edge(off + 3, off + 0));  // cycle back edge
  EXPECT_FALSE(g.has_edge(2, off));           // no cross edges
  EXPECT_FALSE(g.validate().has_value());
}

TEST(DiGraph, SameStructure) {
  const auto a = cycle_graph(5);
  const auto b = cycle_graph(5);
  const auto c = path_graph(5);
  EXPECT_TRUE(a.same_structure(b));
  EXPECT_FALSE(a.same_structure(c));
}

// ---------------------------------------------------------------------------
// BFS / shortest paths

TEST(Algorithms, BfsDistancesOnPath) {
  const auto g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
  const auto d2 = bfs_distances(g, 2);
  EXPECT_EQ(d2[0], kUnreachable);  // directed: cannot go backwards
  EXPECT_EQ(d2[4], 2u);
}

TEST(Algorithms, BfsReverse) {
  const auto g = path_graph(4);
  const auto d = bfs_distances_reverse(g, 3);
  EXPECT_EQ(d[0], 3u);
  EXPECT_EQ(d[3], 0u);
}

TEST(Algorithms, AllShortestPathsPath3) {
  const auto g = path_graph(3);  // pairs: 0->1 (1), 0->2 (2), 1->2 (1)
  auto lengths = all_shortest_path_lengths(g);
  std::sort(lengths.begin(), lengths.end());
  EXPECT_EQ(lengths, (std::vector<double>{1.0, 1.0, 2.0}));
}

TEST(Algorithms, AverageShortestPathCycle) {
  const auto g = cycle_graph(4);  // distances 1,2,3 from each of 4 nodes
  EXPECT_DOUBLE_EQ(average_shortest_path_length(g), 2.0);
}

TEST(Algorithms, AverageShortestPathNoEdges) {
  EXPECT_DOUBLE_EQ(average_shortest_path_length(DiGraph(5)), 0.0);
}

TEST(Algorithms, WeaklyConnectedComponents) {
  DiGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(3, 2);  // direction ignored for WCC
  EXPECT_EQ(num_weakly_connected_components(g), 3u);  // {0,1},{2,3},{4}
  const auto comp = weakly_connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[4]);
}

TEST(Algorithms, ReachableFrom) {
  DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto r = reachable_from(g, 0);
  EXPECT_TRUE(r[0] && r[1] && r[2]);
  EXPECT_FALSE(r[3]);
  EXPECT_FALSE(all_reachable_from(g, 0));
  g.add_edge(0, 3);
  EXPECT_TRUE(all_reachable_from(g, 0));
}

TEST(Algorithms, TopologicalOrderOnDag) {
  DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto order = topological_order(g);
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < 4; ++i) pos[order[i]] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
  EXPECT_FALSE(has_cycle(g));
}

TEST(Algorithms, CycleDetection) {
  EXPECT_TRUE(has_cycle(cycle_graph(3)));
  EXPECT_FALSE(has_cycle(path_graph(3)));
  EXPECT_TRUE(topological_order(cycle_graph(3)).empty());
}

// ---------------------------------------------------------------------------
// Centrality: closed-form cases

TEST(Centrality, DegreeOnStar) {
  // 0 -> {1,2,3}: degree(0)=3, others 1; n-1=3.
  DiGraph g(4);
  for (NodeId v : {1u, 2u, 3u}) g.add_edge(0, v);
  const auto c = degree_centrality(g);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0 / 3.0);
}

TEST(Centrality, DegreeTinyGraphIsZero) {
  const auto c = degree_centrality(DiGraph(1));
  EXPECT_DOUBLE_EQ(c[0], 0.0);
}

TEST(Centrality, ClosenessOnPath) {
  // Path 0->1->2. Incoming distances: node 2 reached by {0:2, 1:1}.
  // C(2) = (2/3) * (2/2) = 2/3 ; C(1) = (1/1) * (1/2) = 0.5 ; C(0) = 0.
  const auto g = path_graph(3);
  const auto c = closeness_centrality(g);
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[1], 0.5);
  EXPECT_NEAR(c[2], 2.0 / 3.0, 1e-12);
}

TEST(Centrality, ClosenessOnCycleIsUniform) {
  const auto g = cycle_graph(5);
  const auto c = closeness_centrality(g);
  // Every node: r = 4, total distance 1+2+3+4 = 10; C = (4/10)*(4/4) = 0.4.
  for (double v : c) EXPECT_NEAR(v, 0.4, 1e-12);
}

TEST(Centrality, BetweennessOnPath) {
  // Path 0->1->2->3->4: interior node 2 lies on 0-2? no, on paths
  // 0->{3,4},1->{3,4} etc. For node k on a directed path of n nodes,
  // unnormalized bc(k) = k * (n-1-k).
  const auto g = path_graph(5);
  const auto bc = betweenness_centrality(g);
  const double norm = 4.0 * 3.0;
  EXPECT_NEAR(bc[0], 0.0, 1e-12);
  EXPECT_NEAR(bc[1], 1.0 * 3.0 / norm, 1e-12);
  EXPECT_NEAR(bc[2], 2.0 * 2.0 / norm, 1e-12);
  EXPECT_NEAR(bc[3], 3.0 * 1.0 / norm, 1e-12);
  EXPECT_NEAR(bc[4], 0.0, 1e-12);
}

TEST(Centrality, BetweennessCompleteGraphIsZero) {
  // Every pair is adjacent: no shortest path passes through a third node.
  const auto bc = betweenness_centrality(complete_digraph(5));
  for (double v : bc) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Centrality, BetweennessDiamondSplitsPaths) {
  // 0 -> {1,2} -> 3: two shortest 0->3 paths, each middle node carries 1/2.
  DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto bc = betweenness_centrality(g);
  const double norm = 3.0 * 2.0;
  EXPECT_NEAR(bc[1], 0.5 / norm, 1e-12);
  EXPECT_NEAR(bc[2], 0.5 / norm, 1e-12);
  EXPECT_NEAR(bc[0], 0.0, 1e-12);
  EXPECT_NEAR(bc[3], 0.0, 1e-12);
}

TEST(Centrality, TinyGraphsAllZero) {
  for (std::size_t n : {0u, 1u, 2u}) {
    const auto bc = betweenness_centrality(complete_digraph(n));
    for (double v : bc) EXPECT_EQ(v, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Property tests: Brandes vs brute-force reference on random graphs;
// centrality bounds on random CFG-shaped graphs.

class GraphPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphPropertyTest, BrandesMatchesReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1000 + 17);
  const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform_int(0, 12));
  const double p = rng.uniform(0.05, 0.5);
  const auto g = erdos_renyi(n, p, rng);
  const auto fast = betweenness_centrality(g);
  const auto slow = betweenness_centrality_reference(g);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-9) << "node " << i << " n=" << n;
  }
}

TEST_P(GraphPropertyTest, CentralityBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 5);
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 40));
  const auto g = random_cfg_shape(n, 0.4, 0.2, rng);
  for (double v : betweenness_centrality(g)) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
  for (double v : closeness_centrality(g)) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
  for (double v : degree_centrality(g)) EXPECT_GE(v, 0.0);
  EXPECT_GE(g.density(), 0.0);
  EXPECT_LE(g.density(), 1.0);
}

TEST_P(GraphPropertyTest, RandomCfgShapeInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 3);
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 60));
  const auto g = random_cfg_shape(n, 0.4, 0.2, rng);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_FALSE(g.validate().has_value());
  EXPECT_TRUE(all_reachable_from(g, 0));
  for (std::size_t u = 0; u + 1 < n; ++u) {
    EXPECT_GE(g.out_degree(static_cast<NodeId>(u)), 1u);
  }
}

TEST_P(GraphPropertyTest, ErdosRenyiValidates) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1234);
  const auto g = erdos_renyi(20, 0.2, rng);
  EXPECT_FALSE(g.validate().has_value());
  EXPECT_FALSE(g.has_edge(3, 3));  // no self loops
}

INSTANTIATE_TEST_SUITE_P(Sweep, GraphPropertyTest, ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// DOT export

TEST(Dot, ContainsNodesAndEdges) {
  DiGraph g(2);
  g.set_label(0, "entry");
  g.add_edge(0, 1);
  const auto dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("entry"), std::string::npos);
}

TEST(Dot, EscapesQuotesAndNewlines) {
  DiGraph g(1);
  g.set_label(0, "say \"hi\"\nline2");
  const auto dot = to_dot(g);
  EXPECT_NE(dot.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(dot.find("\\l"), std::string::npos);
}

TEST(Dot, WriteFileFailsOnBadPath) {
  EXPECT_THROW(write_dot(DiGraph(1), "/no_such_dir_xyz/a.dot"),
               std::runtime_error);
}

}  // namespace
