// FeatureEngine property suite: the single-sweep path must be bitwise
// identical to the seed-era multi-pass featurization (features/reference.hpp)
// over a broad population of generated graphs, the traversal scratch must
// stop allocating once warmed, and the content-addressed cache must behave
// as a bounded LRU whose entries are never polluted by fault injection.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "bingen/families.hpp"
#include "cfg/cfg.hpp"
#include "features/engine.hpp"
#include "features/features.hpp"
#include "features/reference.hpp"
#include "gea/embed.hpp"
#include "graph/algorithms.hpp"
#include "graph/centrality.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "graph/sweep.hpp"
#include "isa/program.hpp"
#include "obs/metrics.hpp"
#include "util/faultinject.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace gea;
using features::FeatureCache;
using features::FeatureEngine;
using features::FeatureVector;
using gea::util::Rng;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what,
                          std::size_t graph_index) {
  ASSERT_EQ(a.size(), b.size()) << what << ", graph " << graph_index;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i]), bits(b[i]))
        << what << "[" << i << "], graph " << graph_index << ": engine "
        << a[i] << " vs reference " << b[i];
  }
}

void expect_features_bitwise_equal(const FeatureVector& got,
                                   const FeatureVector& want,
                                   std::size_t graph_index) {
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << features::feature_name(i) << ", graph " << graph_index
        << ": engine " << got[i] << " vs reference " << want[i];
  }
}

/// `k` chained if/else diamonds: each condition block branches to a then
/// block and an else block that rejoin at the next condition, so the final
/// block is reached from the entry along 2^k shortest paths.
isa::Program diamond_chain_program(std::size_t k) {
  isa::ProgramBuilder b;
  b.begin_function("main");
  for (std::size_t i = 0; i < k; ++i) {
    const int other = b.new_label();
    const int join = b.new_label();
    b.cmpi(0, 0);
    b.jump(isa::Opcode::kJe, other);
    b.nop();  // then
    b.jump(isa::Opcode::kJmp, join);
    b.bind(other);
    b.nop();  // else
    b.bind(join);
  }
  b.halt();
  b.end_function();
  return b.build();
}

graph::DiGraph main_cfg(const isa::Program& p) {
  return cfg::extract_cfg(p, {.main_only = true}).graph;
}

/// The property-test population: CFG-shaped graphs, Erdos-Renyi at several
/// densities (p = 0 gives fully disconnected graphs), classic shapes, and
/// hand-built degenerate cases (empty, one node, self-loop, disjoint
/// unions). Deliberately over 200 graphs, and some past 64 nodes: there
/// the sweep's visited bitmap spans several words.
std::vector<graph::DiGraph> property_population() {
  Rng rng(20260806);
  std::vector<graph::DiGraph> pop;

  pop.emplace_back();                       // empty graph
  pop.push_back(graph::path_graph(1));      // single node, no edges
  {
    graph::DiGraph self_loop(1);            // one-block infinite loop
    self_loop.add_edge(0, 0);
    pop.push_back(std::move(self_loop));
  }
  {
    graph::DiGraph two_islands = graph::path_graph(3);  // disconnected union
    two_islands.merge_disjoint(graph::cycle_graph(4));
    pop.push_back(std::move(two_islands));
  }
  pop.push_back(graph::path_graph(2));
  pop.push_back(graph::cycle_graph(5));
  pop.push_back(graph::complete_digraph(6));

  for (std::size_t i = 0; i < 120; ++i) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 41));
    pop.push_back(graph::random_cfg_shape(n, 0.25 + 0.5 * rng.uniform(),
                                          0.2 * rng.uniform(), rng));
  }
  for (double p : {0.0, 0.05, 0.15, 0.4}) {
    for (std::size_t i = 0; i < 20; ++i) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 30));
      pop.push_back(graph::erdos_renyi(n, p, rng));
    }
  }

  for (std::size_t n : {63, 64, 65, 127, 128, 129, 200, 257}) {
    pop.push_back(graph::random_cfg_shape(n, 0.25 + 0.5 * rng.uniform(),
                                          0.2 * rng.uniform(), rng));
  }
  // Real CFGs of a few hundred blocks: served programs at size_scale 8
  // and GEA combined graphs.
  bingen::GenOptions large;
  large.size_scale = 8.0;
  for (auto family : {bingen::Family::kMiraiLike, bingen::Family::kGafgytLike,
                      bingen::Family::kBenignDaemon}) {
    pop.push_back(main_cfg(bingen::generate_program(family, rng, large)));
  }
  for (auto [org, sel] :
       {std::pair{bingen::Family::kTsunamiLike, bingen::Family::kBenignUtility},
        std::pair{bingen::Family::kBenignNetTool, bingen::Family::kMiraiLike},
        std::pair{bingen::Family::kGafgytLike, bingen::Family::kBenignDaemon}}) {
    const auto original = bingen::generate_program(org, rng);
    const auto selected = bingen::generate_program(sel, rng);
    pop.push_back(main_cfg(aug::embed_program(original, selected)));
  }
  // 2^62 shortest paths into the last block: the largest diamond chain
  // whose counts still fit in int64.
  pop.push_back(main_cfg(diamond_chain_program(62)));
  return pop;
}

// ---------------------------------------------------------------------------
// Bitwise identity with the seed-era path

TEST(FeatureEngineProperty, BitwiseIdenticalToSeedReference) {
  const auto pop = property_population();
  ASSERT_GE(pop.size(), 200u);
  FeatureEngine engine;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    expect_features_bitwise_equal(engine.extract(pop[i]),
                                  features::reference::extract_features(pop[i]),
                                  i);
  }
}

TEST(FeatureEngineProperty, FreeFunctionStillBitwiseIdentical) {
  // extract_features() now routes through the thread-local engine; the
  // public contract (what every old call site sees) must not move either.
  const auto pop = property_population();
  for (std::size_t i = 0; i < pop.size(); i += 7) {
    expect_features_bitwise_equal(features::extract_features(pop[i]),
                                  features::reference::extract_features(pop[i]),
                                  i);
  }
}

TEST(FeatureEngineProperty, GraphPrimitivesDelegateBitwiseIdentically) {
  // The public graph-layer entry points now delegate to the sweep core;
  // each must match its seed implementation bit for bit.
  const auto pop = property_population();
  for (std::size_t i = 0; i < pop.size(); i += 3) {
    const auto& g = pop[i];
    expect_bitwise_equal(graph::betweenness_centrality(g),
                         features::reference::betweenness_centrality(g),
                         "betweenness", i);
    expect_bitwise_equal(graph::closeness_centrality(g),
                         features::reference::closeness_centrality(g),
                         "closeness", i);
    expect_bitwise_equal(graph::all_shortest_path_lengths(g),
                         features::reference::all_shortest_path_lengths(g),
                         "path_lengths", i);
  }
}

TEST(FeatureEngineProperty, AverageShortestPathMatchesReferencePopulation) {
  Rng rng(7);
  for (std::size_t i = 0; i < 25; ++i) {
    const auto g = graph::random_cfg_shape(3 + i, 0.5, 0.1, rng);
    const auto lengths = features::reference::all_shortest_path_lengths(g);
    double sum = 0.0;
    for (double d : lengths) sum += d;
    const double want =
        lengths.empty() ? 0.0 : sum / static_cast<double>(lengths.size());
    EXPECT_EQ(bits(graph::average_shortest_path_length(g)), bits(want));
  }
}

TEST(FeatureEngineProperty, SweepWithNullSinksIsANoop) {
  Rng rng(11);
  const auto g = graph::random_cfg_shape(12, 0.5, 0.1, rng);
  graph::SweepScratch scratch;
  single_sweep(g, scratch, {});  // must not crash or write anywhere
  std::vector<double> bc;
  single_sweep(g, scratch, {.betweenness = &bc});
  expect_bitwise_equal(bc, features::reference::betweenness_centrality(g),
                       "betweenness-only sweep", 0);
}

TEST(FeatureEngineProperty, PopulationCrossesOneBitmapWord) {
  const auto pop = property_population();
  std::size_t above_64 = 0, above_256 = 0;
  for (const auto& g : pop) {
    above_64 += g.num_nodes() > 64 ? 1 : 0;
    above_256 += g.num_nodes() > 256 ? 1 : 0;
  }
  EXPECT_GE(above_64, 10u);
  EXPECT_GE(above_256, 1u);
}

// ---------------------------------------------------------------------------
// Shortest-path counts past int64

TEST(FeatureEngineOverflow, DiamondChainPastInt64CountsInDouble) {
  // 70 diamonds: 2^70 shortest paths from the entry to the exit. The sweep
  // recounts such sources in double. (features::reference counts in int64
  // like the seed and would overflow here, so it is not called.)
  const auto g = main_cfg(diamond_chain_program(70));
  ASSERT_EQ(g.num_nodes(), 211u);
  const auto want = graph::betweenness_centrality_reference(g);
  const auto got = graph::betweenness_centrality(g);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < got.size(); ++v) {
    EXPECT_NEAR(got[v], want[v], 1e-9 * std::abs(want[v])) << "node " << v;
  }

  const auto f = FeatureEngine().extract(g);
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    EXPECT_TRUE(std::isfinite(f[i])) << features::feature_name(i);
  }
  const auto bc = util::summary5(want);
  const double fb[5] = {f[features::kBetweennessMin],
                        f[features::kBetweennessMax],
                        f[features::kBetweennessMedian],
                        f[features::kBetweennessMean],
                        f[features::kBetweennessStd]};
  const double wb[5] = {bc.min, bc.max, bc.median, bc.mean, bc.stddev};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(fb[i], wb[i], 1e-9 * std::abs(wb[i])) << "betweenness stat " << i;
  }
}

// ---------------------------------------------------------------------------
// Scratch reuse: no per-graph allocations once warmed

TEST(FeatureEngineScratch, FootprintStableOnceWarmed) {
  // Buffers only ever grow, and a graph the engine has already featurized
  // needs nothing new — so a second pass over the same workload must leave
  // the footprint untouched. (Warming is per *structure*, not just per
  // size: a small dense graph can still grow a predecessor list a larger
  // sparse one never needed.)
  Rng rng(99);
  std::vector<graph::DiGraph> workload;
  workload.push_back(graph::random_cfg_shape(60, 0.6, 0.15, rng));
  for (std::size_t i = 0; i < 30; ++i) {
    workload.push_back(graph::random_cfg_shape(
        static_cast<std::size_t>(rng.uniform_int(2, 60)), 0.5, 0.1, rng));
  }
  FeatureEngine engine;
  for (const auto& g : workload) engine.extract(g);  // warming pass
  const std::size_t warmed = engine.scratch_bytes();
  ASSERT_GT(warmed, 0u);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    engine.extract(workload[i]);
    ASSERT_EQ(engine.scratch_bytes(), warmed)
        << "scratch grew on repeat extraction " << i
        << " — the steady-state no-allocation invariant is broken";
  }
}

// ---------------------------------------------------------------------------
// Graph digest (the cache key)

TEST(GraphDigest, EqualGraphsEqualDigests) {
  Rng rng_a(5), rng_b(5);
  const auto a = graph::random_cfg_shape(20, 0.5, 0.1, rng_a);
  const auto b = graph::random_cfg_shape(20, 0.5, 0.1, rng_b);
  EXPECT_TRUE(graph_digest(a) == graph_digest(b));
}

TEST(GraphDigest, EdgeAndNodePerturbationsChangeDigest) {
  const auto base = graph::path_graph(6);
  auto extra_edge = base;
  extra_edge.add_edge(0, 5);
  auto extra_node = base;
  extra_node.add_node();
  EXPECT_FALSE(graph_digest(base) == graph_digest(extra_edge));
  EXPECT_FALSE(graph_digest(base) == graph_digest(extra_node));
  EXPECT_FALSE(graph_digest(extra_edge) == graph_digest(extra_node));
}

TEST(GraphDigest, LabelsDoNotAffectDigest) {
  auto a = graph::path_graph(4);
  auto b = graph::path_graph(4);
  b.set_label(0, "entry");
  b.set_label(3, "exit");
  EXPECT_TRUE(graph_digest(a) == graph_digest(b));
}

// ---------------------------------------------------------------------------
// FeatureCache: bounded LRU semantics

TEST(FeatureCacheTest, HitReturnsInsertedVectorAndCounts) {
  FeatureCache cache(8);
  const auto g = graph::cycle_graph(5);
  const auto key = graph_digest(g);
  FeatureVector out{};
  EXPECT_FALSE(cache.lookup(key, out));
  EXPECT_EQ(cache.misses(), 1u);

  const auto fv = features::reference::extract_features(g);
  cache.insert(key, fv);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.lookup(key, out));
  EXPECT_EQ(cache.hits(), 1u);
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    EXPECT_EQ(bits(out[i]), bits(fv[i]));
  }
}

TEST(FeatureCacheTest, EvictsLeastRecentlyUsed) {
  FeatureCache cache(2);
  const auto ka = graph_digest(graph::path_graph(2));
  const auto kb = graph_digest(graph::path_graph(3));
  const auto kc = graph_digest(graph::path_graph(4));
  FeatureVector fv{}, out{};
  cache.insert(ka, fv);
  cache.insert(kb, fv);
  // Touch A so B becomes the LRU entry, then overflow with C.
  ASSERT_TRUE(cache.lookup(ka, out));
  cache.insert(kc, fv);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup(ka, out));   // survived (recently used)
  EXPECT_FALSE(cache.lookup(kb, out));  // evicted
  EXPECT_TRUE(cache.lookup(kc, out));
}

TEST(FeatureCacheTest, ZeroCapacityClampsToOne) {
  FeatureCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  const auto ka = graph_digest(graph::path_graph(2));
  const auto kb = graph_digest(graph::path_graph(3));
  FeatureVector fv{}, out{};
  cache.insert(ka, fv);
  cache.insert(kb, fv);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.lookup(ka, out));
  EXPECT_TRUE(cache.lookup(kb, out));
}

TEST(FeatureCacheTest, SharedAcrossEnginesAndBitwiseTransparent) {
  auto cache = std::make_shared<FeatureCache>(16);
  FeatureEngine warm(cache);
  FeatureEngine cold(cache);
  Rng rng(42);
  const auto g = graph::random_cfg_shape(18, 0.5, 0.1, rng);
  const auto miss_fv = warm.extract(g);   // computes and caches
  const auto hit_fv = cold.extract(g);    // other engine, same cache
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(cache->hits(), 1u);
  expect_features_bitwise_equal(hit_fv, miss_fv, 0);
  expect_features_bitwise_equal(hit_fv,
                                features::reference::extract_features(g), 0);
}

TEST(FeatureCacheTest, ObsCountersTrackCacheActivity) {
  auto& registry = obs::MetricsRegistry::global();
  const auto hits0 = registry.counter("features.cache.hits").value();
  const auto misses0 = registry.counter("features.cache.misses").value();
  FeatureEngine engine(std::make_shared<FeatureCache>(4));
  const auto g = graph::cycle_graph(7);
  engine.extract(g);
  engine.extract(g);
  EXPECT_EQ(registry.counter("features.cache.misses").value(), misses0 + 1);
  EXPECT_EQ(registry.counter("features.cache.hits").value(), hits0 + 1);
}

// ---------------------------------------------------------------------------
// Fault injection through the engine (cache must stay clean)

TEST(FeatureEngineFaults, NanFaultFiresOnEngineAndCacheStaysClean) {
  FeatureEngine engine(std::make_shared<FeatureCache>(4));
  const auto g = graph::cycle_graph(6);
  {
    util::ScopedFault fault(util::faults::kFeatureNaN, 0, 1);
    const auto poisoned = engine.extract(g);
    EXPECT_TRUE(std::isnan(poisoned[features::kDensity]));
  }
  // The poisoned vector was the returned copy only: the cached entry (and
  // every later extraction) is the clean computation.
  const auto clean = engine.extract(g);
  EXPECT_TRUE(std::isfinite(clean[features::kDensity]));
  expect_features_bitwise_equal(clean,
                                features::reference::extract_features(g), 0);
}

TEST(FeatureEngineFaults, InfFaultAppliesOnCacheHitToo) {
  // Counted arming targets a specific extraction; a cache hit must still
  // honor it, or the robustness suite's skip counts would depend on cache
  // state.
  FeatureEngine engine(std::make_shared<FeatureCache>(4));
  const auto g = graph::cycle_graph(6);
  engine.extract(g);  // prime the cache
  util::ScopedFault fault(util::faults::kFeatureInf, 0, 1);
  const auto poisoned = engine.extract(g);  // a hit — fault still fires
  EXPECT_TRUE(std::isinf(poisoned[features::kShortestPathMean]));
}

}  // namespace
