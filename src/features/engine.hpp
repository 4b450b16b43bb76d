// FeatureEngine: the unified Table-II featurization path.
//
// One engine owns all traversal scratch (graph/sweep.hpp) plus the summary
// buffers, so extracting the 23 features costs a single all-sources sweep
// and — once warmed up to the largest graph seen — zero heap allocations.
// Output is bitwise identical to the seed-era multi-pass path (see
// tests/support/features/reference.hpp and the property suite in
// tests/feature_engine_test.cpp).
//
// Threading: an engine is single-threaded by design (it IS the scratch).
// Parallel stages hold one engine per worker — corpus featurization builds
// one per chunk, serving and the GEA harness use the per-thread
// FeatureEngine::local(). A FeatureCache, by contrast, is thread-safe and
// meant to be shared across engines.
//
// FeatureCache: content-addressed (graph adjacency digest -> FeatureVector)
// bounded LRU. GEA sweeps re-featurize combined graphs that repeat across
// rows sharing a graft target, and serving sees repeat binaries; both skip
// the traversal entirely on a hit. Hit/miss/eviction counts feed the obs
// registry ("features.cache.*"). Cached vectors are always the clean
// computation — armed fault points (util/faultinject) corrupt only the
// returned copy, never the cache.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "features/features.hpp"
#include "graph/digraph.hpp"
#include "graph/sweep.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace gea::features {

class DiskFeatureCache;

/// Thread-safe bounded LRU over graph digests. Capacity is clamped to at
/// least one entry. Lookups and inserts take one internal mutex — cheap
/// next to the traversal a hit avoids; do not hold it across
/// featurization. The hit/miss/eviction counts are obs::Tally reads.
///
/// An optional *persistent tier* (features/disk_cache.hpp) sits beneath the
/// LRU: a memory miss consults the tier and promotes its answer (counted as
/// a hit — the caller got data without a traversal), and every computed
/// insert writes through, so warm re-runs over an on-disk corpus skip cold
/// featurization entirely. Promotions do not write through (the tier
/// already holds them).
class FeatureCache {
 public:
  explicit FeatureCache(std::size_t capacity);

  /// True and fills `out` on a hit (the entry becomes most recently used).
  bool lookup(const graph::GraphDigest& key, FeatureVector& out);
  /// Insert or refresh; evicts the least recently used entry when full.
  void insert(const graph::GraphDigest& key, const FeatureVector& fv);

  /// Attach/detach (nullptr) the persistent tier. The tier owns its own
  /// durability (flush); the LRU only reads through and writes through.
  void set_persistent_tier(std::shared_ptr<DiskFeatureCache> tier);
  const std::shared_ptr<DiskFeatureCache>& persistent_tier() const {
    return tier_;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  std::uint64_t hits() const { return hits_.value(); }
  std::uint64_t misses() const { return misses_.value(); }
  std::uint64_t evictions() const { return evictions_.value(); }

 private:
  struct KeyHash {
    std::size_t operator()(const graph::GraphDigest& k) const {
      return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
    }
  };
  using Entry = std::pair<graph::GraphDigest, FeatureVector>;

  /// Insert under mu_ without consulting or writing the tier.
  void insert_locked(const graph::GraphDigest& key, const FeatureVector& fv);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<graph::GraphDigest, std::list<Entry>::iterator, KeyHash>
      index_;
  std::shared_ptr<DiskFeatureCache> tier_;
  obs::Tally hits_{"features.cache.hits"};
  obs::Tally misses_{"features.cache.misses"};
  obs::Tally evictions_{"features.cache.evictions"};
  obs::Gauge& size_gauge_;  // "features.cache.size"
};

/// Single-sweep 23-feature extractor with reusable scratch and an optional
/// shared cache. See file comment for the threading contract.
class FeatureEngine {
 public:
  FeatureEngine() = default;
  explicit FeatureEngine(std::shared_ptr<FeatureCache> cache)
      : cache_(std::move(cache)) {}

  /// Extract the 23 Table-II features, via the engine's cache if set.
  FeatureVector extract(const graph::DiGraph& g) {
    return extract(g, cache_.get());
  }

  /// Extract with an explicit cache (nullptr = uncached). Lets per-thread
  /// engines share a caller-owned cache (the serving path) without
  /// rebinding the engine.
  FeatureVector extract(const graph::DiGraph& g, FeatureCache* cache);

  void set_cache(std::shared_ptr<FeatureCache> cache) {
    cache_ = std::move(cache);
  }
  const std::shared_ptr<FeatureCache>& cache() const { return cache_; }

  /// Bytes reserved across all scratch buffers. Stable across repeated
  /// extractions of graphs no larger than the largest seen — the
  /// no-per-graph-allocation invariant, asserted by the engine tests.
  std::size_t scratch_bytes() const;

  /// The calling thread's engine (no cache). This is what the free
  /// extract_features() uses, so every thread in a parallel stage gets
  /// scratch reuse without wiring an engine through.
  static FeatureEngine& local();

 private:
  FeatureVector compute(const graph::DiGraph& g);
  /// Shortest-path summary5 from the sweep's distance histogram — bitwise
  /// identical to util::summary5 over the population, without its copy and
  /// selection (see the implementation comment for the exactness argument).
  util::Summary5 path_length_summary() const;

  graph::SweepScratch scratch_;
  std::vector<double> betweenness_;
  std::vector<double> closeness_;
  std::vector<double> degree_;
  std::vector<std::uint32_t> lengths_;
  std::vector<std::uint64_t> hist_;
  std::vector<double> summary_tmp_;
  std::shared_ptr<FeatureCache> cache_;
};

}  // namespace gea::features
