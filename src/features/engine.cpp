#include "features/engine.hpp"

#include <cmath>
#include <limits>

#include "features/disk_cache.hpp"
#include "util/faultinject.hpp"
#include "util/stats.hpp"

namespace gea::features {

FeatureCache::FeatureCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      size_gauge_(
          obs::MetricsRegistry::global().gauge("features.cache.size")) {}

bool FeatureCache::lookup(const graph::GraphDigest& key, FeatureVector& out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
    out = it->second->second;
    hits_.inc();
    return true;
  }
  // Memory miss: consult the persistent tier and promote its answer. A
  // promotion counts as a hit — the caller got features without a
  // traversal — and is not written back through (the tier holds it).
  if (tier_ != nullptr && tier_->lookup(key, out)) {
    insert_locked(key, out);
    hits_.inc();
    return true;
  }
  misses_.inc();
  return false;
}

void FeatureCache::insert(const graph::GraphDigest& key,
                          const FeatureVector& fv) {
  std::lock_guard<std::mutex> lock(mu_);
  insert_locked(key, fv);
  if (tier_ != nullptr) tier_->insert(key, fv);  // write-through
}

void FeatureCache::insert_locked(const graph::GraphDigest& key,
                                 const FeatureVector& fv) {
  auto it = index_.find(key);
  if (it != index_.end()) {  // racing miss on another thread filled it first
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = fv;
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions_.inc();
  }
  lru_.emplace_front(key, fv);
  index_.emplace(key, lru_.begin());
  size_gauge_.set(static_cast<double>(lru_.size()));
}

void FeatureCache::set_persistent_tier(std::shared_ptr<DiskFeatureCache> tier) {
  std::lock_guard<std::mutex> lock(mu_);
  tier_ = std::move(tier);
}

std::size_t FeatureCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

FeatureVector FeatureEngine::extract(const graph::DiGraph& g,
                                     FeatureCache* cache) {
  FeatureVector f;
  if (cache != nullptr) {
    const graph::GraphDigest key = graph_digest(g);
    if (!cache->lookup(key, f)) {
      f = compute(g);
      cache->insert(key, f);
    }
  } else {
    f = compute(g);
  }

  // Fault points: a corrupted extractor (or a hostile sample engineered to
  // overflow one) hands downstream stages a non-finite vector. Applied to
  // the returned copy only — a cached entry stays clean — and checked once
  // per extract() whether the traversal ran or the cache answered, so the
  // counted-arming semantics match the seed path call for call.
  if (util::fault(util::faults::kFeatureNaN)) {
    f[kDensity] = std::numeric_limits<double>::quiet_NaN();
  }
  if (util::fault(util::faults::kFeatureInf)) {
    f[kShortestPathMean] = std::numeric_limits<double>::infinity();
  }
  return f;
}

FeatureVector FeatureEngine::compute(const graph::DiGraph& g) {
  FeatureVector f{};

  graph::SweepSinks sinks;
  sinks.betweenness = &betweenness_;
  sinks.closeness = &closeness_;
  sinks.path_lengths = &lengths_;
  sinks.path_length_hist = &hist_;
  graph::single_sweep(g, scratch_, sinks);

  // Degree centrality, inline into the reused buffer (same expression as
  // graph::degree_centrality).
  const std::size_t n = g.num_nodes();
  degree_.assign(n, 0.0);
  if (n >= 2) {
    const double denom = static_cast<double>(n - 1);
    for (std::size_t u = 0; u < n; ++u) {
      degree_[u] =
          static_cast<double>(g.degree(static_cast<graph::NodeId>(u))) / denom;
    }
  }

  // Division-by-zero guard for degenerate graphs: summary5 yields zeros on
  // empty populations (one-block CFG centralities, disconnected graphs with
  // no reachable pairs), but a NaN produced by any upstream arithmetic would
  // silently poison scaling and training — scrub each 5-tuple to zero here.
  auto put5 = [&f](std::size_t base, const util::Summary5& s) {
    const double vals[5] = {s.min, s.max, s.median, s.mean, s.stddev};
    for (std::size_t i = 0; i < 5; ++i) {
      f[base + i] = std::isfinite(vals[i]) ? vals[i] : 0.0;
    }
  };

  put5(kBetweennessMin, util::summary5(betweenness_, summary_tmp_));
  put5(kClosenessMin, util::summary5(closeness_, summary_tmp_));
  put5(kDegreeMin, util::summary5(degree_, summary_tmp_));
  put5(kShortestPathMin, path_length_summary());
  f[kDensity] = n < 2 ? 0.0 : g.density();
  f[kNumEdges] = static_cast<double>(g.num_edges());
  f[kNumNodes] = static_cast<double>(n);
  return f;
}

util::Summary5 FeatureEngine::path_length_summary() const {
  // The path-length population is small nonnegative integers (BFS
  // distances), so four of the five statistics follow exactly from the
  // sweep's distance histogram:
  //  - min/max/median are order statistics, read off cumulative counts
  //    with the same midpoint expression as util::median;
  //  - the mean's numerator is a sum of integers far below 2^53, so every
  //    partial sum is exact and summation order cannot change the bits.
  // Only the stddev deviation accumulation is genuinely order-sensitive,
  // so it alone walks the population in element order, converting each
  // stored integer to the double the seed population held. Net effect: the
  // O(V^2)-element copy + selection of the generic summary5 path is gone.
  util::Summary5 s;
  const std::size_t cnt = lengths_.size();
  if (cnt == 0) return s;

  std::size_t min_d = 0, max_d = 0;
  std::uint64_t total = 0;
  bool first = true;
  for (std::size_t d = 0; d < hist_.size(); ++d) {
    const std::uint64_t c = hist_[d];
    if (c == 0) continue;
    if (first) {
      min_d = d;
      first = false;
    }
    max_d = d;
    total += c * d;
  }
  s.min = static_cast<double>(min_d);
  s.max = static_cast<double>(max_d);

  // k-th smallest (0-based) via cumulative counts.
  auto value_at = [this, min_d, max_d](std::size_t rank) {
    std::uint64_t cum = 0;
    for (std::size_t d = min_d; d <= max_d; ++d) {
      cum += hist_[d];
      if (cum > rank) return d;
    }
    return max_d;
  };
  const std::size_t mid = cnt / 2;
  const double hi = static_cast<double>(value_at(mid));
  if (cnt % 2 == 1) {
    s.median = hi;
  } else {
    const double lo = static_cast<double>(value_at(mid - 1));
    s.median = (lo + hi) / 2.0;  // util::median's midpoint expression
  }

  s.mean = static_cast<double>(total) / static_cast<double>(cnt);
  if (cnt >= 2) {
    const double m = s.mean;
    double acc = 0.0;
    for (std::uint32_t d : lengths_) {
      const double x = static_cast<double>(d);
      acc += (x - m) * (x - m);
    }
    s.stddev = std::sqrt(acc / static_cast<double>(cnt));
  }
  return s;
}

std::size_t FeatureEngine::scratch_bytes() const {
  return scratch_.footprint_bytes() +
         (betweenness_.capacity() + closeness_.capacity() +
          degree_.capacity() + summary_tmp_.capacity()) *
             sizeof(double) +
         lengths_.capacity() * sizeof(std::uint32_t) +
         hist_.capacity() * sizeof(std::uint64_t);
}

FeatureEngine& FeatureEngine::local() {
  thread_local FeatureEngine engine;
  return engine;
}

}  // namespace gea::features
