// Process-wide metrics: named counters, gauges, and fixed-bucket
// histograms behind one registry, so every subsystem (pipeline stages,
// training epochs, attack crafting, the thread pool, serving) reports into
// a single exportable surface instead of four disconnected mechanisms. An
// object that also reports its own totals counts through a Tally, which
// pairs its count with the registry Counter it mirrors.
//
// Hot-path contract: Counter::inc and Histogram::observe write one
// thread-striped, cache-line-padded atomic cell with relaxed ordering —
// wait-free, no locks, no allocation — and snapshot() merges the cells.
// Metrics are observational only: they never consume an Rng, never branch
// on a value, and therefore cannot perturb the bitwise-reproducibility
// guarantees the parallel layer makes.
//
// Two off switches:
//  - compile time: -DGEA_OBS_NOOP compiles the hot-path bodies out entirely
//    (handles still exist; snapshots are empty-valued);
//  - run time: set_metrics_enabled(false), one relaxed load on the hot
//    path, used by bench/obs_overhead to measure the instrumentation cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gea::obs {

namespace detail {

/// Stripe count for per-metric cells. Threads hash onto stripes by a stable
/// per-thread index, so two pool workers rarely share a cache line.
inline constexpr std::size_t kShards = 16;

struct alignas(64) Cell {
  std::atomic<std::uint64_t> v{0};
};

/// Stable small integer for the calling thread (assigned on first use,
/// monotonically). Used to pick a stripe and to tag trace events.
std::uint32_t thread_index();

inline std::size_t shard_index() {
  return static_cast<std::size_t>(thread_index()) % kShards;
}

/// Runtime kill switch shared by every metric (see set_metrics_enabled).
extern std::atomic<bool> g_metrics_enabled;

inline bool enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Relaxed add on an atomic double (fetch_add on floating atomics is C++20
/// but not universally lock-free in older libstdc++; the CAS loop is).
inline void atomic_add(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Enable/disable all metric writes at runtime (default enabled). Reads
/// (snapshots) always work. Observational only — safe to flip mid-run.
void set_metrics_enabled(bool enabled);
bool metrics_enabled();

/// Monotonic counter. inc() is wait-free on the calling thread's stripe.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
#if !defined(GEA_OBS_NOOP)
    if (!detail::enabled()) return;
    cells_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  /// Sum over stripes. Relaxed: concurrent increments may or may not be
  /// visible, which is fine for an observational read.
  std::uint64_t value() const;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  void reset();
  detail::Cell cells_[detail::kShards];
};

/// Last-writer-wins instantaneous value (queue depth, last epoch loss).
class Gauge {
 public:
  void set(double v) {
#if !defined(GEA_OBS_NOOP)
    if (!detail::enabled()) return;
    v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  void add(double d) {
#if !defined(GEA_OBS_NOOP)
    if (!detail::enabled()) return;
    detail::atomic_add(v_, d);
#else
    (void)d;
#endif
  }

  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  void reset() { v_.store(0.0, std::memory_order_relaxed); }
  std::atomic<double> v_{0.0};
};

/// Point-in-time histogram state. `buckets[i]` counts observations with
/// value <= bounds[i]; the final slot (buckets.size() == bounds.size() + 1)
/// is the +Inf overflow bucket. Counts are per-bucket, not cumulative.
struct HistogramSnapshot {
  /// One traced observation pinned to a bucket — the Prometheus exemplar
  /// (OpenMetrics `# {trace_id="..."} value` suffix on the bucket line).
  /// trace_id == 0 means the bucket has none.
  struct Exemplar {
    double value = 0.0;
    std::uint64_t trace_id = 0;
  };

  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  /// Parallel to `buckets` (may be empty when no observation ever carried
  /// a trace id). Within a bucket the slowest traced observation wins, so
  /// the +Inf/topmost exemplars name the worst traces seen.
  std::vector<Exemplar> exemplars;
  std::uint64_t count = 0;
  double sum = 0.0;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Bucket-interpolated quantile estimate, q in [0,1]. Coarse by design —
  /// exact percentiles stay with util::LatencyRecorder; this answers "which
  /// decade" from mergeable fixed buckets.
  double quantile(double q) const;
};

/// Fixed-bucket histogram with thread-striped cells. observe() is wait-free
/// apart from an uncontended CAS on the stripe's sum.
class Histogram {
 public:
  void observe(double v) {
#if !defined(GEA_OBS_NOOP)
    if (!detail::enabled()) return;
    Shard& s = *shards_[detail::shard_index()];
    s.buckets[bucket_for(v)].v.fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add(s.sum, v);
#else
    (void)v;
#endif
  }

  /// observe() plus an exemplar: when `trace_id` is nonzero the observation
  /// competes (under a mutex — only sampled requests pay it) to become its
  /// bucket's exported exemplar. Untraced calls are exactly observe().
  void observe(double v, std::uint64_t trace_id) {
#if !defined(GEA_OBS_NOOP)
    observe(v);
    if (trace_id != 0 && detail::enabled()) record_exemplar(v, trace_id);
#else
    (void)v;
    (void)trace_id;
#endif
  }

  const std::vector<double>& bounds() const { return bounds_; }
  HistogramSnapshot snapshot() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  void reset();
  std::size_t bucket_for(double v) const;
  void record_exemplar(double v, std::uint64_t trace_id);

  struct Shard {
    explicit Shard(std::size_t n) : buckets(n) {}
    std::vector<detail::Cell> buckets;  // bounds.size() + 1 (overflow last)
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;  // ascending upper bounds
  std::unique_ptr<Shard> shards_[detail::kShards];

  // Exemplar slots, parallel to the bucket layout. Off the wait-free path:
  // only observations carrying a trace id (the sampled minority) lock.
  mutable std::mutex exemplar_mu_;
  std::vector<HistogramSnapshot::Exemplar> exemplars_;
};

/// Default latency buckets (milliseconds): ~1-2-5 decades from 10µs to 10s.
const std::vector<double>& default_latency_buckets_ms();

/// Everything the registry knows, copied at one point in time.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Name -> metric registry. Handles are created on first lookup, live for
/// the registry's lifetime, and are stable: callers may cache the returned
/// reference (the instrumented subsystems do) and write lock-free forever
/// after. Lookup itself takes a mutex — do it once, outside hot loops.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation site uses.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` must be ascending; empty = default_latency_buckets_ms(). The
  /// first registration wins — a later call with different bounds returns
  /// the existing histogram unchanged.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  MetricsSnapshot snapshot() const;

  /// Zero every value, keeping handles valid (cached references survive).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// One object's own count of an event plus the registry Counter that sums
/// the event over the process — the one way a server, transport, client,
/// cache or monitor counts. The mirror is resolved once, by name.
///
/// inc() counts the mirror first, then the instance with release order;
/// value() loads with acquire, so a reader that has seen an instance count
/// finds the registry at least as high (until a registry reset(), and
/// unless metrics are off). The instance count ignores
/// set_metrics_enabled(false) and GEA_OBS_NOOP: it is the object's own
/// bookkeeping, which its snapshot structs report, not instrumentation.
class Tally {
 public:
  explicit Tally(const std::string& name,
                 MetricsRegistry& registry = MetricsRegistry::global())
      : mirror_(registry.counter(name)) {}

  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;

  void inc(std::uint64_t n = 1) {
    mirror_.inc(n);
    count_.fetch_add(n, std::memory_order_release);
  }

  std::uint64_t value() const {
    return count_.load(std::memory_order_acquire);
  }

 private:
  Counter& mirror_;
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace gea::obs
