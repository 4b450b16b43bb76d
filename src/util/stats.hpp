// Descriptive statistics over small vectors of doubles.
//
// The paper summarizes per-node / per-pair graph quantities with
// {min, max, median, mean, stddev}; `summary5()` computes exactly that
// 5-tuple and is the workhorse of feature extraction (Table II).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace gea::util {

/// min, max, median, mean, population standard deviation — in this order,
/// matching the feature layout used throughout the library.
struct Summary5 {
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double mean = 0.0;
  double stddev = 0.0;

  std::array<double, 5> as_array() const { return {min, max, median, mean, stddev}; }
};

double mean(std::span<const double> xs);
/// Population standard deviation (divides by N, not N-1).
double stddev(std::span<const double> xs);
/// Median with the usual midpoint rule for even sizes. Copies its input.
double median(std::span<const double> xs);
/// Median into a caller-owned scratch copy: identical result, but the copy
/// reuses `scratch`'s capacity so hot paths (the feature engine) allocate
/// nothing once warmed up.
double median(std::span<const double> xs, std::vector<double>& scratch);
double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

/// All five summary statistics in one pass (plus one sort for the median).
/// An empty input yields all zeros, mirroring how degenerate CFGs (single
/// block, no edges) are featurized.
Summary5 summary5(std::span<const double> xs);

/// summary5 with the median's working copy placed in caller-owned scratch
/// (see median above). Bitwise-identical to the allocating overload.
Summary5 summary5(std::span<const double> xs, std::vector<double>& scratch);

/// Linear-interpolated p-th percentile, p in [0,100]. Copies its input.
double percentile(std::span<const double> xs, double p);

/// Percentile summary of a latency population, in the units the samples
/// were recorded in. Empty populations summarize to all zeros.
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  std::string to_string() const;  // "n=... mean=... p50=... p95=... p99=... max=..."
};

/// Accumulates individual latency observations and summarizes them with the
/// shared percentile math above. Used by the bench load generators so no
/// bench re-implements percentile interpolation. Not thread-safe;
/// synchronize externally.
class LatencyRecorder {
 public:
  void record(double value) { samples_.push_back(value); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  void clear() { samples_.clear(); }

  /// p in [0,100], via util::percentile.
  double at_percentile(double p) const;
  LatencySummary summarize() const;

 private:
  std::vector<double> samples_;
};

/// Peak resident set size of this process in bytes (getrusage ru_maxrss),
/// 0 where unavailable. Monotonic over the process lifetime — the
/// bounded-memory gates in bench/corpus_bench read it *before* running any
/// deliberately-unbounded baseline phase.
std::size_t peak_rss_bytes();

}  // namespace gea::util
