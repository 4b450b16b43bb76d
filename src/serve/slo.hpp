// Rolling-window SLO monitor for the serving plane.
//
// Tracks two service-level objectives over a sliding time window — tail
// latency (p99 vs a target) and error fraction (vs an error budget) — and
// derives a degraded/healthy verdict with hysteresis. The admin plane's
// /readyz flips to 503 while degraded; the chaos bench drives the monitor
// through a full degrade/recover cycle.
//
// Window math: the window is a ring of `buckets` time slices, each
// `window_s / buckets` seconds wide. A slice holds an error count and a
// fixed-bound latency histogram (obs::default_latency_buckets_ms bounds);
// reading the window merges the live slices into one histogram and takes
// the interpolated p99. Slices are invalidated lazily by epoch number, so
// an idle monitor costs nothing and a stale window drains by itself.
//
// Burn rate = (window error fraction) / max_error_fraction: 1.0 means the
// error budget is being consumed exactly as fast as it accrues; the
// degrade threshold defaults to 1.0 and the recover threshold sits lower
// (hysteresis) so the verdict does not flap at the boundary.
//
// Time is injectable (every mutation/read has an overload taking `now_s`,
// seconds on the caller's own monotonic timeline) so tests are fully
// deterministic; the no-argument overloads use a steady clock anchored at
// construction. Verdict transitions mirror into the global metrics
// registry (slo.breach counter, slo.degraded / slo.burn_rate gauges).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace gea::serve {

struct SloConfig {
  double window_s = 10.0;   // sliding window length
  std::size_t buckets = 10; // ring granularity (slices per window)
  /// Latency objective: window p99 above this breaches the latency SLO.
  double p99_target_ms = 250.0;
  /// Error budget: tolerated fraction of failed requests in the window.
  double max_error_fraction = 0.02;
  /// Degrade when burn rate (error fraction / budget) reaches this...
  double burn_degrade = 1.0;
  /// ...and recover only once it falls back to this (hysteresis).
  double burn_recover = 0.5;
  /// Verdicts need at least this many requests in the window; an idle or
  /// barely-warmed window is always healthy.
  std::uint64_t min_requests = 50;
};

struct SloSnapshot {
  std::uint64_t requests = 0;  // in window
  std::uint64_t errors = 0;    // in window
  double error_fraction = 0.0;
  double burn_rate = 0.0;
  double p99_ms = 0.0;
  bool degraded = false;
  std::uint64_t breaches = 0;  // all-time healthy→degraded transitions
};

class SloMonitor {
 public:
  explicit SloMonitor(SloConfig config = {});

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  /// Record one finished request (`ok` = the caller got a verdict, not an
  /// error/timeout). The wall-clock overload is the production path; the
  /// `now_s` overload pins the window position for tests.
  void record(double latency_ms, bool ok);
  void record(double latency_ms, bool ok, double now_s);

  /// Current verdict, re-evaluated against the (possibly advanced) clock —
  /// a window that has drained since the last record() reads healthy.
  bool degraded();
  bool degraded(double now_s);

  SloSnapshot snapshot();
  SloSnapshot snapshot(double now_s);

  const SloConfig& config() const { return config_; }

 private:
  struct Slice {
    std::uint64_t epoch = ~0ull;  // which window rotation wrote this slice
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::vector<std::uint64_t> latency;  // bounds.size() + 1, overflow last
  };

  double now_s_unlocked() const;
  Slice& slice_for(double now_s);  // lock held
  SloSnapshot evaluate(double now_s);  // lock held; updates verdict state

  const SloConfig config_;
  const double slice_s_;
  const std::vector<double>& bounds_;
  const std::chrono::steady_clock::time_point origin_;

  std::mutex mu_;
  std::vector<Slice> ring_;
  obs::HistogramSnapshot window_;  // evaluate()'s merge of the live slices
  bool degraded_ = false;
  obs::Tally breaches_{"slo.breach"};
  obs::Gauge& degraded_gauge_;
  obs::Gauge& burn_gauge_;
};

}  // namespace gea::serve
