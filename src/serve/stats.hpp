// Serving-side observability, exported in the PipelineReport style: a
// snapshot struct the caller can assert on plus a one-paragraph human
// summary() for logs and demos.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace gea::serve {

/// Point-in-time copy of every serving counter. All latencies are in
/// milliseconds.
struct StatsSnapshot {
  // Admission.
  std::uint64_t submitted = 0;       // requests offered to the queue
  std::uint64_t accepted = 0;        // admitted past admission control
  std::uint64_t rejected_full = 0;   // refused: queue at capacity
  std::uint64_t rejected_invalid = 0;  // refused before/at inference: bad input
  std::uint64_t rejected_no_model = 0; // refused: no active checkpoint
  std::uint64_t expired = 0;         // deadline passed at enqueue or dequeue

  // Execution.
  std::uint64_t completed = 0;       // verdicts delivered
  std::uint64_t batches = 0;         // inference calls issued
  std::map<std::size_t, std::uint64_t> batch_sizes;  // batch-size histogram

  // Latency percentiles (ms): bucket-interpolated estimates read from the
  // process-wide serve.queue_ms / serve.infer_ms / serve.total_ms registry
  // histograms, so they cover every server in the process since the last
  // registry reset and miss requests completed while metrics were
  // disabled. max is the upper edge of the highest occupied bucket (the
  // overflow bucket reports its lower edge).
  util::LatencySummary queue_ms;   // submit -> dequeue
  util::LatencySummary infer_ms;   // batch forward, attributed per request
  util::LatencySummary total_ms;   // submit -> verdict

  double elapsed_s = 0.0;  // since server start
  double qps = 0.0;        // completed / elapsed
  std::size_t queue_depth = 0;  // at snapshot time

  /// Mean batch size, computed from the batch-size histogram alone (sum
  /// of size*count over the sum of count) so the mean and the histogram
  /// can never disagree, even in a snapshot taken while batches run.
  /// Expired requests never reach a batch, so they do not enter this mean.
  double mean_batch() const {
    std::uint64_t in_batches = 0, counted = 0;
    for (const auto& [size, count] : batch_sizes) {
      in_batches += static_cast<std::uint64_t>(size) * count;
      counted += count;
    }
    return counted == 0 ? 0.0
                        : static_cast<double>(in_batches) /
                              static_cast<double>(counted);
  }

  /// One-paragraph rendering, PipelineReport::summary() style.
  std::string summary() const;
};

/// Lock-free accumulator behind the snapshot. Every event counts through
/// an obs::Tally: once for this server and once in the process-wide
/// "serve.*" registry series, which aggregate every server in the process.
/// No per-request value is stored: latencies go only to the registry
/// histograms.
class ServerStats {
 public:
  /// `max_batch` is the largest batch on_batch() may report: the exact
  /// per-size counts are kept up to it. The default is the top bound of
  /// the serve.batch_size histogram.
  explicit ServerStats(std::size_t max_batch = 128);

  void on_submitted() { submitted_.inc(); }
  void on_accepted() { accepted_.inc(); }
  void on_rejected_full() { rejected_full_.inc(); }
  void on_rejected_invalid() { rejected_invalid_.inc(); }
  void on_rejected_no_model() { rejected_no_model_.inc(); }
  void on_expired() { expired_.inc(); }
  /// Throws std::out_of_range for a batch larger than max_batch.
  void on_batch(std::size_t batch_size);
  /// `trace_id` (when nonzero) becomes an exemplar candidate on the
  /// serve.queue_ms/infer_ms/total_ms registry histograms, linking the
  /// Prometheus export back to the request's /tracez entry.
  void on_completed(double queue_ms, double infer_ms, double total_ms,
                    std::uint64_t trace_id = 0);

  /// Reads later stages first, so completed <= accepted <= submitted in
  /// every snapshot, even one taken while requests are in flight.
  StatsSnapshot snapshot(std::size_t queue_depth = 0) const;

 private:
  util::Stopwatch started_;
  obs::Tally submitted_{"serve.submitted_total"};
  obs::Tally accepted_{"serve.accepted_total"};
  obs::Tally rejected_full_{"serve.rejected_full_total"};
  obs::Tally rejected_invalid_{"serve.rejected_invalid_total"};
  obs::Tally rejected_no_model_{"serve.rejected_no_model_total"};
  obs::Tally expired_{"serve.expired_total"};
  obs::Tally completed_{"serve.completed_total"};
  obs::Tally batches_{"serve.batches_total"};
  std::vector<std::atomic<std::uint64_t>> batch_sizes_;  // [size]
  obs::Histogram& batch_size_;
  obs::Histogram& queue_ms_;
  obs::Histogram& infer_ms_;
  obs::Histogram& total_ms_;
};

}  // namespace gea::serve
