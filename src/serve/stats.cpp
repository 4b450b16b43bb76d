#include "serve/stats.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace gea::serve {

namespace {

util::LatencySummary summarize(const obs::HistogramSnapshot& h) {
  util::LatencySummary s;
  s.count = static_cast<std::size_t>(h.count);
  s.mean = h.mean();
  s.p50 = h.quantile(0.50);
  s.p95 = h.quantile(0.95);
  s.p99 = h.quantile(0.99);
  s.max = h.quantile(1.0);
  return s;
}

}  // namespace

std::string StatsSnapshot::summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  os << "serve: " << completed << " served / " << submitted << " submitted in "
     << elapsed_s << "s (" << qps << " qps)\n";
  os << "  rejected: " << rejected_full << " queue-full, " << rejected_no_model
     << " no-model, " << rejected_invalid << " invalid, " << expired
     << " deadline-expired; queue depth " << queue_depth << "\n";
  os << "  batches: " << batches << " (mean size " << mean_batch() << ")";
  if (!batch_sizes.empty()) {
    os << " histogram {";
    bool first = true;
    for (const auto& [size, count] : batch_sizes) {
      if (!first) os << ", ";
      os << size << ":" << count;
      first = false;
    }
    os << "}";
  }
  os << "\n";
  os << "  queue " << queue_ms.to_string() << "\n";
  os << "  infer " << infer_ms.to_string() << "\n";
  os << "  total " << total_ms.to_string();
  return os.str();
}

ServerStats::ServerStats(std::size_t max_batch)
    // Sizes 0..max_batch. SIZE_MAX must fail here, not wrap to no slots.
    : batch_sizes_(std::max(max_batch, max_batch + 1)),
      batch_size_(obs::MetricsRegistry::global().histogram(
          "serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128})),
      queue_ms_(obs::MetricsRegistry::global().histogram("serve.queue_ms")),
      infer_ms_(obs::MetricsRegistry::global().histogram("serve.infer_ms")),
      total_ms_(obs::MetricsRegistry::global().histogram("serve.total_ms")) {}

void ServerStats::on_batch(std::size_t batch_size) {
  batch_sizes_.at(batch_size).fetch_add(1, std::memory_order_relaxed);
  batches_.inc();
  batch_size_.observe(static_cast<double>(batch_size));
}

void ServerStats::on_completed(double queue_ms, double infer_ms,
                               double total_ms, std::uint64_t trace_id) {
  completed_.inc();
  queue_ms_.observe(queue_ms, trace_id);
  infer_ms_.observe(infer_ms, trace_id);
  total_ms_.observe(total_ms, trace_id);
}

StatsSnapshot ServerStats::snapshot(std::size_t queue_depth) const {
  // A request is counted submitted, then accepted, then completed, each
  // count happening before the next: loading in the reverse order keeps
  // every earlier stage at least as high as the later ones.
  StatsSnapshot snap;
  snap.completed = completed_.value();
  snap.batches = batches_.value();
  for (std::size_t size = 0; size < batch_sizes_.size(); ++size) {
    const std::uint64_t n = batch_sizes_[size].load(std::memory_order_relaxed);
    if (n != 0) snap.batch_sizes[size] = n;
  }
  snap.expired = expired_.value();
  snap.rejected_invalid = rejected_invalid_.value();
  snap.rejected_no_model = rejected_no_model_.value();
  snap.rejected_full = rejected_full_.value();
  snap.accepted = accepted_.value();
  snap.submitted = submitted_.value();
  snap.queue_ms = summarize(queue_ms_.snapshot());
  snap.infer_ms = summarize(infer_ms_.snapshot());
  snap.total_ms = summarize(total_ms_.snapshot());
  snap.elapsed_s = started_.elapsed_ms() / 1000.0;
  snap.qps = snap.elapsed_s > 0.0
                 ? static_cast<double>(snap.completed) / snap.elapsed_s
                 : 0.0;
  snap.queue_depth = queue_depth;
  return snap;
}

}  // namespace gea::serve
