#include "serve/stats.hpp"

#include <iomanip>
#include <sstream>

#include "obs/metrics.hpp"

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

ServerStats::ServerStats() {
  auto& reg = obs::MetricsRegistry::global();
  reg_.submitted = &reg.counter("serve.submitted_total");
  reg_.accepted = &reg.counter("serve.accepted_total");
  reg_.rejected_full = &reg.counter("serve.rejected_full_total");
  reg_.rejected_invalid = &reg.counter("serve.rejected_invalid_total");
  reg_.rejected_no_model = &reg.counter("serve.rejected_no_model_total");
  reg_.expired = &reg.counter("serve.expired_total");
  reg_.completed = &reg.counter("serve.completed_total");
  reg_.batches = &reg.counter("serve.batches_total");
  reg_.batch_size =
      &reg.histogram("serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128});
  reg_.queue_ms = &reg.histogram("serve.queue_ms");
  reg_.infer_ms = &reg.histogram("serve.infer_ms");
  reg_.total_ms = &reg.histogram("serve.total_ms");
}

void ServerStats::on_submitted() {
  reg_.submitted->inc();
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.submitted;
}

void ServerStats::on_accepted() {
  reg_.accepted->inc();
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.accepted;
}

void ServerStats::on_rejected_full() {
  reg_.rejected_full->inc();
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.rejected_full;
}

void ServerStats::on_rejected_invalid() {
  reg_.rejected_invalid->inc();
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.rejected_invalid;
}

void ServerStats::on_rejected_no_model() {
  reg_.rejected_no_model->inc();
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.rejected_no_model;
}

void ServerStats::on_expired() {
  reg_.expired->inc();
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.expired;
}

void ServerStats::on_batch(std::size_t batch_size) {
  reg_.batches->inc();
  reg_.batch_size->observe(static_cast<double>(batch_size));
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.batches;
  ++counts_.batch_sizes[batch_size];
}

void ServerStats::on_completed(double queue_ms, double infer_ms,
                               double total_ms, std::uint64_t trace_id) {
  reg_.completed->inc();
  reg_.queue_ms->observe(queue_ms, trace_id);
  reg_.infer_ms->observe(infer_ms, trace_id);
  reg_.total_ms->observe(total_ms, trace_id);
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.completed;
}

StatsSnapshot ServerStats::snapshot(std::size_t queue_depth) const {
  StatsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap = counts_;
  }
  snap.queue_ms = summarize(reg_.queue_ms->snapshot());
  snap.infer_ms = summarize(reg_.infer_ms->snapshot());
  snap.total_ms = summarize(reg_.total_ms->snapshot());
  snap.elapsed_s = started_.elapsed_ms() / 1000.0;
  snap.qps = snap.elapsed_s > 0.0
                 ? static_cast<double>(snap.completed) / snap.elapsed_s
                 : 0.0;
  snap.queue_depth = queue_depth;
  return snap;
}

}  // namespace gea::serve
