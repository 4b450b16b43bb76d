#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "cfg/cfg.hpp"
#include "features/extended.hpp"
#include "features/features.hpp"
#include "ml/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gea::serve {

using util::ErrorCode;
using util::Status;

DetectionServer::DetectionServer(ModelRegistry& registry,
                                 const ServerConfig& config)
    : registry_(registry),
      config_(config),
      queue_(config.queue_capacity == 0 ? 1 : config.queue_capacity),
      feature_cache_(config.feature_cache_capacity == 0
                         ? nullptr
                         : std::make_shared<features::FeatureCache>(
                               config.feature_cache_capacity)),
      featurize_ms_(
          &obs::MetricsRegistry::global().histogram("serve.featurize_ms")),
      stats_(std::max<std::size_t>(1, config.max_batch)),
      featurizers_(util::default_thread_count()) {
  if (config_.workers == 0) config_.workers = util::default_thread_count();
  if (config_.max_batch == 0) config_.max_batch = 1;
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

DetectionServer::~DetectionServer() { stop(); }

void DetectionServer::stop() {
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // No program is admitted from here on; every admitted one is enqueued or
  // failed before the row queue closes, so no future is left broken.
  featurizers_.wait_idle();
  queue_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void DetectionServer::pause() { queue_.set_hold(true); }
void DetectionServer::resume() { queue_.set_hold(false); }

std::future<util::Result<Verdict>> DetectionServer::reject(
    util::Status status) {
  std::promise<util::Result<Verdict>> p;
  auto f = p.get_future();
  p.set_value(util::Result<Verdict>(std::move(status)));
  return f;
}

util::Result<std::optional<DetectionServer::Clock::time_point>>
DetectionServer::resolve_deadline(double deadline_ms,
                                  Clock::time_point now) const {
  if (deadline_ms < 0.0) deadline_ms = config_.default_deadline_ms;
  if (std::isnan(deadline_ms)) {
    return Status::error(ErrorCode::kInvalidArgument, "deadline is NaN")
        .with_context("DetectionServer::submit");
  }
  const std::optional<Clock::time_point> none;
  if (deadline_ms <= 0.0) return none;
  // A deadline past the end of the clock (+inf included) can never fire.
  // Checked before converting: a double beyond the clock's int64 range
  // does not convert.
  const auto headroom = Clock::time_point::max() - now;
  if (!(deadline_ms <
        std::chrono::duration<double, std::milli>(headroom).count())) {
    return none;
  }
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(deadline_ms));
  if (budget >= headroom) return none;  // rounded up to the end
  return std::optional<Clock::time_point>(now + budget);
}

std::future<util::Result<Verdict>> DetectionServer::submit(
    std::vector<double> features, double deadline_ms, obs::TraceContext ctx) {
  Request req;
  req.admitted = Clock::now();
  stats_.on_submitted();
  auto deadline = resolve_deadline(deadline_ms, req.admitted);
  if (!deadline.is_ok()) {
    stats_.on_rejected_invalid();
    return reject(deadline.status());
  }
  req.features = std::move(features);
  req.deadline = deadline.value();
  req.ctx = ctx;
  auto future = req.promise.get_future();
  enqueue(req);
  return future;
}

void DetectionServer::enqueue(Request& req) {
  const auto fail = [&req](ErrorCode code, std::string message) {
    req.promise.set_value(util::Result<Verdict>(
        Status::error(code, std::move(message))
            .with_context("DetectionServer::submit")));
  };
  if (registry_.active() == nullptr) {
    stats_.on_rejected_no_model();
    fail(ErrorCode::kUnavailable, "no active model");
    return;
  }
  req.enqueued = Clock::now();
  if (req.deadline.has_value() && req.enqueued > *req.deadline) {
    stats_.on_expired();  // e.g. featurization outlasted it: take no slot
    fail(ErrorCode::kDeadlineExceeded, "request expired before enqueue");
    return;
  }
  // Counted as the request becomes poppable, so its acceptance happens
  // before a worker can complete it.
  if (queue_.try_push(req, [this] { stats_.on_accepted(); })) return;
  // try_push also refuses a closed queue: that server is stopped, not full.
  if (queue_.closed()) {
    fail(ErrorCode::kUnavailable, "server stopped");
    return;
  }
  stats_.on_rejected_full();
  fail(ErrorCode::kUnavailable,
       "queue full (capacity " + std::to_string(queue_.capacity()) + ")");
}

std::future<util::Result<Verdict>> DetectionServer::submit(
    const isa::Program& program, double deadline_ms) {
  // The deadline covers featurization: its clock starts here, and so does
  // Verdict::total_ms.
  const auto admitted = Clock::now();
  stats_.on_submitted();
  auto deadline = resolve_deadline(deadline_ms, admitted);
  if (!deadline.is_ok()) {
    stats_.on_rejected_invalid();
    return reject(deadline.status());
  }
  const auto ckpt = registry_.active();
  if (ckpt == nullptr) {
    stats_.on_rejected_no_model();
    return reject(Status::error(ErrorCode::kUnavailable, "no active model")
                      .with_context("DetectionServer::submit"));
  }
  // A pool task must be copyable, so it shares the request, which holds
  // the promise. The program is copied here, outside the lock.
  auto req = std::make_shared<Request>();
  req->admitted = admitted;
  req->deadline = deadline.value();
  auto future = req->promise.get_future();
  std::function<void()> task = [this, program, dim = ckpt->spec().input_dim,
                                req] {
    featurize(program, dim, *req);
    std::lock_guard<std::mutex> lock(stage_mu_);
    --staged_;
  };

  std::lock_guard<std::mutex> lock(stage_mu_);
  if (stopped_) {
    return reject(Status::error(ErrorCode::kUnavailable, "server stopped")
                      .with_context("DetectionServer::submit"));
  }
  // The pool's queue is unbounded, so the stage is bounded here.
  if (staged_ >= queue_.capacity()) {
    stats_.on_rejected_full();
    return reject(Status::error(ErrorCode::kUnavailable,
                                "featurization stage full (capacity " +
                                    std::to_string(queue_.capacity()) + ")")
                      .with_context("DetectionServer::submit"));
  }
  ++staged_;
  featurizers_.submit(std::move(task));
  return future;
}

void DetectionServer::featurize(const isa::Program& program, std::size_t dim,
                                Request& req) {
  const auto fail = [&req](Status status) {
    req.promise.set_value(util::Result<Verdict>(
        std::move(status.with_context("DetectionServer::submit(program)"))));
  };
  try {
    if (req.deadline.has_value() && Clock::now() > *req.deadline) {
      stats_.on_expired();  // waited out its deadline: spend no sweep on it
      fail(Status::error(ErrorCode::kDeadlineExceeded,
                         "program expired before featurization"));
      return;
    }
    obs::TraceSpan span("serve.featurize");
    // main_only: the paper's per-binary convention.
    const cfg::Cfg graph = cfg::extract_cfg(program, {.main_only = true});
    // The thread-local engine reuses traversal scratch across programs; the
    // server-wide cache short-circuits resubmitted graphs.
    auto& engine = features::FeatureEngine::local();
    if (dim == features::kNumExtendedFeatures) {
      req.features = features::extract_extended_features(
          graph.graph, engine, feature_cache_.get());
    } else {
      const auto fv = engine.extract(graph.graph, feature_cache_.get());
      req.features.assign(fv.begin(), fv.end());
    }
    span.close();
    featurize_ms_->observe(span.elapsed_ms());
    enqueue(req);
  } catch (const std::invalid_argument& e) {
    stats_.on_rejected_invalid();
    fail(Status::error(ErrorCode::kInvalidArgument, e.what()));
  } catch (const std::exception& e) {
    fail(Status::error(ErrorCode::kInternal,
                       std::string("featurization failed: ") + e.what()));
  } catch (...) {
    fail(Status::error(ErrorCode::kInternal, "featurization failed"));
  }
}

util::Result<Verdict> DetectionServer::detect(std::vector<double> features,
                                              double deadline_ms) {
  return submit(std::move(features), deadline_ms).get();
}

util::Result<Verdict> DetectionServer::detect(const isa::Program& program,
                                              double deadline_ms) {
  return submit(program, deadline_ms).get();
}

void DetectionServer::worker_loop() {
  std::vector<Request> batch;
  while (true) {
    auto first = queue_.pop();
    if (!first.has_value()) return;  // closed and drained
    batch.clear();
    batch.push_back(std::move(*first));
    if (config_.max_batch > 1) {
      // Drain whatever is already queued in one lock acquisition (avoids
      // N workers waking and fragmenting a deep queue into singles), then
      // linger for stragglers until the window or the batch cap is hit.
      auto drained = queue_.pop_up_to(config_.max_batch - batch.size());
      for (auto& r : drained) batch.push_back(std::move(r));
      util::Stopwatch linger;
      while (batch.size() < config_.max_batch) {
        const double waited = linger.elapsed_us();
        if (waited >= static_cast<double>(config_.max_wait_us)) break;
        auto more = queue_.pop_for(std::chrono::microseconds(
            config_.max_wait_us - static_cast<std::size_t>(waited)));
        if (!more.has_value()) break;  // timeout, or closed and drained
        batch.push_back(std::move(*more));
        auto extra = queue_.pop_up_to(config_.max_batch - batch.size());
        for (auto& r : extra) batch.push_back(std::move(r));
      }
    }
    process_batch(batch);
  }
}

void DetectionServer::process_batch(std::vector<Request>& batch) {
  obs::TraceSpan batch_span("serve.batch");
  const auto dequeued = Clock::now();

  // One read of the active checkpoint per batch; holding the pointer keeps
  // its model alive through a concurrent hot-swap, so every verdict of the
  // batch comes from one version.
  const CheckpointPtr active = registry_.active();
  if (active == nullptr) {
    for (auto& req : batch) {
      stats_.on_rejected_no_model();
      req.promise.set_value(util::Result<Verdict>(
          Status::error(ErrorCode::kUnavailable, "no active model")
              .with_context("DetectionServer::process_batch")));
    }
    return;
  }
  const Checkpoint& ckpt = *active;
  const std::size_t dim = ckpt.spec().input_dim;

  // Deadline and shape checks at dequeue: expired or malformed requests
  // never pay for (or pollute) the inference pass.
  std::vector<Request*> live;
  live.reserve(batch.size());
  for (auto& req : batch) {
    if (req.deadline.has_value() && dequeued > *req.deadline) {
      stats_.on_expired();
      req.promise.set_value(util::Result<Verdict>(
          Status::error(ErrorCode::kDeadlineExceeded,
                        "request expired before inference")
              .with_context("DetectionServer::process_batch")));
      continue;
    }
    if (req.features.size() != dim) {
      stats_.on_rejected_invalid();
      req.promise.set_value(util::Result<Verdict>(
          Status::error(ErrorCode::kInvalidArgument,
                        "expected " + std::to_string(dim) + " features, got " +
                            std::to_string(req.features.size()))
              .with_context("DetectionServer::process_batch")));
      continue;
    }
    // A NaN or infinite feature has no meaningful verdict: the model would
    // map it to NaN, saturated or silently clamped logits.
    const auto bad = std::find_if(req.features.begin(), req.features.end(),
                                  [](double v) { return !std::isfinite(v); });
    if (bad != req.features.end()) {
      stats_.on_rejected_invalid();
      req.promise.set_value(util::Result<Verdict>(
          Status::error(ErrorCode::kInvalidArgument,
                        "feature " +
                            std::to_string(bad - req.features.begin()) +
                            " is not finite")
              .with_context("DetectionServer::process_batch")));
      continue;
    }
    live.push_back(&req);
  }
  if (live.empty()) return;

  // Server-side scaling with the checkpoint's scaler (23-feature layout).
  std::vector<std::vector<double>> xs;
  xs.reserve(live.size());
  for (Request* req : live) {
    if (const auto* scaler = ckpt.scaler()) {
      features::FeatureVector fv{};
      std::copy(req->features.begin(), req->features.end(), fv.begin());
      const auto scaled = scaler->transform(fv);
      xs.emplace_back(scaled.begin(), scaled.end());
    } else {
      xs.push_back(req->features);
    }
  }

  util::Stopwatch infer_sw;
  auto logits =
      ml::infer_logits(ckpt.model(), dim, ckpt.spec().num_classes(), xs);
  const double infer_ms = infer_sw.elapsed_ms();
  stats_.on_batch(live.size());

  for (std::size_t i = 0; i < live.size(); ++i) {
    Request& req = *live[i];
    Verdict v;
    v.logits = std::move(logits[i]);
    v.probabilities = ml::softmax(v.logits);
    v.predicted = ml::argmax(v.logits);
    v.class_name = ckpt.schema().name(v.predicted);
    v.schema_digest = ckpt.schema().digest();
    v.model_version = ckpt.version();
    v.batch_size = live.size();
    v.queue_ms = std::chrono::duration<double, std::milli>(dequeued -
                                                           req.enqueued)
                     .count();
    v.infer_ms = infer_ms;
    v.total_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           req.admitted)
                     .count();
    if (req.ctx.valid()) {
      // Attribute this request's server-side phases to its distributed
      // trace. The intervals are reconstructed backward from the recorder
      // clock (queue-wait ended at dequeue; inference just ended), so the
      // spans land on the same timeline the client's spans use.
      auto& rec = obs::TraceRecorder::global();
      const double now = rec.now_us();
      rec.record_interval("serve.queue_wait", req.ctx,
                          now - v.total_ms * 1000.0, v.queue_ms * 1000.0);
      rec.record_interval("serve.infer", req.ctx, now - v.infer_ms * 1000.0,
                          v.infer_ms * 1000.0);
    }
    stats_.on_completed(v.queue_ms, v.infer_ms, v.total_ms,
                        req.ctx.trace_id);
    req.promise.set_value(util::Result<Verdict>(std::move(v)));
  }
}

}  // namespace gea::serve
