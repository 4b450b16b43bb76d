// Detection-as-a-service: a long-lived in-process server that accepts
// programs or precomputed feature vectors, batches them through the CNN,
// and returns scored verdicts.
//
// Request path:
//   submit(features) — resolve the deadline, then try_push into a bounded
//   row queue. A full queue, a stopped server, a missing model
//   (kUnavailable), a passed deadline (kDeadlineExceeded) or a NaN deadline
//   (kInvalidArgument) rejects at once with a ready future; the client
//   never hangs on admission.
//   submit(program) — admission only: resolve the deadline, check the
//   active model, a stopped server and the stage bound, hand a copy of the
//   program to the featurization stage and return its future. The stage is
//   a server-owned util::ThreadPool of util::default_thread_count()
//   threads; each task extracts the CFG and the features, then takes the
//   row path above. At most queue_capacity programs are in the stage at
//   once, so the pool's own queue stays bounded.
//   worker — blocking pop for the first request, then lingers up to
//   max_wait_us (or until max_batch) to coalesce stragglers into one
//   Model::infer call. Deadlines are checked at dequeue: an expired request
//   is failed with kDeadlineExceeded without paying for inference.
//   Every worker runs the active checkpoint's one model through the const
//   Model::infer: a worker reads registry.active() once per batch and holds
//   that CheckpointPtr until the batch's verdicts are set, so a hot-swap
//   costs the registry's pointer swap and nothing else, and no worker copies
//   a model.
//
// Batching is an implementation detail of latency/throughput, never of
// results: a batch's row i is bitwise-identical to that row inferred alone
// (tests/serve_test.cpp asserts this), so a verdict does not depend on
// which requests happened to share a batch.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "features/engine.hpp"
#include "isa/program.hpp"
#include "obs/trace.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/stats.hpp"
#include "util/status.hpp"
#include "util/threadpool.hpp"

namespace gea::serve {

struct ServerConfig {
  /// Worker threads; 0 = util::default_thread_count().
  std::size_t workers = 0;
  /// Bounded queue capacity; pushes beyond this reject with kUnavailable.
  /// It also bounds the programs in the featurization stage.
  std::size_t queue_capacity = 256;
  /// Micro-batch ceiling. 1 disables batching: each request runs as a
  /// batch of one through Model::infer (the bench's unbatched baseline).
  /// The stats keep one exact count per batch size up to it.
  std::size_t max_batch = 16;
  /// How long a worker lingers for stragglers after the first dequeue.
  std::size_t max_wait_us = 200;
  /// Deadline applied when submit() is called with deadline_ms < 0;
  /// 0 = no deadline.
  double default_deadline_ms = 0.0;
  /// Server-lifetime feature cache (graph digest -> 23 features) shared by
  /// every submitting thread: a resubmitted program skips the traversal.
  /// 0 disables caching. Extended (41-dim) featurization caches only its
  /// 23-feature base.
  std::size_t feature_cache_capacity = 256;
};

/// One scored detection outcome. `predicted`/`class_name` are read against
/// the checkpoint's LabelSchema (binary default: 0 benign, 1 malicious);
/// `probabilities` has one entry per schema class.
struct Verdict {
  std::size_t predicted = 0;            // argmax class under the schema
  std::string class_name;               // schema name of `predicted`
  std::uint64_t schema_digest = 0;      // pin of the schema that scored it
  std::vector<double> probabilities;    // softmax, max-subtracted
  std::vector<double> logits;           // raw network outputs
  std::string model_version;            // checkpoint that produced it
  std::size_t batch_size = 0;           // how many requests shared the pass
  double queue_ms = 0.0;                // enqueue -> dequeue
  double infer_ms = 0.0;                // the batch's forward wall time
  double total_ms = 0.0;                // submit() call -> verdict
};

class DetectionServer {
 public:
  /// Starts `config.workers` threads immediately. The registry may still be
  /// empty; requests are rejected with kUnavailable until a checkpoint is
  /// activated. The registry must outlive the server.
  DetectionServer(ModelRegistry& registry, const ServerConfig& config = {});
  ~DetectionServer();  // stop()

  DetectionServer(const DetectionServer&) = delete;
  DetectionServer& operator=(const DetectionServer&) = delete;

  /// Enqueue a precomputed feature vector (raw feature units; the active
  /// checkpoint's scaler, when present, is applied server-side). The future
  /// is ready immediately on admission failure; after stop() that failure
  /// is kUnavailable "server stopped". deadline_ms: <0 = config default,
  /// 0 = none, >0 = fail with kDeadlineExceeded if still queued after that
  /// many milliseconds. A deadline too far away for the clock to hold, +inf
  /// included, can never fire and means none; NaN is refused with
  /// kInvalidArgument. `ctx` (when valid) attributes the request's
  /// queue-wait and inference spans to a distributed trace — the transport
  /// passes the context it decoded from the frame header.
  std::future<util::Result<Verdict>> submit(std::vector<double> features,
                                            double deadline_ms = -1.0,
                                            obs::TraceContext ctx = {});

  /// Admit a program and return at once: the featurization stage extracts
  /// the CFG (entry function, the paper's convention) and the features off
  /// the caller's thread, then enqueues the row as above. The caller may
  /// reuse `program` once this returns. Admission refuses a NaN deadline
  /// (kInvalidArgument), a missing model or a stopped server
  /// (kUnavailable), and a program that would make more than
  /// queue_capacity in the stage (kUnavailable, counted as rejected_full).
  /// The feature width follows the active checkpoint's spec (23 or 41).
  /// Featurization runs under a "serve.featurize" span and lands in the
  /// "serve.featurize_ms" histogram. deadline_ms is read as above, but its
  /// clock starts when submit() is called, so featurization counts against
  /// it: a program that expires before or during featurization fails with
  /// kDeadlineExceeded and counts as expired without taking a queue slot.
  /// Verdict::total_ms runs from the submit() call, queue_ms from the
  /// enqueue. pause() holds only the row queue; featurization continues.
  std::future<util::Result<Verdict>> submit(const isa::Program& program,
                                            double deadline_ms = -1.0);

  /// Blocking client facade: submit + wait.
  util::Result<Verdict> detect(std::vector<double> features,
                               double deadline_ms = -1.0);
  util::Result<Verdict> detect(const isa::Program& program,
                               double deadline_ms = -1.0);

  /// Fence the workers: queued requests stay queued (admission continues)
  /// until resume(). Tests use this to build deterministic queue states.
  /// The featurization stage keeps running.
  void pause();
  void resume();

  /// Admit nothing more, let every admitted program reach the row queue (or
  /// fail), then drain the queue and join the workers. Idempotent; called
  /// by ~.
  void stop();

  const ServerConfig& config() const { return config_; }
  ModelRegistry& registry() { return registry_; }
  std::size_t queue_depth() const { return queue_.size(); }
  StatsSnapshot stats() const { return stats_.snapshot(queue_.size()); }
  /// The server-lifetime feature cache (null when disabled).
  const std::shared_ptr<features::FeatureCache>& feature_cache() const {
    return feature_cache_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    std::vector<double> features;
    std::promise<util::Result<Verdict>> promise;
    Clock::time_point admitted;  // submit() call: Verdict::total_ms
    Clock::time_point enqueued;  // Verdict::queue_ms
    std::optional<Clock::time_point> deadline;
    obs::TraceContext ctx;  // invalid = untraced
  };

  std::future<util::Result<Verdict>> reject(util::Status status);
  /// `deadline_ms` read as submit() documents, made absolute from `now`.
  util::Result<std::optional<Clock::time_point>> resolve_deadline(
      double deadline_ms, Clock::time_point now) const;
  /// Row-queue admission shared by both submit() overloads: moves `req`
  /// into the queue, or fails its promise and leaves it in place.
  void enqueue(Request& req);
  /// One program's pass through the featurization stage, on a pool thread.
  /// Never throws: every failure becomes `req`'s Status.
  void featurize(const isa::Program& program, std::size_t dim, Request& req);
  void worker_loop();
  void process_batch(std::vector<Request>& batch);

  ModelRegistry& registry_;
  ServerConfig config_;
  BoundedQueue<Request> queue_;
  std::shared_ptr<features::FeatureCache> feature_cache_;
  obs::Histogram* featurize_ms_;  // "serve.featurize_ms", resolved once
  ServerStats stats_;
  // Program admission and stop() meet under stage_mu_, so no task reaches
  // the pool once stop() has begun.
  std::mutex stage_mu_;
  std::size_t staged_ = 0;  // programs admitted, not yet enqueued or failed
  bool stopped_ = false;
  util::ThreadPool featurizers_;  // after every member its tasks use
  std::vector<std::thread> workers_;
};

}  // namespace gea::serve
