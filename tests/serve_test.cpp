// Tests for the src/serve subsystem: batched-vs-serial bitwise equivalence,
// admission control, deadline handling, hot-swap atomicity, and determinism
// across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "bingen/families.hpp"
#include "cfg/cfg.hpp"
#include "features/engine.hpp"
#include "features/extended.hpp"
#include "features/scaler.hpp"
#include "isa/program.hpp"
#include "ml/model.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/checkpoint.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace gea;
using gea::util::ErrorCode;
using gea::util::Rng;

constexpr std::size_t kDim = features::kNumFeatures;

std::vector<double> synthetic_row(Rng& rng) {
  std::vector<double> row(kDim);
  for (auto& v : row) v = rng.uniform(0.0, 50.0);
  return row;
}

features::FeatureVector to_fv(const std::vector<double>& row) {
  features::FeatureVector fv{};
  std::copy(row.begin(), row.end(), fv.begin());
  return fv;
}

/// Random-init paper CNN + scaler fit on synthetic rows, written to a fresh
/// temp checkpoint directory. Weight seed varies so versions differ.
std::string write_checkpoint(const std::string& tag, std::uint64_t seed) {
  Rng weight_rng(seed);
  Rng dropout_rng(0);
  auto model = ml::make_paper_cnn(kDim, 2, dropout_rng);
  model.init(weight_rng);

  Rng data_rng(7);
  std::vector<features::FeatureVector> rows;
  for (int i = 0; i < 32; ++i) rows.push_back(to_fv(synthetic_row(data_rng)));
  features::FeatureScaler scaler;
  scaler.fit(rows);

  const auto dir =
      (std::filesystem::temp_directory_path() / ("gea_serve_" + tag)).string();
  std::filesystem::remove_all(dir);
  auto st = serve::Checkpoint::write(dir, model, &scaler);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  return dir;
}

/// Reference logits for `raw` under the checkpoint at `dir`, computed on the
/// legacy per-sample forward path.
std::vector<double> reference_logits(const std::string& dir,
                                     const std::vector<double>& raw) {
  auto loaded = serve::Checkpoint::load(dir, "ref");
  EXPECT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  auto ckpt = std::move(loaded).value();
  auto model = ckpt->clone_model();
  ml::ModelClassifier clf(model, kDim, 2);
  const auto scaled = ckpt->scaler()->transform(to_fv(raw));
  return clf.logits(std::vector<double>(scaled.begin(), scaled.end()));
}

// ---------------------------------------------------------------------------
// Batched forward path

TEST(BatchedInfer, BitwiseIdenticalToSerialForwardCnn) {
  Rng weight_rng(11), dropout_rng(0), data_rng(3);
  auto model = ml::make_paper_cnn(kDim, 2, dropout_rng);
  model.init(weight_rng);
  ml::ModelClassifier clf(model, kDim, 2);

  for (std::size_t batch : {1u, 3u, 16u}) {
    std::vector<std::vector<double>> xs;
    for (std::size_t i = 0; i < batch; ++i) xs.push_back(synthetic_row(data_rng));
    const auto batched = clf.logits_batch(xs);
    ASSERT_EQ(batched.size(), batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const auto serial = clf.logits(xs[i]);
      ASSERT_EQ(batched[i].size(), serial.size());
      for (std::size_t k = 0; k < serial.size(); ++k) {
        // Exact equality: the infer path must be bitwise-identical.
        EXPECT_EQ(batched[i][k], serial[k]) << "batch=" << batch << " i=" << i;
      }
    }
  }
}

TEST(BatchedInfer, BitwiseIdenticalToSerialForwardMlp) {
  Rng weight_rng(13), data_rng(5);
  auto model = ml::make_mlp_baseline(kDim, 2);
  model.init(weight_rng);
  ml::ModelClassifier clf(model, kDim, 2);

  std::vector<std::vector<double>> xs;
  for (int i = 0; i < 16; ++i) xs.push_back(synthetic_row(data_rng));
  const auto batched = clf.logits_batch(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto serial = clf.logits(xs[i]);
    for (std::size_t k = 0; k < serial.size(); ++k) {
      EXPECT_EQ(batched[i][k], serial[k]);
    }
  }
}

TEST(BatchedInfer, ModelInferMatchesForward) {
  Rng weight_rng(17), dropout_rng(0), data_rng(9);
  auto model = ml::make_paper_cnn(kDim, 2, dropout_rng);
  model.init(weight_rng);

  ml::Tensor x({4, 1, kDim});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(data_rng.uniform(0.0, 1.0));
  }
  const auto via_forward = model.forward(x, /*training=*/false);
  const auto via_infer = model.infer(x);
  ASSERT_EQ(via_forward.size(), via_infer.size());
  for (std::size_t i = 0; i < via_forward.size(); ++i) {
    EXPECT_EQ(via_forward[i], via_infer[i]);
  }
}

TEST(BatchedInfer, RejectsRaggedRows) {
  Rng weight_rng(19);
  auto model = ml::make_mlp_baseline(kDim, 2);
  model.init(weight_rng);
  ml::ModelClassifier clf(model, kDim, 2);
  std::vector<std::vector<double>> xs = {std::vector<double>(kDim, 0.1),
                                         std::vector<double>(kDim - 1, 0.1)};
  EXPECT_THROW(clf.logits_batch(xs), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueue, PushPopAndOverflow) {
  serve::BoundedQueue<int> q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.try_push(a));
  EXPECT_TRUE(q.try_push(b));
  EXPECT_FALSE(q.try_push(c));  // full
  EXPECT_EQ(c, 3);              // untouched on refusal
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.try_push(c));
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.pop_for(std::chrono::microseconds(100)), std::nullopt);
}

TEST(BoundedQueue, HoldBlocksPopsButAdmitsPushes) {
  serve::BoundedQueue<int> q(4);
  q.set_hold(true);
  int x = 7;
  EXPECT_TRUE(q.try_push(x));
  EXPECT_EQ(q.pop_for(std::chrono::microseconds(500)), std::nullopt);
  EXPECT_EQ(q.size(), 1u);
  q.set_hold(false);
  EXPECT_EQ(q.pop().value(), 7);
}

TEST(BoundedQueue, CloseDrainsThenSignalsExit) {
  serve::BoundedQueue<int> q(4);
  int a = 1, b = 2;
  q.try_push(a);
  q.try_push(b);
  q.close();
  EXPECT_FALSE(q.try_push(a));  // refused after close
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);  // drained: consumer exits
}

// ---------------------------------------------------------------------------
// Checkpoint + registry

TEST(Checkpoint, RoundTripPreservesLogits) {
  const auto dir = write_checkpoint("roundtrip", 21);
  auto loaded = serve::Checkpoint::load(dir, "v1");
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  auto ckpt = std::move(loaded).value();
  EXPECT_EQ(ckpt->version(), "v1");
  ASSERT_NE(ckpt->scaler(), nullptr);

  Rng data_rng(1);
  const auto raw = synthetic_row(data_rng);
  auto m1 = ckpt->clone_model();
  auto m2 = ckpt->clone_model();
  ml::ModelClassifier c1(m1, kDim, 2), c2(m2, kDim, 2);
  const std::vector<double> x(kDim, 0.5);
  const auto l1 = c1.logits(x), l2 = c2.logits(x);
  for (std::size_t k = 0; k < l1.size(); ++k) EXPECT_EQ(l1[k], l2[k]);
  std::filesystem::remove_all(dir);
  (void)raw;
}

TEST(Checkpoint, LoadRejectsMissingAndTruncated) {
  EXPECT_FALSE(serve::Checkpoint::load("/nonexistent/gea_ckpt", "v").is_ok());

  const auto dir = write_checkpoint("truncated", 23);
  const auto model_file =
      (std::filesystem::path(dir) / serve::Checkpoint::kModelFile).string();
  const auto full_size = std::filesystem::file_size(model_file);
  std::filesystem::resize_file(model_file, full_size / 2);
  auto loaded = serve::Checkpoint::load(dir, "v");
  EXPECT_FALSE(loaded.is_ok());
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, SpecGuardsScalerDimension) {
  serve::CheckpointSpec spec;
  spec.input_dim = features::kNumExtendedFeatures;  // 41: no FeatureScaler
  spec.expect_scaler = true;
  auto loaded = serve::Checkpoint::load("/tmp", "v", spec);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Registry, InstallActivateRetireGenerations) {
  const auto d1 = write_checkpoint("reg_v1", 31);
  const auto d2 = write_checkpoint("reg_v2", 37);
  serve::ModelRegistry reg;
  EXPECT_EQ(reg.active(), nullptr);
  EXPECT_EQ(reg.generation(), 0u);

  ASSERT_TRUE(reg.load("v1", d1).is_ok());
  EXPECT_EQ(reg.active_version(), "v1");
  const auto gen1 = reg.generation();
  EXPECT_GT(gen1, 0u);

  ASSERT_TRUE(reg.load("v2", d2).is_ok());
  EXPECT_EQ(reg.active_version(), "v2");
  EXPECT_GT(reg.generation(), gen1);

  // Retire refuses the active version, accepts the idle one.
  EXPECT_EQ(reg.retire("v2").code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(reg.retire("v1").is_ok());
  EXPECT_EQ(reg.activate("v1").code(), ErrorCode::kNotFound);
  EXPECT_EQ(reg.versions(), std::vector<std::string>{"v2"});

  // A new build staged under the active name, without activating it: the
  // name stays active, so retire still refuses it, and activating the name
  // then serves the staged checkpoint.
  ASSERT_TRUE(reg.load("v1", d1).is_ok());
  auto staged = serve::Checkpoint::load(d2, "v1");
  ASSERT_TRUE(staged.is_ok()) << staged.status().to_string();
  const serve::CheckpointPtr rebuilt = staged.value();
  ASSERT_TRUE(reg.install("v1", rebuilt, /*activate=*/false).is_ok());
  EXPECT_EQ(reg.active_version(), "v1");
  EXPECT_NE(reg.active(), rebuilt);
  EXPECT_EQ(reg.retire("v1").code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(reg.versions(), (std::vector<std::string>{"v1", "v2"}));
  ASSERT_TRUE(reg.activate("v1").is_ok());
  EXPECT_EQ(reg.active(), rebuilt);
  std::filesystem::remove_all(d1);
  std::filesystem::remove_all(d2);
}

TEST(Registry, FailedLoadLeavesActiveUntouched) {
  const auto d1 = write_checkpoint("reg_keep", 41);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", d1).is_ok());
  const auto gen = reg.generation();

  auto st = reg.load("v2", "/nonexistent/gea_ckpt");
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(reg.active_version(), "v1");
  EXPECT_EQ(reg.generation(), gen);
  EXPECT_EQ(reg.versions(), std::vector<std::string>{"v1"});
  std::filesystem::remove_all(d1);
}

// ---------------------------------------------------------------------------
// DetectionServer

TEST(Server, VerdictMatchesOfflineClassifierBitwise) {
  const auto dir = write_checkpoint("verdict", 43);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());

  serve::ServerConfig cfg;
  cfg.workers = 2;
  serve::DetectionServer server(reg, cfg);

  Rng data_rng(2);
  for (int i = 0; i < 8; ++i) {
    const auto raw = synthetic_row(data_rng);
    const auto expected = reference_logits(dir, raw);
    auto verdict = server.detect(raw);
    ASSERT_TRUE(verdict.is_ok()) << verdict.status().to_string();
    const auto& v = verdict.value();
    ASSERT_EQ(v.logits.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(v.logits[k], expected[k]);  // batching never changes results
    }
    EXPECT_EQ(v.model_version, "v1");
    EXPECT_NEAR(v.probabilities[0] + v.probabilities[1], 1.0, 1e-12);
    EXPECT_GE(v.batch_size, 1u);
  }
  server.stop();
  const auto snap = server.stats();
  EXPECT_EQ(snap.completed, 8u);
  EXPECT_EQ(snap.submitted, 8u);
  std::filesystem::remove_all(dir);
}

TEST(Server, DeterministicAcrossWorkerCounts) {
  const auto dir = write_checkpoint("determinism", 47);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());

  Rng data_rng(4);
  std::vector<std::vector<double>> raws;
  for (int i = 0; i < 24; ++i) raws.push_back(synthetic_row(data_rng));

  // (workers, max_batch): batched at three worker counts, and unbatched
  // (each request a batch of one through Model::infer).
  const std::vector<std::pair<std::size_t, std::size_t>> configs = {
      {1, 16}, {2, 16}, {8, 16}, {2, 1}};
  std::vector<std::vector<std::vector<double>>> per_count;  // [cfg][req][k]
  for (const auto& [workers, max_batch] : configs) {
    serve::ServerConfig cfg;
    cfg.workers = workers;
    cfg.max_batch = max_batch;
    serve::DetectionServer server(reg, cfg);
    std::vector<std::future<util::Result<serve::Verdict>>> futures;
    for (const auto& raw : raws) futures.push_back(server.submit(raw));
    std::vector<std::vector<double>> logits;
    for (auto& f : futures) {
      auto r = f.get();
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      logits.push_back(r.value().logits);
    }
    per_count.push_back(std::move(logits));
  }
  for (std::size_t c = 1; c < per_count.size(); ++c) {
    for (std::size_t i = 0; i < raws.size(); ++i) {
      EXPECT_EQ(per_count[c][i], per_count[0][i]) << "server cfg " << c;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Server, QueueOverflowRejectsInsteadOfHanging) {
  const auto dir = write_checkpoint("overflow", 53);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());

  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  serve::DetectionServer server(reg, cfg);
  server.pause();  // workers fenced: queue fills deterministically

  const std::vector<double> raw(kDim, 1.0);
  std::vector<std::future<util::Result<serve::Verdict>>> admitted;
  for (int i = 0; i < 4; ++i) admitted.push_back(server.submit(raw));
  EXPECT_EQ(server.queue_depth(), 4u);

  auto overflow = server.submit(raw);  // 5th: must reject, not block
  auto r = overflow.get();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);

  server.resume();
  for (auto& f : admitted) EXPECT_TRUE(f.get().is_ok());
  const auto snap = server.stats();
  EXPECT_EQ(snap.rejected_full, 1u);
  EXPECT_EQ(snap.completed, 4u);
  std::filesystem::remove_all(dir);
}

TEST(Server, ExpiredDeadlineRejectedAtDequeue) {
  const auto dir = write_checkpoint("deadline", 59);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());

  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);
  server.pause();

  const std::vector<double> raw(kDim, 1.0);
  auto doomed = server.submit(raw, /*deadline_ms=*/1.0);
  auto fine = server.submit(raw);  // no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.resume();

  auto r = doomed.get();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(fine.get().is_ok());
  EXPECT_EQ(server.stats().expired, 1u);
  std::filesystem::remove_all(dir);
}

/// One function of `n` chained skips (compare, then jump over one add):
/// 2n + 1 basic blocks with one shortest path between any two, far larger
/// than any generated family, so featurizing it takes milliseconds.
isa::Program skip_chain(int n) {
  isa::ProgramBuilder b;
  b.begin_function("main");
  b.movi(0, 0);
  for (int i = 0; i < n; ++i) {
    const int skip = b.new_label();
    b.cmpi(0, i);
    b.jump(isa::Opcode::kJe, skip);
    b.alui(isa::Opcode::kAddImm, 1, 1);
    b.bind(skip);
  }
  b.halt();
  b.end_function();
  return b.build();
}

// A program's deadline runs from submit(), so featurization counts against
// it: with the feature cache off, a program whose featurization takes ten
// times its deadline expires at dequeue, while the worker sits idle.
TEST(Server, ProgramDeadlineCoversFeaturization) {
  const auto dir = write_checkpoint("program_deadline", 83);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.feature_cache_capacity = 0;
  serve::DetectionServer server(reg, cfg);

  const auto program = skip_chain(1500);
  // Time the featurization submit() runs, on this thread.
  util::Stopwatch sw;
  const cfg::Cfg graph = cfg::extract_cfg(program, {.main_only = true});
  (void)features::FeatureEngine::local().extract(graph.graph, nullptr);
  const double featurize_ms = sw.elapsed_ms();
  // Long enough for an idle worker to dequeue well inside it, had the
  // clock started at the enqueue.
  const double deadline_ms = featurize_ms / 10.0;
  ASSERT_GE(deadline_ms, 1.0) << "featurization took " << featurize_ms
                              << " ms";

  auto late = server.detect(program, deadline_ms);
  ASSERT_FALSE(late.is_ok());
  EXPECT_EQ(late.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().expired, 1u);

  // With room for its featurization the same program is served.
  auto served = server.detect(program, 100.0 * featurize_ms + 1000.0);
  ASSERT_TRUE(served.is_ok()) << served.status().to_string();
  EXPECT_EQ(server.stats().expired, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
  std::filesystem::remove_all(dir);
}

// A program that expires while it is featurized fails at once and takes no
// queue slot: behind a paused worker and a one-slot queue, the live row
// submitted after it is still admitted and served.
TEST(Server, ExpiredProgramTakesNoQueueSlot) {
  const auto dir = write_checkpoint("expired_slot", 89);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.feature_cache_capacity = 0;
  serve::DetectionServer server(reg, cfg);
  server.pause();

  auto late = server.submit(skip_chain(200), /*deadline_ms=*/0.001);
  auto live = server.submit(std::vector<double>(kDim, 1.0));
  ASSERT_EQ(late.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  const auto expired = late.get();
  ASSERT_FALSE(expired.is_ok());
  EXPECT_EQ(expired.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(server.queue_depth(), 1u);

  server.resume();
  const auto served = live.get();
  EXPECT_TRUE(served.is_ok()) << served.status().to_string();
  const auto snap = server.stats();
  EXPECT_EQ(snap.expired, 1u);
  EXPECT_EQ(snap.rejected_full, 0u);
  EXPECT_EQ(snap.completed, 1u);
  std::filesystem::remove_all(dir);
}

// submit(program) returns at admission: the "serve.featurize" span of the
// program it served was recorded on another thread than the caller's.
TEST(Server, ProgramFeaturizesOffTheSubmittingThread) {
#if defined(GEA_OBS_NOOP)
  GTEST_SKIP() << "GEA_OBS_NOOP build: instrumentation compiled out";
#endif
  const auto dir = write_checkpoint("off_caller", 97);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);

  Rng rng(12);
  const auto program = bingen::generate_program(bingen::Family::kMiraiLike, rng);
  ASSERT_TRUE(server.detect(program).is_ok());
  const auto events = obs::TraceRecorder::global().events();
  const auto it = std::find_if(
      events.rbegin(), events.rend(),
      [](const obs::TraceEvent& e) { return e.name == "serve.featurize"; });
  ASSERT_NE(it, events.rend());
  EXPECT_NE(it->tid, obs::detail::thread_index());
  std::filesystem::remove_all(dir);
}

// Verdict::total_ms runs from the submit() call, so a program's total covers
// its featurization and not only its queue wait and inference.
TEST(Server, ProgramTotalCoversFeaturization) {
  const auto dir = write_checkpoint("program_total", 101);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.feature_cache_capacity = 0;
  serve::DetectionServer server(reg, cfg);

  const auto program = skip_chain(1500);
  // The fastest of three featurizations on this thread.
  double featurize_ms = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    util::Stopwatch sw;
    const cfg::Cfg graph = cfg::extract_cfg(program, {.main_only = true});
    (void)features::FeatureEngine::local().extract(graph.graph, nullptr);
    const double ms = sw.elapsed_ms();
    featurize_ms = rep == 0 ? ms : std::min(featurize_ms, ms);
  }
  ASSERT_GE(featurize_ms, 4.0) << "featurization took " << featurize_ms
                               << " ms";

  auto served = server.detect(program);
  ASSERT_TRUE(served.is_ok()) << served.status().to_string();
  EXPECT_GE(served.value().total_ms, featurize_ms / 2.0)
      << "queue " << served.value().queue_ms << " ms, infer "
      << served.value().infer_ms << " ms";
  std::filesystem::remove_all(dir);
}

// The stage holds at most queue_capacity programs: behind two programs that
// each take milliseconds to featurize, a third is refused at once as full,
// and the two are served.
TEST(Server, FeaturizationStageIsBounded) {
  const auto dir = write_checkpoint("stage_bound", 103);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.feature_cache_capacity = 0;
  serve::DetectionServer server(reg, cfg);

  const auto program = skip_chain(1500);
  std::vector<std::future<util::Result<serve::Verdict>>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(server.submit(program));
  const auto refused = futures[2].get();
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kUnavailable);
  for (int i = 0; i < 2; ++i) {
    const auto r = futures[i].get();
    EXPECT_TRUE(r.is_ok()) << "program " << i << ": " << r.status().to_string();
  }
  const auto snap = server.stats();
  EXPECT_EQ(snap.rejected_full, 1u);
  EXPECT_EQ(snap.completed, 2u);
  std::filesystem::remove_all(dir);
}

// stop() admits nothing more, but every program admitted before it reaches
// the row queue before the queue closes: each one is served.
TEST(Server, StopServesEveryAdmittedProgram) {
  const auto dir = write_checkpoint("stop_drain", 107);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);

  Rng rng(14);
  std::vector<std::future<util::Result<serve::Verdict>>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server.submit(bingen::generate_program(
        i % 2 == 0 ? bingen::Family::kMiraiLike : bingen::Family::kGafgytLike,
        rng)));
  }
  server.stop();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "program " << i;
    const auto r = futures[i].get();
    EXPECT_TRUE(r.is_ok()) << "program " << i << ": " << r.status().to_string();
  }
  EXPECT_EQ(server.stats().completed, 32u);
  std::filesystem::remove_all(dir);
}

// After stop(), both overloads refuse as a stopped server, not a full queue.
TEST(Server, SubmitAfterStopIsRefusedAsStopped) {
  const auto dir = write_checkpoint("stopped", 109);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);
  server.stop();

  Rng rng(15);
  const auto row = server.detect(std::vector<double>(kDim, 1.0));
  const auto program = server.detect(
      bingen::generate_program(bingen::Family::kMiraiLike, rng));
  for (const auto* r : {&row, &program}) {
    ASSERT_FALSE(r->is_ok());
    EXPECT_EQ(r->status().code(), ErrorCode::kUnavailable);
    EXPECT_EQ(r->status().message(), "server stopped");
  }
  EXPECT_EQ(server.stats().rejected_full, 0u);
  std::filesystem::remove_all(dir);
}

// A deadline too far away for the clock to hold, +inf included, can never
// fire, so it means none; a NaN deadline is refused as invalid.
TEST(Server, FarOrNonFiniteDeadlines) {
  const auto dir = write_checkpoint("far_deadline", 113);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);

  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> raw(kDim, 1.0);
  for (const double deadline_ms : {1e13, inf}) {
    const auto r = server.detect(raw, deadline_ms);
    EXPECT_TRUE(r.is_ok()) << "deadline " << deadline_ms << " ms: "
                           << r.status().to_string();
  }
  Rng rng(16);
  const auto program = server.detect(
      bingen::generate_program(bingen::Family::kMiraiLike, rng), inf);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();

  const auto nan =
      server.detect(raw, std::numeric_limits<double>::quiet_NaN());
  ASSERT_FALSE(nan.is_ok());
  EXPECT_EQ(nan.status().code(), ErrorCode::kInvalidArgument);
  const auto snap = server.stats();
  EXPECT_EQ(snap.rejected_invalid, 1u);
  EXPECT_EQ(snap.expired, 0u);
  EXPECT_EQ(snap.completed, 3u);
  std::filesystem::remove_all(dir);
}

TEST(Server, NoActiveModelRejectsImmediately) {
  serve::ModelRegistry reg;  // empty
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);
  auto r = server.detect(std::vector<double>(kDim, 0.0));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(server.stats().rejected_no_model, 1u);
}

TEST(Server, WrongDimensionRejectedAsInvalid) {
  const auto dir = write_checkpoint("baddim", 61);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);
  auto r = server.detect(std::vector<double>(kDim + 3, 0.0));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(server.stats().rejected_invalid, 1u);
  std::filesystem::remove_all(dir);
}

// A NaN or infinite feature is refused at dequeue like a wrong width; the
// finite rows of the same batch are served exactly as they would be alone.
TEST(Server, NonFiniteFeaturesRejectedFiniteRowsServedBitwise) {
  const auto dir = write_checkpoint("nonfinite", 71);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  serve::DetectionServer server(reg, cfg);

  Rng rng(73);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 6; ++i) rows.push_back(synthetic_row(rng));
  rows[1][4] = std::numeric_limits<double>::quiet_NaN();
  rows[3][0] = std::numeric_limits<double>::infinity();
  rows[4][kDim - 1] = -std::numeric_limits<double>::infinity();
  const std::vector<bool> finite = {true, false, true, false, false, true};

  server.pause();  // queue all six so one batch carries them
  std::vector<std::future<util::Result<serve::Verdict>>> futures;
  for (const auto& row : rows) futures.push_back(server.submit(row));
  server.resume();

  auto loaded = serve::Checkpoint::load(dir, "ref");
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  auto model = loaded.value()->clone_model();
  ml::ModelClassifier offline(model, kDim, 2);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto r = futures[i].get();
    if (!finite[i]) {
      ASSERT_FALSE(r.is_ok()) << "row " << i;
      EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument) << "row " << i;
      continue;
    }
    ASSERT_TRUE(r.is_ok()) << "row " << i << ": " << r.status().to_string();
    const auto scaled = loaded.value()->scaler()->transform(to_fv(rows[i]));
    const std::vector<double> x(scaled.begin(), scaled.end());
    EXPECT_EQ(r.value().logits, reference_logits(dir, rows[i])) << "row " << i;
    EXPECT_EQ(r.value().probabilities, offline.probabilities(x)) << "row " << i;
    EXPECT_EQ(r.value().predicted, offline.predict(x)) << "row " << i;
    EXPECT_EQ(r.value().batch_size, 3u) << "row " << i;
  }
  EXPECT_EQ(server.stats().rejected_invalid, 3u);
  std::filesystem::remove_all(dir);
}

TEST(Server, ProgramSubmitFeaturizesAndServes) {
  const auto dir = write_checkpoint("program", 67);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);

  Rng rng(8);
  const auto program = bingen::generate_program(bingen::Family::kMiraiLike, rng);
  auto r = server.detect(program);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_LT(r.value().predicted, 2u);

  // Four threads submit every program of a set, so the stage featurizes
  // them concurrently and the feature cache sees misses and hits race. Each
  // verdict's logits equal those of the program's precomputed row, bitwise.
  std::vector<isa::Program> programs;
  std::vector<std::vector<double>> expected;
  for (int i = 0; i < 8; ++i) {
    programs.push_back(bingen::generate_program(
        i % 2 == 0 ? bingen::Family::kMiraiLike : bingen::Family::kGafgytLike,
        rng));
    const cfg::Cfg graph = cfg::extract_cfg(programs.back(), {.main_only = true});
    const auto fv = features::FeatureEngine::local().extract(graph.graph, nullptr);
    expected.push_back(
        reference_logits(dir, std::vector<double>(fv.begin(), fv.end())));
  }
  std::atomic<int> failed{0};
  std::atomic<int> mismatched{0};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::future<util::Result<serve::Verdict>>> futures;
      for (std::size_t i = 0; i < programs.size(); ++i) {
        futures.push_back(server.submit(programs[(i + 2 * t) % programs.size()]));
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const auto v = futures[i].get();
        if (!v.is_ok()) {
          failed.fetch_add(1);
        } else if (v.value().logits != expected[(i + 2 * t) % programs.size()]) {
          mismatched.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(mismatched.load(), 0);
  std::filesystem::remove_all(dir);
}

TEST(Server, FeaturizeHistogramCountsProgramSubmissionsOnly) {
#if defined(GEA_OBS_NOOP)
  GTEST_SKIP() << "GEA_OBS_NOOP build: instrumentation compiled out";
#endif
  const auto dir = write_checkpoint("featurize", 69);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);

  auto observations = [] {
    const auto snap = obs::MetricsRegistry::global().snapshot();
    const auto it = snap.histograms.find("serve.featurize_ms");
    return it == snap.histograms.end() ? std::uint64_t{0} : it->second.count;
  };
  const std::uint64_t before = observations();

  constexpr std::uint64_t kPrograms = 3;
  Rng rng(9);
  for (std::uint64_t i = 0; i < kPrograms; ++i) {
    const auto program =
        bingen::generate_program(bingen::Family::kGafgytLike, rng);
    ASSERT_TRUE(server.detect(program).is_ok());
  }
  EXPECT_EQ(observations(), before + kPrograms);

  // A feature row arrives featurized: nothing to observe.
  Rng row_rng(10);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.detect(synthetic_row(row_rng)).is_ok());
  }
  EXPECT_EQ(observations(), before + kPrograms);
  std::filesystem::remove_all(dir);
}

TEST(Server, HotSwapIsAtomicUnderTraffic) {
  const auto d1 = write_checkpoint("swap_v1", 71);
  const auto d2 = write_checkpoint("swap_v2", 73);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", d1).is_ok());

  Rng data_rng(6);
  const auto raw = synthetic_row(data_rng);
  const auto logits_v1 = reference_logits(d1, raw);
  const auto logits_v2 = reference_logits(d2, raw);
  ASSERT_NE(logits_v1, logits_v2);  // different weight seeds

  // Four workers run infer on the active checkpoint's one shared model
  // while four clients keep them busy and the main thread swaps versions.
  serve::ServerConfig cfg;
  cfg.workers = 4;
  serve::DetectionServer server(reg, cfg);

  std::atomic<bool> stop_traffic{false};
  std::atomic<int> torn{0};
  std::atomic<int> served{0};
  std::vector<std::thread> traffic;
  for (int c = 0; c < 4; ++c) {
    traffic.emplace_back([&] {
      while (!stop_traffic.load()) {
        auto r = server.detect(raw);
        if (!r.is_ok()) continue;  // only transient kUnavailable is possible
        served.fetch_add(1);
        const auto& l = r.value().logits;
        // Every verdict must come from exactly v1 or v2 — never a mix.
        if (l != logits_v1 && l != logits_v2) torn.fetch_add(1);
      }
    });
  }

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(reg.load("v2", d2).is_ok());
    // A corrupt checkpoint must fail cleanly and keep serving v2.
    EXPECT_FALSE(reg.load("v3", "/nonexistent/gea_ckpt").is_ok());
    EXPECT_EQ(reg.active_version(), "v2");
    ASSERT_TRUE(reg.activate("v1").is_ok());
  }
  stop_traffic.store(true);
  for (auto& t : traffic) t.join();
  server.stop();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(served.load(), 0);
  std::filesystem::remove_all(d1);
  std::filesystem::remove_all(d2);
}

TEST(Server, StatsSummaryRendersAllSections) {
  const auto dir = write_checkpoint("stats", 79);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.detect(std::vector<double>(kDim, 0.25)).is_ok());
  }
  const auto snap = server.stats();
  EXPECT_EQ(snap.completed, 3u);
  EXPECT_EQ(snap.batches, snap.batch_sizes.size() >= 1 ? snap.batches : 0u);
  const auto text = snap.summary();
  EXPECT_NE(text.find("served"), std::string::npos);
  EXPECT_NE(text.find("batches"), std::string::npos);
  EXPECT_NE(text.find("p95"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// mean_batch() is defined as the mean of the batch-size histogram — the two
// can never disagree, and expired requests (dropped at dequeue, never
// batched) cannot perturb it.
TEST(Stats, MeanBatchIsTheHistogramMean) {
  serve::ServerStats stats;
  stats.on_batch(4);
  stats.on_batch(2);
  stats.on_batch(2);
  for (int i = 0; i < 8; ++i) {
    stats.on_submitted();
    stats.on_accepted();
    stats.on_completed(0.1, 0.2, 0.3);
  }
  // Expired requests never reach a batch; the mean must not move.
  const double before = stats.snapshot().mean_batch();
  stats.on_expired();
  stats.on_expired();
  const auto snap = stats.snapshot();
  EXPECT_DOUBLE_EQ(snap.mean_batch(), before);

  // Pin the histogram/mean relationship explicitly.
  std::uint64_t in_batches = 0;
  for (const auto& [size, count] : snap.batch_sizes) {
    in_batches += static_cast<std::uint64_t>(size) * count;
  }
  EXPECT_EQ(in_batches, 8u);
  EXPECT_EQ(snap.batches, 3u);
  EXPECT_DOUBLE_EQ(snap.mean_batch(),
                   static_cast<double>(in_batches) /
                       static_cast<double>(snap.batches));
  EXPECT_DOUBLE_EQ(snap.mean_batch(), 8.0 / 3.0);
}

TEST(Stats, MeanBatchEmptyIsZero) {
  serve::ServerStats stats;
  EXPECT_DOUBLE_EQ(stats.snapshot().mean_batch(), 0.0);
}

// ServerStats mirrors every event into the process-wide metrics registry
// under "serve.*", so serving shows up in the same exportable surface as
// the pipeline, trainer, and attacks.
TEST(Stats, PublishesIntoGlobalMetricsRegistry) {
  auto& reg = gea::obs::MetricsRegistry::global();
  const auto before = reg.snapshot();
  auto at = [](const std::map<std::string, std::uint64_t>& m,
               const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? std::uint64_t{0} : it->second;
  };

  serve::ServerStats stats;
  stats.on_submitted();
  stats.on_accepted();
  stats.on_rejected_full();
  stats.on_expired();
  stats.on_batch(4);
  stats.on_completed(0.5, 1.0, 1.5);

  const auto after = reg.snapshot();
  EXPECT_EQ(at(after.counters, "serve.submitted_total"),
            at(before.counters, "serve.submitted_total") + 1);
  EXPECT_EQ(at(after.counters, "serve.rejected_full_total"),
            at(before.counters, "serve.rejected_full_total") + 1);
  EXPECT_EQ(at(after.counters, "serve.expired_total"),
            at(before.counters, "serve.expired_total") + 1);
  EXPECT_EQ(at(after.counters, "serve.batches_total"),
            at(before.counters, "serve.batches_total") + 1);
  EXPECT_EQ(at(after.counters, "serve.completed_total"),
            at(before.counters, "serve.completed_total") + 1);
  EXPECT_EQ(after.histograms.at("serve.batch_size").count,
            (before.histograms.count("serve.batch_size")
                 ? before.histograms.at("serve.batch_size").count
                 : 0) +
                1);
  EXPECT_EQ(after.histograms.at("serve.infer_ms").count,
            (before.histograms.count("serve.infer_ms")
                 ? before.histograms.at("serve.infer_ms").count
                 : 0) +
                1);
}

// ServerStats keeps no per-request samples: the snapshot's latency
// percentiles are bucket estimates read from the process-wide serve.*
// histograms, and summary() still renders them.
TEST(Stats, LatencyPercentilesReadTheRegistryHistograms) {
#if defined(GEA_OBS_NOOP)
  GTEST_SKIP() << "GEA_OBS_NOOP build: instrumentation compiled out";
#endif
  serve::ServerStats stats;
  const std::size_t before = stats.snapshot().total_ms.count;
  for (int i = 0; i < 50; ++i) stats.on_completed(0.2, 0.7, 4.0);
  const auto snap = stats.snapshot();
  EXPECT_EQ(snap.total_ms.count, before + 50);

  const auto h =
      obs::MetricsRegistry::global().snapshot().histograms.at("serve.total_ms");
  EXPECT_EQ(snap.total_ms.count, h.count);
  EXPECT_DOUBLE_EQ(snap.total_ms.mean, h.mean());
  EXPECT_DOUBLE_EQ(snap.total_ms.p50, h.quantile(0.50));
  EXPECT_DOUBLE_EQ(snap.total_ms.p95, h.quantile(0.95));
  EXPECT_DOUBLE_EQ(snap.total_ms.p99, h.quantile(0.99));
  EXPECT_LE(snap.total_ms.p99, snap.total_ms.max);

  const auto text = snap.summary();
  for (const char* key : {"p50", "p95", "p99"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

// ServerStats takes no lock: every count is an obs::Tally, and snapshot()
// loads later stages first. Four threads submit rows and programs while a
// fifth snapshots in a loop: every snapshot has completed <= accepted <=
// submitted, and the final counts are exact.
TEST(Stats, SnapshotsStayOrderedUnderConcurrentTraffic) {
  const auto dir = write_checkpoint("ordered", 71);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 1024;
  serve::DetectionServer server(reg, cfg);

  Rng rng(12);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 16; ++i) rows.push_back(synthetic_row(rng));
  std::vector<isa::Program> programs;
  for (int i = 0; i < 4; ++i) {
    programs.push_back(bingen::generate_program(
        i % 2 == 0 ? bingen::Family::kMiraiLike : bingen::Family::kGafgytLike,
        rng));
  }

  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 100;  // alternating rows and programs
  std::atomic<bool> done{false};
  std::uint64_t snapshots = 0, disordered = 0;
  std::thread watcher([&] {
    while (!done.load()) {
      const auto s = server.stats();
      if (s.completed > s.accepted || s.accepted > s.submitted) ++disordered;
      ++snapshots;
    }
  });
  std::atomic<int> failed{0};
  std::vector<std::thread> submitters;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::future<util::Result<serve::Verdict>>> futures;
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t k = i + t;
        futures.push_back(i % 2 == 0
                              ? server.submit(rows[k % rows.size()])
                              : server.submit(programs[k % programs.size()]));
      }
      for (auto& f : futures) {
        if (!f.get().is_ok()) failed.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  done.store(true);
  watcher.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(disordered, 0u) << "of " << snapshots << " snapshots";
  const auto s = server.stats();
  EXPECT_EQ(s.submitted, kThreads * kPerThread);
  EXPECT_EQ(s.accepted, kThreads * kPerThread);
  EXPECT_EQ(s.completed, kThreads * kPerThread);
  EXPECT_EQ(s.rejected_full + s.rejected_invalid + s.rejected_no_model +
                s.expired,
            0u);
  std::uint64_t batched = 0, batches = 0;
  for (const auto& [size, count] : s.batch_sizes) {
    batched += static_cast<std::uint64_t>(size) * count;
    batches += count;
  }
  EXPECT_EQ(batched, s.completed);
  EXPECT_EQ(batches, s.batches);
  std::filesystem::remove_all(dir);
}

// Each StatsSnapshot count equals the change in its "serve.*" series over
// a server's life that reaches every admission and dequeue outcome.
TEST(Stats, InstanceCountsEqualTheirRegistryDeltas) {
#if defined(GEA_OBS_NOOP)
  GTEST_SKIP() << "GEA_OBS_NOOP build: instrumentation compiled out";
#endif
  const auto dir = write_checkpoint("deltas", 73);
  serve::ModelRegistry reg;
  const auto before = obs::MetricsRegistry::global().snapshot().counters;
  serve::StatsSnapshot s;
  {
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 2;
    serve::DetectionServer server(reg, cfg);
    Rng rng(14);
    EXPECT_EQ(server.detect(synthetic_row(rng)).status().code(),
              ErrorCode::kUnavailable);  // no model yet
    ASSERT_TRUE(reg.load("v1", dir).is_ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(server.detect(synthetic_row(rng)).is_ok());
    }
    EXPECT_EQ(server.detect(std::vector<double>(kDim - 1, 0.5)).status().code(),
              ErrorCode::kInvalidArgument);  // rejected at dequeue
    EXPECT_EQ(server.detect(synthetic_row(rng), std::nan("")).status().code(),
              ErrorCode::kInvalidArgument);  // rejected at admission
    server.pause();
    auto expiring = server.submit(synthetic_row(rng), 1.0);
    auto served = server.submit(synthetic_row(rng));
    EXPECT_EQ(server.detect(synthetic_row(rng)).status().code(),
              ErrorCode::kUnavailable);  // queue full
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.resume();
    EXPECT_EQ(expiring.get().status().code(), ErrorCode::kDeadlineExceeded);
    EXPECT_TRUE(served.get().is_ok());
    server.stop();
    s = server.stats();
  }
  const auto after = obs::MetricsRegistry::global().snapshot().counters;
  const auto delta = [&](const std::string& name) {
    const auto b = before.find(name);
    return after.at(name) - (b == before.end() ? 0 : b->second);
  };
  EXPECT_EQ(s.submitted, 9u);
  EXPECT_EQ(delta("serve.submitted_total"), s.submitted);
  EXPECT_EQ(delta("serve.accepted_total"), s.accepted);
  EXPECT_EQ(delta("serve.rejected_full_total"), s.rejected_full);
  EXPECT_EQ(delta("serve.rejected_invalid_total"), s.rejected_invalid);
  EXPECT_EQ(delta("serve.rejected_no_model_total"), s.rejected_no_model);
  EXPECT_EQ(delta("serve.expired_total"), s.expired);
  EXPECT_EQ(delta("serve.completed_total"), s.completed);
  EXPECT_EQ(delta("serve.batches_total"), s.batches);
  for (const std::uint64_t n : {s.accepted, s.rejected_full, s.rejected_invalid,
                                s.rejected_no_model, s.expired, s.completed,
                                s.batches}) {
    EXPECT_GT(n, 0u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
