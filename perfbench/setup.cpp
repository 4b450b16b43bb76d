// Set-up (corpus, training, checkpoint, server start), input synthesis, the
// offline oracle, and the private Fig. 5 stack used for per-layer timings.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "cfg/cfg.hpp"
#include "common.hpp"
#include "features/engine.hpp"
#include "ml/activations.hpp"
#include "ml/conv1d.hpp"
#include "ml/dense.hpp"
#include "ml/pooling.hpp"
#include "ml/trainer.hpp"
#include "ml/zoo.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/threadpool.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kDim = features::kNumFeatures;
constexpr std::size_t kClasses = 2;
constexpr std::uint64_t kTrainSeed = 2019;  // ICDCS'19, the corpus default

void require(const util::Status& st, const char* what) {
  if (!st.is_ok()) {
    throw std::runtime_error(std::string(what) + ": " + st.to_string());
  }
}

std::vector<double> to_row(const features::FeatureVector& fv) {
  return {fv.begin(), fv.end()};
}

}  // namespace

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

double Params::num(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) throw std::invalid_argument("missing --param " + key);
  return std::stod(it->second);
}

std::size_t Params::count(const std::string& key) const {
  const double v = num(key);
  if (v < 0 || v != std::floor(v)) {
    throw std::invalid_argument("--param " + key + " must be a whole number");
  }
  return static_cast<std::size_t>(v);
}

void Report::mix(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    fingerprint ^= p[i];
    fingerprint *= 1099511628211ULL;
  }
}

double peak_rss_mb() {
  return static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);
}

std::vector<double> World::scale(const std::vector<double>& raw) const {
  features::FeatureVector fv{};
  std::copy(raw.begin(), raw.end(), fv.begin());
  return to_row(offline->scaler()->transform(fv));
}

std::vector<std::vector<double>> World::expected_logits(
    const std::vector<std::vector<double>>& raw_rows) {
  std::vector<std::vector<double>> out;
  out.reserve(raw_rows.size());
  constexpr std::size_t kChunk = 256;
  for (std::size_t b = 0; b < raw_rows.size(); b += kChunk) {
    std::vector<std::vector<double>> xs;
    for (std::size_t i = b; i < std::min(raw_rows.size(), b + kChunk); ++i) {
      xs.push_back(scale(raw_rows[i]));
    }
    for (auto& z : oracle->logits_batch(xs)) out.push_back(std::move(z));
  }
  return out;
}

std::unique_ptr<World> build_world(const Options& opt, bool remote,
                                   double& setup_s, SpanLog* log) {
  auto w = std::make_unique<World>();
  std::vector<Span> spans;
  const std::uint64_t root = log ? log->next_id() : 0;
  const double t0 = now_us();
  double mark = t0;
  auto stage = [&](const char* name) {
    const double t = now_us();
    if (log) log->add(spans, root, name, mark, t);
    mark = t;
  };

  // The detector under test is the same for every workload seed: a fixed
  // corpus and fixed initialisation. The seed draws the traffic and the
  // attack inputs instead, so runs on different seeds stay comparable.
  dataset::CorpusConfig cc;
  cc.num_malicious = kTrainMalicious;
  cc.num_benign = kTrainBenign;
  cc.seed = kTrainSeed;
  cc.threads = kThreads;
  w->corpus = dataset::Corpus::generate(cc);
  stage("setup.corpus");

  features::FeatureScaler scaler;
  scaler.fit(w->corpus.feature_rows());
  ml::LabeledData data;
  for (const auto& s : w->corpus.samples()) {
    data.rows.push_back(to_row(scaler.transform(s.features)));
    data.labels.push_back(s.label);
  }
  util::Rng dropout_rng(util::mix_seed(kTrainSeed, 1));
  util::Rng weight_rng(util::mix_seed(kTrainSeed, 2));
  auto model = ml::make_paper_cnn(kDim, kClasses, dropout_rng);
  model.init(weight_rng);
  ml::TrainConfig tc;
  tc.epochs = kTrainEpochs;
  tc.threads = kThreads;
  tc.seed = kTrainSeed;
  ml::train(model, data, tc);
  stage("setup.train");

  w->ckpt_dir = opt.work_dir + "/checkpoint";
  std::filesystem::remove_all(w->ckpt_dir);
  require(serve::Checkpoint::write(w->ckpt_dir, model, &scaler),
          "checkpoint write");
  w->registry = std::make_unique<serve::ModelRegistry>();
  require(w->registry->load("v1", w->ckpt_dir), "checkpoint load");
  stage("setup.checkpoint");

  serve::ServerConfig sc;
  sc.workers = kServerWorkers;
  sc.max_batch = kMaxBatch;
  sc.queue_capacity = kQueueCapacity;
  sc.feature_cache_capacity = kFeatureCache;
  w->server = std::make_unique<serve::DetectionServer>(*w->registry, sc);
  if (remote) {
    serve::TransportConfig tcfg;
    tcfg.fault_injection = false;
    tcfg.max_inflight_per_conn = kMaxInflightPerConn;
    w->transport = std::make_unique<serve::TransportServer>(*w->server, tcfg);
    require(w->transport->start(), "transport start");
  }
  stage("setup.server");

  const auto first_row = to_row(w->corpus.samples().front().features);
  if (remote) {
    serve::ClientConfig ccfg;
    ccfg.port = w->transport->port();
    serve::RemoteClient client(ccfg);
    auto v = client.detect(first_row);
    require(v.status(), "first remote verdict");
  } else {
    auto v = w->server->detect(first_row);
    require(v.status(), "first verdict");
  }
  stage("setup.first_verdict");
  const double t1 = now_us();
  setup_s = (t1 - t0) / 1e6;
  if (log) {
    spans.push_back(Span{root, 0, "setup", t0, t1});
    log->merge(spans);
  }

  auto loaded = serve::Checkpoint::load(w->ckpt_dir, "oracle");
  require(loaded.status(), "oracle checkpoint load");
  w->offline = loaded.value();
  w->oracle_model = w->offline->clone_model();
  w->oracle = std::make_unique<ml::ModelClassifier>(w->oracle_model, kDim,
                                                    kClasses);
  return w;
}

std::vector<std::vector<double>> featurize_programs(
    const std::vector<isa::Program>& programs, std::size_t threads) {
  std::vector<std::vector<double>> rows(programs.size());
  util::ParallelOptions po;
  po.threads = threads;
  po.label = "perfbench featurize";
  require(util::parallel_for(
              programs.size(),
              [&](std::size_t i) {
                cfg::CfgOptions opts;
                opts.main_only = true;
                opts.label_blocks = false;
                const cfg::Cfg g = cfg::extract_cfg(programs[i], opts);
                features::FeatureEngine engine;  // no cache: the oracle path
                rows[i] = to_row(engine.extract(g.graph, nullptr));
                return util::Status::ok();
              },
              po),
          "featurize programs");
  return rows;
}

Fresh fresh_inputs(std::uint64_t seed, std::size_t total, double size_scale,
                   std::size_t streams, bool keep_programs) {
  // Table I: 2,281 malicious and 276 benign samples. Each stream generates
  // chunks of at most kChunk samples and keeps only what the workload
  // serves, so memory stays bounded however large the pool.
  constexpr std::size_t kChunk = 512;
  std::vector<Fresh> parts(streams);
  std::vector<std::string> errors(streams);
  std::vector<std::thread> pool;
  for (std::size_t k = 0; k < streams; ++k) {
    pool.emplace_back([&, k] {
      try {
        std::size_t left = total / streams + (k < total % streams ? 1 : 0);
        for (std::size_t chunk = 0; left > 0; ++chunk) {
          const std::size_t n = std::min(left, kChunk);
          left -= n;
          dataset::CorpusConfig cc;
          cc.num_malicious = static_cast<std::size_t>(
              std::llround(static_cast<double>(n) * 2281.0 / 2557.0));
          cc.num_benign = n - cc.num_malicious;
          cc.seed = util::mix_seed(seed ^ 0xf2e5ULL, k * 100000 + chunk);
          cc.gen.size_scale = size_scale;
          cc.threads = 1;
          auto corpus = dataset::Corpus::generate(cc);
          for (auto& s : corpus.samples()) {
            parts[k].rows.push_back(to_row(s.features));
            if (keep_programs) parts[k].programs.push_back(std::move(s.program));
          }
        }
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
    });
  }
  for (auto& t : pool) t.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error("fresh inputs: " + e);
  }
  Fresh out;
  for (auto& part : parts) {
    for (auto& r : part.rows) out.rows.push_back(std::move(r));
    for (auto& p : part.programs) out.programs.push_back(std::move(p));
  }
  return out;
}

// --- Private Fig. 5 stack ---------------------------------------------------

const char* LayerTimes::group_name(std::size_t g) {
  static const char* kNames[kGroups] = {"conv1", "conv2", "conv3", "conv4",
                                        "dense1", "dense2", "other"};
  return kNames[g];
}

struct PrivateStack::Impl {
  util::Rng dropout_rng{0};
  std::vector<ml::LayerPtr> layers;
  std::vector<std::size_t> group;  // LayerTimes group per layer

  ml::Tensor batch_of(const std::vector<std::vector<double>>& rows,
                      std::size_t offset, std::size_t n) const {
    ml::Tensor t({n, 1, kDim});
    for (std::size_t i = 0; i < n; ++i) {
      const auto& r = rows[(offset + i) % rows.size()];
      for (std::size_t j = 0; j < kDim; ++j) {
        t[i * kDim + j] = static_cast<float>(r[j]);
      }
    }
    return t;
  }
};

PrivateStack::PrivateStack(const std::string& model_bin, World& world,
                           const std::vector<std::vector<double>>& probe,
                           Report& report)
    : impl_(std::make_unique<Impl>()) {
  using ml::Padding;
  auto& L = impl_->layers;
  auto& G = impl_->group;
  auto add = [&](ml::LayerPtr layer, std::size_t g) {
    L.push_back(std::move(layer));
    G.push_back(g);
  };
  constexpr std::size_t kOther = 6;
  const std::size_t flat = 92 * (((kDim - 2) / 2 - 2) / 2);
  add(std::make_unique<ml::Conv1D>(1, 46, 3, Padding::kSame), 0);
  add(std::make_unique<ml::ReLU>(), kOther);
  add(std::make_unique<ml::Conv1D>(46, 46, 3, Padding::kValid), 1);
  add(std::make_unique<ml::ReLU>(), kOther);
  add(std::make_unique<ml::MaxPool1D>(2), kOther);
  add(std::make_unique<ml::Dropout>(0.25, impl_->dropout_rng), kOther);
  add(std::make_unique<ml::Conv1D>(46, 92, 3, Padding::kSame), 2);
  add(std::make_unique<ml::ReLU>(), kOther);
  add(std::make_unique<ml::Conv1D>(92, 92, 3, Padding::kValid), 3);
  add(std::make_unique<ml::ReLU>(), kOther);
  add(std::make_unique<ml::MaxPool1D>(2), kOther);
  add(std::make_unique<ml::Dropout>(0.25, impl_->dropout_rng), kOther);
  add(std::make_unique<ml::Flatten>(), kOther);
  add(std::make_unique<ml::Dense>(flat, 512), 4);
  add(std::make_unique<ml::ReLU>(), kOther);
  add(std::make_unique<ml::Dropout>(0.5, impl_->dropout_rng), kOther);
  add(std::make_unique<ml::Dense>(512, kClasses), 5);

  // model.bin stores parameters in layer order; load it into a zoo model of
  // the same architecture and copy the values across layer by layer.
  util::Rng rng(0);
  auto reference = ml::make_paper_cnn(kDim, kClasses, rng);
  require(reference.load_checked(model_bin), "private stack model.bin");
  const auto src = reference.params();
  std::size_t k = 0;
  for (auto& layer : L) {
    for (auto& param : layer->params()) {
      if (k >= src.size() || src[k].value->size() != param.value->size()) {
        throw std::runtime_error("private stack: parameter layout mismatch");
      }
      *param.value = *src[k].value;
      ++k;
    }
  }
  if (k != src.size()) throw std::runtime_error("private stack: parameter count");

  // The stack must compute what the server computes.
  ml::Tensor x = impl_->batch_of(probe, 0, probe.size());
  for (auto& layer : L) x = layer->infer(x);
  const auto expect = world.oracle->logits_batch(probe);
  bool same = x.dim(0) == probe.size();
  for (std::size_t i = 0; same && i < probe.size(); ++i) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      same = same && static_cast<double>(x[i * kClasses + c]) == expect[i][c];
    }
  }
  report.check(same, "private Fig. 5 stack logits differ from the oracle");
}

PrivateStack::~PrivateStack() = default;

namespace {

LayerTimes medians(const std::vector<LayerTimes>& reps) {
  LayerTimes out;
  for (std::size_t g = 0; g < LayerTimes::kGroups; ++g) {
    std::vector<double> xs;
    for (const auto& r : reps) xs.push_back(r.ms[g]);
    out.ms[g] = util::median(xs);
  }
  return out;
}

}  // namespace

LayerTimes PrivateStack::infer_times(const std::vector<std::vector<double>>& rows,
                                     std::size_t batch, std::size_t reps) {
  std::vector<LayerTimes> all(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    ml::Tensor x = impl_->batch_of(rows, r * batch, batch);
    for (std::size_t l = 0; l < impl_->layers.size(); ++l) {
      const double t0 = now_us();
      x = impl_->layers[l]->infer(x);
      all[r].ms[impl_->group[l]] += (now_us() - t0) / 1e3;
    }
  }
  return medians(all);
}

LayerTimes PrivateStack::backward_times(
    const std::vector<std::vector<double>>& rows, std::size_t reps) {
  std::vector<LayerTimes> all(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    ml::Tensor x = impl_->batch_of(rows, r, 1);
    for (auto& layer : impl_->layers) x = layer->forward(x, false);
    ml::Tensor g({1, kClasses});
    g[0] = 1.0f;
    g[1] = -1.0f;
    for (std::size_t l = impl_->layers.size(); l-- > 0;) {
      const double t0 = now_us();
      g = impl_->layers[l]->backward(g);
      all[r].ms[impl_->group[l]] += (now_us() - t0) / 1e3;
    }
  }
  return medians(all);
}

double PrivateStack::forward_flops(std::size_t input_dim, std::size_t classes) {
  // 2 flops per multiply-add: conv = out_len * out_ch * in_ch * k * 2.
  const double l1 = static_cast<double>(input_dim);  // conv1 same
  const double l2 = l1 - 2;                           // conv2 valid
  const double l3 = std::floor(l2 / 2);               // pool, conv3 same
  const double l4 = l3 - 2;                           // conv4 valid
  const double flat = 92 * std::floor(l4 / 2);
  return 2 * (l1 * 46 * 1 * 3 + l2 * 46 * 46 * 3 + l3 * 92 * 46 * 3 +
              l4 * 92 * 92 * 3 + flat * 512 + 512 * static_cast<double>(classes));
}

}  // namespace perfbench
