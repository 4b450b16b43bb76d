#include "ml/trainer.hpp"

#include <numeric>
#include <stdexcept>

#include "kernels/config.hpp"
#include "ml/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"

namespace gea::ml {

namespace {

/// Registry handles for the per-epoch training metrics, resolved once.
/// Values are published after each epoch's arithmetic completes, so they
/// observe training without touching its numerics.
struct TrainMetrics {
  obs::Counter& epochs;
  obs::Histogram& epoch_ms;
  obs::Gauge& last_loss;
  obs::Gauge& last_accuracy;

  static TrainMetrics& get() {
    static TrainMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return TrainMetrics{reg.counter("train.epochs_total"),
                          reg.histogram("train.epoch_ms"),
                          reg.gauge("train.last_loss"),
                          reg.gauge("train.last_accuracy")};
    }();
    return m;
  }

  void on_epoch(double loss, double accuracy, double wall_ms) {
    epochs.inc();
    epoch_ms.observe(wall_ms);
    last_loss.set(loss);
    last_accuracy.set(accuracy);
  }
};

/// Rows of `logits` whose argmax matches the label — the per-batch
/// training accuracy numerator, computed from logits already in hand.
std::size_t count_correct(const Tensor& logits,
                          const std::vector<std::uint8_t>& y) {
  std::size_t correct = 0;
  const auto pred = argmax_rows(logits);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (pred[i] == y[i]) ++correct;
  }
  return correct;
}

}  // namespace

Tensor LabeledData::batch_tensor(const std::vector<std::size_t>& indices,
                                 std::size_t begin, std::size_t end) const {
  if (begin >= end || end > indices.size()) {
    throw std::invalid_argument("batch_tensor: bad range");
  }
  const std::size_t n = end - begin;
  const std::size_t d = rows.front().size();
  Tensor t({n, 1, d});
  for (std::size_t i = 0; i < n; ++i) {
    const auto& row = rows[indices[begin + i]];
    if (row.size() != d) throw std::invalid_argument("batch_tensor: ragged rows");
    for (std::size_t j = 0; j < d; ++j) {
      t[i * d + j] = static_cast<float>(row[j]);
    }
  }
  return t;
}

namespace {

/// Fixed chunk count for the data-parallel gradient path. The reduction
/// structure (chunk boundaries, merge order) depends only on the batch size
/// and this constant — never on the worker count — which is what makes
/// chunked training bitwise reproducible at any thread count.
constexpr std::size_t kGradChunks = 8;

TrainStats train_chunked(Model& model, const LabeledData& data,
                         const TrainConfig& cfg) {
  util::Rng rng(cfg.seed);
  Adam opt(cfg.learning_rate);
  TrainStats stats;

  // One replica + one dropout stream per chunk. Replicas are cloned once
  // and refreshed with the post-step parameters each batch.
  std::vector<Model> replicas;
  std::vector<util::Rng> chunk_rngs(kGradChunks, util::Rng(0));
  replicas.reserve(kGradChunks);
  for (std::size_t cidx = 0; cidx < kGradChunks; ++cidx) {
    replicas.push_back(model.clone());
    replicas.back().bind_rng(&chunk_rngs[cidx]);
  }

  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    obs::TraceSpan epoch_span("train.epoch");
    rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    std::size_t correct = 0;
    std::size_t batch_index = 0;
    for (std::size_t begin = 0; begin < order.size();
         begin += cfg.batch_size, ++batch_index) {
      const std::size_t end = std::min(begin + cfg.batch_size, order.size());
      const std::size_t bn = end - begin;

      // Counter-derived dropout streams: a pure function of
      // (seed, epoch, batch, chunk), never a shared sequenced Rng.
      const std::uint64_t batch_seed =
          util::mix_seed(util::mix_seed(cfg.seed, epoch), batch_index);
      for (std::size_t cidx = 0; cidx < kGradChunks; ++cidx) {
        replicas[cidx].copy_params_from(model);
        replicas[cidx].zero_grad();
        chunk_rngs[cidx] = util::Rng(util::mix_seed(batch_seed, cidx));
      }

      std::vector<double> chunk_loss(kGradChunks, 0.0);
      std::vector<std::size_t> chunk_correct(kGradChunks, 0);
      const auto st = util::parallel_for_ranges(
          bn, kGradChunks,
          [&](std::size_t cb, std::size_t ce, std::size_t chunk) {
            if (cb == ce) return util::Status::ok();
            const std::size_t cn = ce - cb;
            const Tensor x = data.batch_tensor(order, begin + cb, begin + ce);
            std::vector<std::uint8_t> y(cn);
            for (std::size_t i = 0; i < cn; ++i) {
              y[i] = data.labels[order[begin + cb + i]];
            }
            Model& m = replicas[chunk];
            const Tensor logits = m.forward(x, /*training=*/true);
            chunk_loss[chunk] =
                cross_entropy(logits, y) * static_cast<double>(cn);
            chunk_correct[chunk] = count_correct(logits, y);
            Tensor grad = cross_entropy_grad(logits, y);
            // cross_entropy_grad normalizes by the chunk size; rescale so
            // the chunk-merged gradient equals the whole-batch mean.
            const float scale = static_cast<float>(cn) / static_cast<float>(bn);
            for (std::size_t i = 0; i < grad.size(); ++i) grad[i] *= scale;
            m.backward(grad);
            return util::Status::ok();
          },
          {.threads = cfg.threads, .label = "train"});
      if (!st.is_ok()) throw std::runtime_error(st.to_string());

      // Merge in fixed chunk order: a deterministic floating-point
      // reduction independent of which worker ran which chunk.
      model.zero_grad();
      auto master_params = model.params();
      for (std::size_t cidx = 0; cidx < kGradChunks; ++cidx) {
        auto rp = replicas[cidx].params();
        for (std::size_t p = 0; p < master_params.size(); ++p) {
          auto& dst = *master_params[p].grad;
          const auto& src = *rp[p].grad;
          for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
        }
      }
      double batch_loss = 0.0;
      for (double l : chunk_loss) batch_loss += l;
      for (std::size_t c : chunk_correct) correct += c;
      loss_sum += batch_loss / static_cast<double>(bn);
      ++batches;
      opt.step(model.params());
    }
    const double mean_loss = loss_sum / static_cast<double>(batches);
    stats.epoch_losses.push_back(mean_loss);
    TrainMetrics::get().on_epoch(
        mean_loss,
        static_cast<double>(correct) / static_cast<double>(order.size()),
        epoch_span.elapsed_ms());
    if (cfg.on_epoch) cfg.on_epoch(epoch, mean_loss);
    if (cfg.early_stop_loss > 0.0 && mean_loss < cfg.early_stop_loss) break;
  }
  stats.final_loss = stats.epoch_losses.empty() ? 0.0 : stats.epoch_losses.back();
  return stats;
}

}  // namespace

TrainStats train(Model& model, const LabeledData& data, const TrainConfig& cfg) {
  if (data.rows.empty()) throw std::invalid_argument("train: empty dataset");
  if (data.rows.size() != data.labels.size()) {
    throw std::invalid_argument("train: label count mismatch");
  }
  if (cfg.batch_size == 0) {
    throw std::invalid_argument("train: batch_size must be positive");
  }
  // Name the dense-math path this run trains on, so throughput numbers in
  // logs are attributable to the kernel layer (compiled tile vs scalar).
  util::log_info("train: kernels [", kernels::active_config_summary(), "]");
  if (cfg.threads != 1) return train_chunked(model, data, cfg);
  util::Rng rng(cfg.seed);
  Adam opt(cfg.learning_rate);
  TrainStats stats;

  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    obs::TraceSpan epoch_span("train.epoch");
    rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    std::size_t correct = 0;
    for (std::size_t begin = 0; begin < order.size(); begin += cfg.batch_size) {
      const std::size_t end = std::min(begin + cfg.batch_size, order.size());
      const Tensor x = data.batch_tensor(order, begin, end);
      std::vector<std::uint8_t> y(end - begin);
      for (std::size_t i = 0; i < y.size(); ++i) y[i] = data.labels[order[begin + i]];

      model.zero_grad();
      const Tensor logits = model.forward(x, /*training=*/true);
      loss_sum += cross_entropy(logits, y);
      correct += count_correct(logits, y);
      ++batches;
      const Tensor grad = cross_entropy_grad(logits, y);
      model.backward(grad);
      opt.step(model.params());
    }
    const double mean_loss = loss_sum / static_cast<double>(batches);
    stats.epoch_losses.push_back(mean_loss);
    TrainMetrics::get().on_epoch(
        mean_loss,
        static_cast<double>(correct) / static_cast<double>(order.size()),
        epoch_span.elapsed_ms());
    if (cfg.on_epoch) cfg.on_epoch(epoch, mean_loss);
    if (cfg.early_stop_loss > 0.0 && mean_loss < cfg.early_stop_loss) break;
  }
  stats.final_loss = stats.epoch_losses.empty() ? 0.0 : stats.epoch_losses.back();
  return stats;
}

std::vector<std::uint8_t> predict_all(const Model& model,
                                      const LabeledData& data,
                                      std::size_t batch_size) {
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::uint8_t> out;
  out.reserve(data.size());
  for (std::size_t begin = 0; begin < order.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, order.size());
    const Tensor logits = model.infer(data.batch_tensor(order, begin, end));
    for (auto label : argmax_rows(logits)) out.push_back(label);
  }
  return out;
}

MultiConfusion evaluate(const Model& model, const LabeledData& data) {
  return confusion_k(2, predict_all(model, data), data.labels);
}

}  // namespace gea::ml
