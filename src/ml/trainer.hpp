// Minibatch training loop.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "ml/optimizer.hpp"
#include "util/rng.hpp"

namespace gea::ml {

/// A labeled dataset of flat feature vectors (rows of equal length).
struct LabeledData {
  std::vector<std::vector<double>> rows;
  std::vector<std::uint8_t> labels;

  std::size_t size() const { return rows.size(); }
  /// Pack rows [begin, end) into a (n, 1, D) tensor.
  Tensor batch_tensor(const std::vector<std::size_t>& indices,
                      std::size_t begin, std::size_t end) const;
};

struct TrainConfig {
  std::size_t epochs = 200;      // paper: 200 epochs
  std::size_t batch_size = 100;  // paper: batch size 100
  double learning_rate = 1e-3;
  std::uint64_t seed = 42;
  /// Stop once the epoch's mean training loss drops below this (0 = off).
  double early_stop_loss = 0.0;
  /// Invoked after each epoch with (epoch, mean training loss).
  std::function<void(std::size_t, double)> on_epoch;
  /// Gradient-computation threads. 1 (default) = the exact legacy
  /// whole-batch path. 0 (auto) or N > 1 = the chunked data-parallel path:
  /// each batch splits into a fixed number of chunks, one model replica per
  /// chunk, gradients merged in chunk order. The chunk structure depends
  /// only on the batch size, so chunked results are bitwise identical at
  /// any worker count — but not bitwise equal to the legacy path (different
  /// floating-point summation order and per-chunk dropout streams).
  std::size_t threads = 1;
};

struct TrainStats {
  std::vector<double> epoch_losses;
  double final_loss = 0.0;
};

/// Train `model` in place with Adam + softmax cross-entropy. Throws
/// std::invalid_argument on an empty dataset, a label count that differs
/// from the row count, or batch_size 0.
TrainStats train(Model& model, const LabeledData& data, const TrainConfig& cfg);

/// Predicted labels for every row, through Model::infer in batches.
std::vector<std::uint8_t> predict_all(const Model& model,
                                      const LabeledData& data,
                                      std::size_t batch_size = 256);

/// Convenience: train-set/test-set evaluation of a binary model, as a K=2
/// matrix. Throws std::invalid_argument on a label outside {0, 1}.
MultiConfusion evaluate(const Model& model, const LabeledData& data);

}  // namespace gea::ml
