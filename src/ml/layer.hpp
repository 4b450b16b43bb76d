// Layer abstraction.
//
// infer() is each layer's one forward computation. It is const: it reads
// the parameters and writes nothing, so any number of threads may run it on
// one shared layer. forward() is infer() plus remembering what backward()
// needs — the input (Flatten: its shape; Dropout in training: its mask) —
// so backward() and backward_input() compute the gradient of the last
// forward() call, whatever infer() calls came between. ReLU and MaxPool1D
// derive their gradient routing from that remembered input. backward()
// accumulates parameter gradients (callers zero them via Model::zero_grad)
// and returns the gradient with respect to the layer input.
// backward_input() returns the same input gradient, bit for bit, and
// touches no parameter gradient — the chain every white-box attack rides to
// get input gradients.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace gea::ml {

/// A learnable parameter: value and gradient, same length.
struct Param {
  std::vector<float>* value = nullptr;
  std::vector<float>* grad = nullptr;
  std::string name;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// The layer output for a (possibly multi-sample) batch at inference:
  /// dropout is the identity. Rows never mix, so a batch's row i is bitwise
  /// equal to row i inferred alone — the serving layer batches requests
  /// through this path and tests assert the equivalence.
  virtual Tensor infer(const Tensor& x) const = 0;

  /// infer(x), remembering the input for backward(). `training` toggles
  /// dropout, the one layer whose training output differs from infer().
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Propagate `grad_out` (dL/d output) to dL/d input, accumulating
  /// parameter gradients along the way.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// backward() without the parameter gradients: the same dL/d input, bit
  /// for bit, with no weight- or bias-gradient work and every Param::grad
  /// left as it was. Layers without parameters inherit backward().
  virtual Tensor backward_input(const Tensor& grad_out) {
    return backward(grad_out);
  }

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// One-line description, e.g. "Conv1D(1->46, k=3, same)".
  virtual std::string describe() const = 0;

  /// Initialize weights (no-op for stateless layers).
  virtual void init(util::Rng&) {}

  /// Deep copy: weights included, nothing remembered from a forward.
  /// Parallel training and per-lane attack classifiers own one copy each.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Rebind any internal Rng (dropout). Parallel training points each model
  /// replica at a chunk-specific Rng seeded by counter-split, so mask draws
  /// are deterministic per chunk instead of sequenced through a shared
  /// stream. No-op for layers without randomness.
  virtual void bind_rng(util::Rng* /*rng*/) {}
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace gea::ml
