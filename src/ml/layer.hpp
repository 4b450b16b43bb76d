// Layer abstraction.
//
// Layers are stateful: forward() caches whatever backward() and
// backward_input() need, so either call must follow the forward call whose
// gradient it computes. backward() accumulates parameter gradients
// (callers zero them via Model::zero_grad) and returns the gradient with
// respect to the layer input. backward_input() returns the same input
// gradient, bit for bit, and touches no parameter gradient — the chain
// every white-box attack rides to get input gradients.
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

  /// Compute the layer output. `training` toggles dropout et al.
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

  /// Inference-only forward over a (possibly multi-sample) batch: skips
  /// every backward cache (input copies, ReLU masks, pool argmaxes) and may
  /// use tighter loops, but MUST produce bitwise-identical output to
  /// forward(x, false) on every input, NaN, infinities and -0 included —
  /// the serving layer batches requests through this path and the
  /// per-sample/batched equivalence is asserted in tests.
  /// backward() after infer() is undefined; call forward() when training.
  virtual Tensor infer(const Tensor& x) { return forward(x, /*training=*/false); }

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// One-line description, e.g. "Conv1D(1->46, k=3, same)".
  virtual std::string describe() const = 0;

  /// Initialize weights (no-op for stateless layers).
  virtual void init(util::Rng&) {}

  /// Deep copy (weights included, forward/backward caches reset) for
  /// per-worker model replicas in the parallel layer. nullptr means the
  /// layer is not cloneable, which makes Model::clonable() false and sends
  /// parallel callers down their serial fallback.
  virtual std::unique_ptr<Layer> clone() const { return nullptr; }

  /// Rebind any internal Rng (dropout). Parallel training points each model
  /// replica at a chunk-specific Rng seeded by counter-split, so mask draws
  /// are deterministic per chunk instead of sequenced through a shared
  /// stream. No-op for layers without randomness.
  virtual void bind_rng(util::Rng* /*rng*/) {}
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace gea::ml
