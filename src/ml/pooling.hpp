// Max pooling over the length axis of (N, C, L) tensors.
#pragma once

#include "ml/layer.hpp"

namespace gea::ml {

/// MaxPool1D with equal window and stride (the paper uses 2/2). Trailing
/// positions that do not fill a full window are dropped (floor semantics).
/// Each output is its window's first maximum under `>`, so a tie goes to
/// the earlier element and a window that starts with NaN yields NaN;
/// backward routes each gradient to that same element of the remembered
/// input.
class MaxPool1D : public Layer {
 public:
  explicit MaxPool1D(std::size_t window);

  Tensor infer(const Tensor& x) const override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string describe() const override;
  LayerPtr clone() const override { return std::make_unique<MaxPool1D>(window_); }

 private:
  /// Output length for input `x`; throws unless x is (N, C, L >= window).
  std::size_t pooled_length(const Tensor& x) const;
  /// Offset within `row` of window j's first maximum under `>`.
  std::size_t window_argmax(const float* row, std::size_t j) const;

  std::size_t window_;
  Tensor last_input_;
};

}  // namespace gea::ml
