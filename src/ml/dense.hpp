// Fully connected layer: y = W x + b over (N, in) batches.
//
// Lowered onto kernels::gemm: forward/infer map to one batch-wide GEMM
// (x * W^T + b), backward to two accumulating GEMMs (one for
// backward_input, which skips the weight gradient). The per-element
// k-ordered chain keeps per-sample and batched results bitwise identical
// and matches the seed loop order exactly (kernels/reference.hpp).
#pragma once

#include "ml/layer.hpp"

namespace gea::ml {

class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor backward_input(const Tensor& grad_out) override;
  /// Inference fast path: forward() without the input cache copy.
  Tensor infer(const Tensor& x) override;
  std::vector<Param> params() override;
  std::string describe() const override;
  void init(util::Rng& rng) override;
  LayerPtr clone() const override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  /// Input gradient, plus the parameter gradients into gw/gb when non-null.
  Tensor propagate(const Tensor& grad_out, float* gw, float* gb);

  std::size_t in_;
  std::size_t out_;
  std::vector<float> w_;   // (out, in) row-major
  std::vector<float> b_;   // (out)
  std::vector<float> gw_;
  std::vector<float> gb_;
  Tensor last_input_;
};

}  // namespace gea::ml
