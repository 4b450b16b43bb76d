// 1D convolution over (N, C, L) batches with unit stride.
//
// Matches the paper's two padding modes: `kSame` (zero-pad so L_out == L_in,
// used by Conv 1 and Conv 3) and `kValid` (no padding, L_out = L_in - k + 1,
// used by Conv 2 and Conv 4).
//
// All math is lowered onto kernels::gemm via im2col (kernels/conv.hpp):
// infer and both backward GEMMs share one tiled, vectorized path whose
// per-element accumulation is k-ordered — so per-sample and batched infer
// stay bitwise identical by construction, and the whole layer is
// ULP-bounded against the preserved seed loops
// (tests/support/kernels/reference.hpp).
#pragma once

#include "kernels/conv.hpp"
#include "ml/layer.hpp"

namespace gea::ml {

enum class Padding { kSame, kValid };

class Conv1D : public Layer {
 public:
  Conv1D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_size, Padding padding);

  Tensor infer(const Tensor& x) const override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor backward_input(const Tensor& grad_out) override;
  std::vector<Param> params() override;
  std::string describe() const override;
  void init(util::Rng& rng) override;
  LayerPtr clone() const override;

  std::size_t output_length(std::size_t input_length) const;

 private:
  kernels::Conv1DShape shape_for(const Tensor& x) const;
  /// Input gradient, plus the parameter gradients into gw/gb when non-null.
  Tensor propagate(const Tensor& grad_out, float* gw, float* gb);

  std::size_t in_ch_;
  std::size_t out_ch_;
  std::size_t k_;
  Padding padding_;
  std::vector<float> w_;   // (out_ch, in_ch, k)
  std::vector<float> b_;   // (out_ch)
  std::vector<float> gw_;
  std::vector<float> gb_;
  Tensor last_input_;
};

}  // namespace gea::ml
