// Layer-facing entry points: Conv1D and Dense lowered onto kernels::gemm.
//
// Conv1D forward is im2col + GEMM: the (in_ch * k) x (n * l_out) column
// matrix is materialized once per call into thread-local scratch (with a
// k=3-specialized builder for the paper's kernels, edge columns split out
// so the interior copies run without per-element bounds checks), then one
// GEMM per call produces every sample's output. Backward interleaves the
// output gradient G once into (out_ch, n * l_out), the forward's column
// order, and runs two GEMMs per batch: the weight gradient G * col^T
// accumulated over k = n * l_out (sample-major, position-ascending, the
// seed loop's order), and the input gradient W^T * G, which col2im
// scatters back per sample. Dense forward/backward map to one GEMM each:
// y = x * W^T + b, gw += G^T * x and dx = G * W. At batch n >= kMr, where
// W (in * out floats) outweighs the n * (in + out) floats of the
// activation operand and the product, the forward and the input gradient
// run transposed instead (y^T = W * x^T + b, dx^T = W^T * G^T): W is then
// the GEMM's in-place A operand, only the activations are packed, and the
// product is staged in KernelScratch and transposed into place.
//
// Numeric contract (see tests/support/kernels/reference.hpp for the
// preserved seed loops): every output element is one k-ordered
// accumulation chain, so results are independent of batch size, mapping
// and register tile —
// per-sample forward, batched infer, and every compiled tile all agree
// bitwise with each other, as do one batch-N backward and N
// single-sample backward calls that accumulate gw and gb in sample
// order — and ULP-bounded against the seed loops, whose only differences
// are per-input-channel regrouping and skipped zero terms.
#pragma once

#include <cstddef>

namespace gea::kernels {

/// Shape descriptor shared by the Conv1D ops. `same` selects zero padding
/// (l_out == l_in); otherwise valid padding (l_out == l_in - k + 1).
struct Conv1DShape {
  std::size_t n = 0;       // batch
  std::size_t in_ch = 0;
  std::size_t l_in = 0;
  std::size_t out_ch = 0;
  std::size_t k = 0;       // kernel taps (odd)
  bool same = true;
  std::size_t l_out() const { return same ? l_in : l_in - k + 1; }
};

/// y (n, out_ch, l_out) = conv(x (n, in_ch, l_in), w (out_ch, in_ch, k)) + b.
void conv1d_forward(const Conv1DShape& shape, const float* x, const float* w,
                    const float* b, float* y);

/// Accumulates gw (out_ch, in_ch, k) and gb (out_ch); writes grad_in
/// (n, in_ch, l_in), which must be zero-initialized by the caller. A null
/// gw or gb skips that gradient's work (x is read only for gw); grad_in
/// does not depend on either.
void conv1d_backward(const Conv1DShape& shape, const float* x, const float* w,
                     const float* grad_out, float* grad_in, float* gw,
                     float* gb);

/// y (n, out) = x (n, in) * w^T (w is (out, in) row-major) + b.
void dense_forward(std::size_t n, std::size_t in, std::size_t out,
                   const float* x, const float* w, const float* b, float* y);

/// Accumulates gw (out, in) and gb (out); writes grad_in (n, in). A null
/// gw or gb skips that gradient's work (x is read only for gw).
void dense_backward(std::size_t n, std::size_t in, std::size_t out,
                    const float* x, const float* w, const float* grad_out,
                    float* grad_in, float* gw, float* gb);

}  // namespace gea::kernels
