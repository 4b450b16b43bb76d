// Blocked, register-tiled, vectorizable single-precision GEMM.
//
// One entry point owns the dense-math hot path: Conv1D (via im2col
// lowering, see kernels/conv.hpp) and Dense forward/backward/batched-infer
// all reduce to gemm() calls. The implementation is a classic three-level
// blocking scheme (BLIS-style): B is packed into nr-wide column panels and
// A into mr-tall row panels per (kc x nc) / (mc x kc) cache block, and an
// mr x nr register-tile microkernel walks the shared dimension. Products
// with fewer rows than the register tile (m < mr: dense layers at batch
// 1-3) skip the packing and take an unpacked direct path; the choice
// depends on the shape and the active mr alone.
//
// Floating-point contract — the property every caller leans on:
//
//   Each output element C[i][j] is produced by ONE sequential accumulation
//   chain in k order: init (bias / existing C / zero), then
//   += A[i][p] * B[p][j] for p = 0 .. k-1, in order.
//
// Tiling never splits or reorders a chain: the k-block loop is outermost
// per column block and partial register tiles run the exact same unrolled
// code as full ones (zero-padded panels, masked stores). Consequently the
// result is independent of the tile parameters, the batch position an
// element lands in, and whether the tiled, direct or scalar-fallback path
// ran — which is what keeps batched inference bitwise-identical to
// per-sample forward, and the whole layer ULP-bounded against the seed
// loops.
#pragma once

#include <cstddef>

#include "kernels/config.hpp"
#include "kernels/scratch.hpp"

namespace gea::kernels {

/// C (m x n, leading dim ldc) = init + A * B, where A is logically m x k
/// and B is k x n. `trans_*` flips the storage interpretation: with
/// trans_a, A[i][p] is read from a[p * lda + i] (i.e. `a` holds the k x m
/// transpose), likewise for B. Exactly one of bias_row / bias_col may be
/// set; `accumulate` initializes chains from the existing C instead.
struct GemmSpec {
  std::size_t m = 0, n = 0, k = 0;
  const float* a = nullptr;
  std::size_t lda = 0;
  bool trans_a = false;
  const float* b = nullptr;
  std::size_t ldb = 0;
  bool trans_b = false;
  float* c = nullptr;
  std::size_t ldc = 0;
  const float* bias_row = nullptr;  // length m: C[i][*] starts at bias_row[i]
  const float* bias_col = nullptr;  // length n: C[*][j] starts at bias_col[j]
  bool accumulate = false;          // C += A*B (bias_* must be null)
};

/// Run the GEMM with an explicit config and scratch arena. Unsupported
/// configs silently take the scalar path (correct, untiled).
void gemm(const GemmSpec& spec, const KernelConfig& cfg,
          KernelScratch& scratch);

/// Run with the process-wide active config and the calling thread's
/// scratch; records kernels.gemm_ms / kernels.{tuned,fallback} metrics.
void gemm(const GemmSpec& spec);

}  // namespace gea::kernels
