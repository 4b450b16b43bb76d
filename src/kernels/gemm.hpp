// Blocked, register-tiled, vectorizable single-precision GEMM.
//
// One entry point owns the dense-math hot path: Conv1D (via im2col
// lowering, see kernels/conv.hpp) and Dense forward/backward/batched-infer
// all reduce to gemm() calls. The implementation is a three-level blocking
// scheme (BLIS-style) with one set of blocks (kernels/config.hpp): B is
// packed into kNr-wide column panels per (kKc x kNc) block, kMc-row blocks
// of C reuse each packed panel, and a register-tile microkernel walks the
// shared dimension with its accumulators in vector registers (GCC/Clang
// vector extensions). The one tile template is compiled twice: kMr x kNr
// with four-lane vectors (SSE2/NEON, every CPU) and, on x86-64, kMrWide x
// kNr with eight-lane vectors under a function-level AVX2 target; a CPU
// check picks the tile once. The library builds with -ffp-contract=off
// and never targets FMA, so every multiply and add rounds on its own.
// A is never packed: the microkernel reads it in place through per-row
// pointers and a k-stride, which covers plain A (conv weights,
// activations) and the transposed view (W^T in the conv and dense input
// gradients, G^T in the dense weight gradient) alike, so a weight matrix
// costs no copy per call and no cache that weight updates would have to
// invalidate. Products with fewer rows than the four-lane tile (m < kMr:
// dense layers at batch 1-3) take an unpacked direct path that keeps a
// block of C in registers across k, or runs 16 dot products side by side
// through in-register 4 x 4 transposes of the transposed B; the choice
// depends on the shape alone.
//
// Floating-point contract — the property every caller leans on:
//
//   Each output element C[i][j] is produced by ONE sequential accumulation
//   chain in k order: init (bias / existing C / zero), then
//   += A[i][p] * B[p][j] for p = 0 .. k-1, in order.
//
// Tiling never splits or reorders a chain: the k-block loop is outermost
// per column block and partial register tiles run the exact same unrolled
// code as full ones (zero-padded B panels, dead A rows re-reading the last
// live row, masked stores). Consequently the result is independent of
// the tiling, the batch position an element lands in, the tile the CPU
// check picked, and whether the tiled, direct or scalar path ran — which
// is what keeps batched inference bitwise-identical to per-sample
// forward, and the whole layer ULP-bounded against the seed loops.
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

/// Run the GEMM on the path `cfg` names (the tiled path on the active
/// tile, see kernels::detail), with an explicit scratch arena.
void gemm(const GemmSpec& spec, const KernelConfig& cfg,
          KernelScratch& scratch);

/// Run with the process-wide active config and the calling thread's
/// scratch; records the kernels.gemm_calls / kernels.gemm_ms metrics.
void gemm(const GemmSpec& spec);

}  // namespace gea::kernels
