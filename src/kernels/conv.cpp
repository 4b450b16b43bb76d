#include "kernels/conv.hpp"

#include <algorithm>
#include <cstring>

#include "kernels/gemm.hpp"
#include "kernels/scratch.hpp"

namespace gea::kernels {

namespace {

/// First input offset read by output position j: j + base + t for tap t.
inline std::ptrdiff_t pad_base(const Conv1DShape& s) {
  return s.same ? -static_cast<std::ptrdiff_t>(s.k / 2) : 0;
}

/// Write one im2col row: col_row[j] = x_row[j + base + t] for in-bounds
/// positions, 0 at the padded edges. The in-bounds j range is computed
/// once, so the interior is a straight memcpy — no per-element checks.
inline void im2col_row(const float* x_row, std::size_t l_in,
                       std::size_t l_out, std::ptrdiff_t shift,
                       float* col_row) {
  // In bounds when 0 <= j + shift < l_in.
  const std::size_t j_lo = shift < 0 ? static_cast<std::size_t>(-shift) : 0;
  const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(l_in) - shift;
  const std::size_t j_hi =
      hi <= 0 ? 0
              : std::min(l_out, static_cast<std::size_t>(hi));
  std::size_t j = 0;
  for (; j < std::min(j_lo, l_out); ++j) col_row[j] = 0.0f;
  if (j_hi > j) {
    std::memcpy(col_row + j, x_row + static_cast<std::ptrdiff_t>(j) + shift,
                (j_hi - j) * sizeof(float));
    j = j_hi;
  }
  for (; j < l_out; ++j) col_row[j] = 0.0f;
}

/// Materialize the column matrix for the whole batch: row (ic*k + t),
/// column (i*l_out + j) holds x[i][ic][j + base + t] (0 when padded).
/// k == 3 — every conv in the paper's CNN — takes an unrolled builder.
void im2col(const Conv1DShape& s, const float* x, float* col) {
  const std::size_t l_out = s.l_out();
  const std::size_t ncols = s.n * l_out;
  const std::ptrdiff_t base = pad_base(s);
  for (std::size_t i = 0; i < s.n; ++i) {
    for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
      const float* x_row = x + (i * s.in_ch + ic) * s.l_in;
      float* col_base = col + (ic * s.k) * ncols + i * l_out;
      if (s.k == 3) {
        im2col_row(x_row, s.l_in, l_out, base + 0, col_base);
        im2col_row(x_row, s.l_in, l_out, base + 1, col_base + ncols);
        im2col_row(x_row, s.l_in, l_out, base + 2, col_base + 2 * ncols);
      } else {
        for (std::size_t t = 0; t < s.k; ++t) {
          im2col_row(x_row, s.l_in, l_out, base + static_cast<std::ptrdiff_t>(t),
                     col_base + t * ncols);
        }
      }
    }
  }
}

/// Whether a dense product at batch n runs transposed, so that W is the
/// in-place A operand and only the activation operand gets packed. Below
/// kMr rows the direct path already reads W in place. Above, the plain
/// mapping packs all of W (in * out floats) per call, and the transposed
/// one packs the activations and stages the product instead, n * (in +
/// out) floats for the forward and the input gradient alike; it runs where
/// W is the larger. Both mappings run the same k-ordered chains.
bool dense_transposed(std::size_t n, std::size_t in, std::size_t out) {
  return n >= kMr && in * out > n * (in + out);
}

/// dst (cols x rows) = src^T, for src (rows x cols) row-major.
void transpose(const float* src, std::size_t rows, std::size_t cols,
               float* dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = src + r * cols;
    for (std::size_t c = 0; c < cols; ++c) dst[c * rows + r] = row[c];
  }
}

}  // namespace

void conv1d_forward(const Conv1DShape& s, const float* x, const float* w,
                    const float* b, float* y) {
  const std::size_t l_out = s.l_out();
  const std::size_t kdim = s.in_ch * s.k;
  const std::size_t ncols = s.n * l_out;
  if (ncols == 0 || s.out_ch == 0) return;
  KernelScratch& scratch = KernelScratch::tls();
  float* col = scratch.col(kdim * ncols);
  im2col(s, x, col);

  GemmSpec spec;
  spec.m = s.out_ch;
  spec.n = ncols;
  spec.k = kdim;
  spec.a = w;
  spec.lda = kdim;
  spec.b = col;
  spec.ldb = ncols;
  spec.ldc = ncols;
  spec.bias_row = b;
  if (s.n == 1) {
    // Single sample: y is exactly the (out_ch x l_out) product, written in
    // place — the attack-crafting per-candidate path pays no copy.
    spec.c = y;
    gemm(spec);
    return;
  }
  float* cbuf = scratch.cbuf(s.out_ch * ncols);
  spec.c = cbuf;
  gemm(spec);
  // De-interleave (out_ch, n*l_out) into (n, out_ch, l_out).
  for (std::size_t i = 0; i < s.n; ++i) {
    for (std::size_t oc = 0; oc < s.out_ch; ++oc) {
      std::memcpy(y + (i * s.out_ch + oc) * l_out,
                  cbuf + oc * ncols + i * l_out, l_out * sizeof(float));
    }
  }
}

void conv1d_backward(const Conv1DShape& s, const float* x, const float* w,
                     const float* grad_out, float* grad_in, float* gw,
                     float* gb) {
  const std::size_t l_out = s.l_out();
  const std::size_t kdim = s.in_ch * s.k;
  const std::size_t ncols = s.n * l_out;
  if (ncols == 0 || s.out_ch == 0) return;
  const std::ptrdiff_t base = pad_base(s);

  // Bias gradient in the seed's order (sample-major, position-ascending).
  if (gb != nullptr) {
    for (std::size_t i = 0; i < s.n; ++i) {
      for (std::size_t oc = 0; oc < s.out_ch; ++oc) {
        const float* g_row = grad_out + (i * s.out_ch + oc) * l_out;
        float acc = gb[oc];
        for (std::size_t j = 0; j < l_out; ++j) acc += g_row[j];
        gb[oc] = acc;
      }
    }
  }

  KernelScratch& scratch = KernelScratch::tls();
  // G as (out_ch, n*l_out), the column order of the forward's output; at
  // batch 1 grad_out already has that layout.
  const float* g = grad_out;
  if (s.n > 1) {
    float* gbuf = scratch.cbuf(s.out_ch * ncols);
    for (std::size_t i = 0; i < s.n; ++i) {
      for (std::size_t oc = 0; oc < s.out_ch; ++oc) {
        std::memcpy(gbuf + oc * ncols + i * l_out,
                    grad_out + (i * s.out_ch + oc) * l_out,
                    l_out * sizeof(float));
      }
    }
    g = gbuf;
  }

  // gw += G * col^T: (out_ch x n*l_out) * (n*l_out x kdim). The shared
  // dimension runs sample-major, position-ascending: the seed loop's order.
  if (gw != nullptr) {
    float* col = scratch.col(kdim * ncols);
    im2col(s, x, col);
    GemmSpec wspec;
    wspec.m = s.out_ch;
    wspec.n = kdim;
    wspec.k = ncols;
    wspec.a = g;
    wspec.lda = ncols;
    wspec.b = col;  // (kdim, n*l_out) read as its transpose
    wspec.ldb = ncols;
    wspec.trans_b = true;
    wspec.c = gw;
    wspec.ldc = kdim;
    wspec.accumulate = true;
    gemm(wspec);
  }

  // dcol = W^T * G: (kdim x out_ch) * (out_ch x n*l_out), the whole batch.
  float* dcol = scratch.dcol(kdim * ncols);
  GemmSpec xspec;
  xspec.m = kdim;
  xspec.n = ncols;
  xspec.k = s.out_ch;
  xspec.a = w;
  xspec.lda = kdim;
  xspec.trans_a = true;
  xspec.b = g;
  xspec.ldb = ncols;
  xspec.c = dcol;
  xspec.ldc = ncols;
  gemm(xspec);

  // col2im per sample: scatter-add dcol rows back into the padded input
  // positions.
  for (std::size_t i = 0; i < s.n; ++i) {
    for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
      float* gx_row = grad_in + (i * s.in_ch + ic) * s.l_in;
      for (std::size_t t = 0; t < s.k; ++t) {
        const float* d_row = dcol + (ic * s.k + t) * ncols + i * l_out;
        const std::ptrdiff_t shift = base + static_cast<std::ptrdiff_t>(t);
        const std::size_t j_lo =
            shift < 0 ? static_cast<std::size_t>(-shift) : 0;
        const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(s.l_in) - shift;
        const std::size_t j_hi =
            hi <= 0 ? 0 : std::min(l_out, static_cast<std::size_t>(hi));
        for (std::size_t j = j_lo; j < j_hi; ++j) {
          gx_row[static_cast<std::ptrdiff_t>(j) + shift] += d_row[j];
        }
      }
    }
  }
}

void dense_forward(std::size_t n, std::size_t in, std::size_t out,
                   const float* x, const float* w, const float* b, float* y) {
  // x (n, in) and W (out, in) are both row-major with `in` columns; the
  // B operand, whichever it is, is read as its transpose.
  GemmSpec spec;
  spec.k = in;
  spec.lda = in;
  spec.ldb = in;
  spec.trans_b = true;
  if (!dense_transposed(n, in, out)) {
    // y = X * W^T.
    spec.m = n;
    spec.n = out;
    spec.a = x;
    spec.b = w;
    spec.c = y;
    spec.ldc = out;
    spec.bias_col = b;
    gemm(spec);
    return;
  }
  // y^T = W * X^T: W is the in-place A.
  float* yt = KernelScratch::tls().cbuf(out * n);
  spec.m = out;
  spec.n = n;
  spec.a = w;
  spec.b = x;
  spec.c = yt;
  spec.ldc = n;
  spec.bias_row = b;
  gemm(spec);
  transpose(yt, out, n, y);
}

void dense_backward(std::size_t n, std::size_t in, std::size_t out,
                    const float* x, const float* w, const float* grad_out,
                    float* grad_in, float* gw, float* gb) {
  // Bias gradient in the seed's sample-major order.
  if (gb != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const float* g_i = grad_out + i * out;
      for (std::size_t o = 0; o < out; ++o) gb[o] += g_i[o];
    }
  }

  // gw += G^T * X: (out x n) * (n x in); k' = n is the sample-major
  // accumulation the seed loop performs.
  if (gw != nullptr) {
    GemmSpec wspec;
    wspec.m = out;
    wspec.n = in;
    wspec.k = n;
    wspec.a = grad_out;  // (n, out) read as its (out, n) transpose
    wspec.lda = out;
    wspec.trans_a = true;
    wspec.b = x;
    wspec.ldb = in;
    wspec.c = gw;
    wspec.ldc = in;
    wspec.accumulate = true;
    gemm(wspec);
  }

  GemmSpec xspec;
  xspec.k = out;
  if (!dense_transposed(n, in, out)) {
    // grad_in = G * W: (n x out) * (out x in).
    xspec.m = n;
    xspec.n = in;
    xspec.a = grad_out;
    xspec.lda = out;
    xspec.b = w;
    xspec.ldb = in;
    xspec.c = grad_in;
    xspec.ldc = in;
    gemm(xspec);
    return;
  }
  // grad_in^T = W^T * G^T: W (out, in) is the in-place A read as its
  // transpose, G (n, out) likewise the packed B.
  float* gt = KernelScratch::tls().cbuf(in * n);
  xspec.m = in;
  xspec.n = n;
  xspec.a = w;
  xspec.lda = in;
  xspec.trans_a = true;
  xspec.b = grad_out;
  xspec.ldb = out;
  xspec.trans_b = true;
  xspec.c = gt;
  xspec.ldc = n;
  gemm(xspec);
  transpose(gt, in, n, grad_in);
}

}  // namespace gea::kernels
