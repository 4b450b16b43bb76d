#include "kernels/gemm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "obs/metrics.hpp"

namespace gea::kernels {

namespace {

inline float load_a(const GemmSpec& s, std::size_t i, std::size_t p) {
  return s.trans_a ? s.a[p * s.lda + i] : s.a[i * s.lda + p];
}

inline float load_b(const GemmSpec& s, std::size_t p, std::size_t j) {
  return s.trans_b ? s.b[j * s.ldb + p] : s.b[p * s.ldb + j];
}

/// Start every chain: bias broadcast or zero. Accumulate mode keeps the
/// existing C values as the chain head instead.
void init_c(const GemmSpec& s) {
  if (s.accumulate) return;
  for (std::size_t i = 0; i < s.m; ++i) {
    float* crow = s.c + i * s.ldc;
    if (s.bias_row) {
      const float v = s.bias_row[i];
      for (std::size_t j = 0; j < s.n; ++j) crow[j] = v;
    } else if (s.bias_col) {
      for (std::size_t j = 0; j < s.n; ++j) crow[j] = s.bias_col[j];
    } else {
      for (std::size_t j = 0; j < s.n; ++j) crow[j] = 0.0f;
    }
  }
}

/// The scalar chain (the tests' oracle): the same k-ordered chains, no
/// packing, no tiling.
void scalar_gemm(const GemmSpec& s) {
  init_c(s);
  for (std::size_t i = 0; i < s.m; ++i) {
    float* crow = s.c + i * s.ldc;
    for (std::size_t j = 0; j < s.n; ++j) {
      float acc = crow[j];
      for (std::size_t p = 0; p < s.k; ++p) {
        acc += load_a(s, i, p) * load_b(s, p, j);
      }
      crow[j] = acc;
    }
  }
}

// Four float lanes: the vector width of the baseline x86-64 (SSE2) and
// AArch64 (NEON) ISAs, so the build needs no ISA flag. Lane-wise vector
// multiply and add round exactly like their scalar forms.
using v4f = float __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;

inline v4f load4(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

inline v4f splat(float x) { return v4f{x, x, x, x}; }

/// Transpose the 4 x 4 block whose rows are r0..r3, in place: afterwards
/// lane t of r_q holds what lane q of r_t held.
inline void transpose4(v4f& r0, v4f& r1, v4f& r2, v4f& r3) {
  const v4f t0 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
  const v4f t1 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
  const v4f t2 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
  const v4f t3 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
  r0 = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
  r1 = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
  r2 = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
  r3 = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
}

/// crow[0 .. 4*NV) += sum over p of ai[p * a_step] * B[p][0 .. 4*NV): the
/// block of C stays in registers across all of k, one chain per lane.
template <int NV>
void axpy_block(std::size_t k, const float* ai, std::size_t a_step,
                const float* b, std::size_t ldb, float* crow) {
  v4f acc[NV];
#pragma GCC unroll 8
  for (int q = 0; q < NV; ++q) acc[q] = load4(crow + q * kLanes);
  for (std::size_t p = 0; p < k; ++p) {
    const v4f av = splat(ai[p * a_step]);
    const float* brow = b + p * ldb;
#pragma GCC unroll 8
    for (int q = 0; q < NV; ++q) acc[q] += av * load4(brow + q * kLanes);
  }
#pragma GCC unroll 8
  for (int q = 0; q < NV; ++q) store4(crow + q * kLanes, acc[q]);
}

/// crow[0 .. 4*G) += sum over p of ai[p * a_step] * bj[j * ldb + p]: 4*G
/// dot-product chains side by side. Each 4-deep k step loads a 4 x 4 block
/// of rows of the transposed B, multiplies each row by the same 4 terms
/// of A, and transposes the products in registers, so lane t of the q-th
/// vector is column t's term p + q; the k % 4 tail terms are gathered lane
/// by lane. A product is the same float whichever operand is on the left,
/// and every chain still adds its terms in k order.
template <int G>
void dot_block(std::size_t k, const float* ai, std::size_t a_step,
               const float* bj, std::size_t ldb, float* crow) {
  v4f acc[G];
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) acc[g] = load4(crow + g * kLanes);
  std::size_t p = 0;
  for (; p + kLanes <= k; p += kLanes) {
    const float* ap = ai + p * a_step;
    const v4f av = {ap[0], ap[a_step], ap[2 * a_step], ap[3 * a_step]};
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      const float* rows = bj + g * kLanes * ldb + p;
      v4f r0 = av * load4(rows), r1 = av * load4(rows + ldb);
      v4f r2 = av * load4(rows + 2 * ldb), r3 = av * load4(rows + 3 * ldb);
      transpose4(r0, r1, r2, r3);
      acc[g] += r0;
      acc[g] += r1;
      acc[g] += r2;
      acc[g] += r3;
    }
  }
  for (; p < k; ++p) {
    const v4f av = splat(ai[p * a_step]);
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      const float* col = bj + g * kLanes * ldb + p;
      acc[g] += av * v4f{col[0], col[ldb], col[2 * ldb], col[3 * ldb]};
    }
  }
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) store4(crow + g * kLanes, acc[g]);
}

/// Unpacked path for products with fewer rows than the register tile
/// (m < kMr: dense layers at batch 1-3). Packing all of B to fill one live
/// row of a kMr-tall tile costs more than the product itself, so each row
/// of C reads A and B in place. The chains are the same as on every other
/// path: C[i][j] starts from init_c and takes its k terms in ascending
/// order. Only independent chains run side by side: a block of 32 columns
/// of C held in registers across k (B not transposed), or 16 dot products
/// over rows of the transposed B. Columns past the last full block take
/// 4-wide blocks, then scalar chains (interleaved, with B transposed).
void direct_gemm(const GemmSpec& s) {
  constexpr std::size_t kAxpyCols = 32, kDotCols = 16;
  init_c(s);
  const std::size_t n = s.n, k = s.k, ldb = s.ldb;
  const std::size_t a_step = s.trans_a ? s.lda : 1;
  for (std::size_t i = 0; i < s.m; ++i) {
    const float* ai = s.trans_a ? s.a + i : s.a + i * s.lda;
    float* crow = s.c + i * s.ldc;
    std::size_t j = 0;
    if (!s.trans_b) {
      for (; j + kAxpyCols <= n; j += kAxpyCols) {
        axpy_block<kAxpyCols / kLanes>(k, ai, a_step, s.b + j, ldb, crow + j);
      }
      for (; j + kLanes <= n; j += kLanes) {
        axpy_block<1>(k, ai, a_step, s.b + j, ldb, crow + j);
      }
      for (; j < n; ++j) {
        float acc = crow[j];
        for (std::size_t p = 0; p < k; ++p) {
          acc += ai[p * a_step] * s.b[p * ldb + j];
        }
        crow[j] = acc;
      }
      continue;
    }
    for (; j + kDotCols <= n; j += kDotCols) {
      dot_block<kDotCols / kLanes>(k, ai, a_step, s.b + j * ldb, ldb, crow + j);
    }
    for (; j + kLanes <= n; j += kLanes) {
      dot_block<1>(k, ai, a_step, s.b + j * ldb, ldb, crow + j);
    }
    if (j < n) {
      // The last n % 4 columns (dense2's K logits): up to three chains
      // interleaved so their add latencies overlap. A chain past n re-reads
      // column n - 1 and is not stored.
      const std::size_t j1 = std::min(j + 1, n - 1);
      const std::size_t j2 = std::min(j + 2, n - 1);
      const float* b0 = s.b + j * ldb;
      const float* b1 = s.b + j1 * ldb;
      const float* b2 = s.b + j2 * ldb;
      float c0 = crow[j], c1 = crow[j1], c2 = crow[j2];
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ai[p * a_step];
        c0 += av * b0[p];
        c1 += av * b1[p];
        c2 += av * b2[p];
      }
      crow[j] = c0;
      if (j + 1 < n) crow[j1] = c1;
      if (j + 2 < n) crow[j2] = c2;
    }
  }
}

/// Pack the (kb x nb) block of B at (p0, j0) into kNr-wide column panels,
/// k-major: panel q, offset kk*kNr + t holds B[p0 + kk][j0 + q*kNr + t].
void pack_b_block(const GemmSpec& s, std::size_t p0, std::size_t kb,
                  std::size_t j0, std::size_t nb, float* bp) {
  const std::size_t panels = (nb + kNr - 1) / kNr;
  for (std::size_t q = 0; q < panels; ++q) {
    float* panel = bp + q * kNr * kb;
    const std::size_t cols = std::min(kNr, nb - q * kNr);
    for (std::size_t kk = 0; kk < kb; ++kk) {
      float* dst = panel + kk * kNr;
      std::size_t t = 0;
      for (; t < cols; ++t) dst[t] = load_b(s, p0 + kk, j0 + q * kNr + t);
      for (; t < kNr; ++t) dst[t] = 0.0f;
    }
  }
}

/// MR x kNr register tile over a kb-deep packed B panel, with vectors of
/// type V (kNr / lanes per tile row). A is read in place: tile row r,
/// depth kk is a[r * a_row + kk * a_k], which covers plain A (a_row = lda,
/// a_k = 1) and the transposed view (a_row = 1, a_k = lda). The
/// accumulators stay in vector registers for all of kb. A full tile loads
/// and stores C in place. An edge tile (mv < MR or nv < kNr) runs on a
/// zeroed copy of its valid lanes and writes only those back; rows past mv
/// re-read row mv - 1, so no read leaves the operand, and B's zero-padded
/// columns feed the dead columns. Every chain runs the same op sequence
/// wherever its element fell in the tiling, which is what makes results
/// independent of batch position. Always inlined, so each compilation
/// below builds it for its own ISA; vectors cross no call boundary.
template <typename V, int MR>
[[gnu::always_inline]] inline void micro_tile(
    std::size_t kb, const float* a, std::size_t a_row, std::size_t a_k,
    const float* __restrict bp, float* c, std::size_t ldc, std::size_t mv,
    std::size_t nv) {
  constexpr int NR = static_cast<int>(kNr);
  constexpr int L = static_cast<int>(sizeof(V) / sizeof(float));
  constexpr int NV = NR / L;
  const float* arow[MR];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    arow[r] = a + std::min(static_cast<std::size_t>(r), mv - 1) * a_row;
  }
  const bool full = mv == MR && nv == kNr;
  float edge[MR * NR];
  float* tile = full ? c : edge;
  const std::size_t ldt = full ? ldc : NR;
  if (!full) {
    std::fill(edge, edge + MR * NR, 0.0f);
    for (std::size_t r = 0; r < mv; ++r) {
      std::copy(c + r * ldc, c + r * ldc + nv, edge + r * NR);
    }
  }
  V acc[MR][NV];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int q = 0; q < NV; ++q) {
      std::memcpy(&acc[r][q], tile + r * ldt + q * L, sizeof(V));
    }
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    V b[NV];
#pragma GCC unroll 4
    for (int q = 0; q < NV; ++q) {
      std::memcpy(&b[q], bp + kk * NR + q * L, sizeof(V));
    }
    const std::size_t off = kk * a_k;
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const float av = arow[r][off];  // broadcast to every lane
#pragma GCC unroll 4
      for (int q = 0; q < NV; ++q) acc[r][q] += av * b[q];
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int q = 0; q < NV; ++q) {
      std::memcpy(tile + r * ldt + q * L, &acc[r][q], sizeof(V));
    }
  }
  if (!full) {
    for (std::size_t r = 0; r < mv; ++r) {
      std::copy(edge + r * NR, edge + r * NR + nv, c + r * ldc);
    }
  }
}

/// The blocked loops around micro_tile<V, MR>. Every tile shares the
/// packed-B format and the cache blocks; only the register blocking
/// differs.
template <typename V, int MR>
[[gnu::always_inline]] inline void tiled_gemm(const GemmSpec& s,
                                              KernelScratch& scratch) {
  constexpr auto mr = static_cast<std::size_t>(MR);
  // A is read in place: A[i][p] is a[i * a_row + p * a_k].
  const std::size_t a_row = s.trans_a ? 1 : s.lda;
  const std::size_t a_k = s.trans_a ? s.lda : 1;
  init_c(s);
  for (std::size_t j0 = 0; j0 < s.n; j0 += kNc) {
    const std::size_t nb = std::min(kNc, s.n - j0);
    const std::size_t npanels = (nb + kNr - 1) / kNr;
    // k blocks ascend inside the column block, so each chain consumes the
    // whole shared dimension in order before the next column block starts.
    for (std::size_t p0 = 0; p0 < s.k; p0 += kKc) {
      const std::size_t kb = std::min(kKc, s.k - p0);
      float* bp = scratch.pack_b(npanels * kNr * kb);
      pack_b_block(s, p0, kb, j0, nb, bp);
      // Row blocks of kMc share each packed B panel while it is hot.
      for (std::size_t i0 = 0; i0 < s.m; i0 += kMc) {
        const std::size_t i_end = std::min(s.m, i0 + kMc);
        for (std::size_t jq = 0; jq < npanels; ++jq) {
          const std::size_t j = j0 + jq * kNr;
          const std::size_t nv = std::min(kNr, s.n - j);
          const float* bpanel = bp + jq * kNr * kb;
          for (std::size_t i = i0; i < i_end; i += mr) {
            micro_tile<V, MR>(kb, s.a + i * a_row + p0 * a_k, a_row, a_k,
                              bpanel, s.c + i * s.ldc + j, s.ldc,
                              std::min(mr, i_end - i), nv);
          }
        }
      }
    }
  }
}

void tiled_gemm_portable(const GemmSpec& s, KernelScratch& scratch) {
  tiled_gemm<v4f, static_cast<int>(kMr)>(s, scratch);
}

#if defined(__x86_64__)
// The same tile with eight lanes, compiled for AVX2 by a function-level
// target (a whole translation unit built with -mavx2 could leave AVX2
// copies of shared inline helpers for the linker to pick program-wide).
// "avx2" does not enable FMA, and gea_kernels builds with
// -ffp-contract=off, so every multiply and add rounds on its own, as in
// the scalar chain.
using v8f = float __attribute__((vector_size(32)));

__attribute__((target("avx2"))) void tiled_gemm_avx2(const GemmSpec& s,
                                                     KernelScratch& scratch) {
  tiled_gemm<v8f, static_cast<int>(kMrWide)>(s, scratch);
}
#endif

/// Registry handles for the kernel-layer metrics, resolved once.
struct KernelMetrics {
  obs::Counter& calls;
  obs::Histogram& gemm_ms;

  static KernelMetrics& get() {
    static KernelMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return KernelMetrics{reg.counter("kernels.gemm_calls"),
                           reg.histogram("kernels.gemm_ms")};
    }();
    return m;
  }
};

}  // namespace

void gemm(const GemmSpec& spec, const KernelConfig& cfg,
          KernelScratch& scratch) {
  if (spec.m == 0 || spec.n == 0) return;
  if (cfg.scalar) {
    scalar_gemm(spec);
  } else if (spec.m < kMr) {
    direct_gemm(spec);
#if defined(__x86_64__)
  } else if (detail::active_tile() == detail::Tile::kAvx2) {
    tiled_gemm_avx2(spec, scratch);
#endif
  } else {
    tiled_gemm_portable(spec, scratch);
  }
}

void gemm(const GemmSpec& spec) {
  const KernelConfig cfg = active_config();
  auto& metrics = KernelMetrics::get();
  if (!obs::metrics_enabled()) {
    gemm(spec, cfg, KernelScratch::tls());
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  gemm(spec, cfg, KernelScratch::tls());
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  metrics.calls.inc();
  metrics.gemm_ms.observe(ms);
}

}  // namespace gea::kernels
