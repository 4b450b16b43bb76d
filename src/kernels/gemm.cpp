#include "kernels/gemm.hpp"

#include <algorithm>
#include <chrono>

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

/// Portable fallback: the same k-ordered chains, no packing, no tiling.
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

/// crow[j] += av * brow[j] for j < n: one step of n independent chains, in
/// fixed-width blocks the compiler vectorizes.
void axpy_row(std::size_t n, float av, const float* __restrict brow,
              float* __restrict crow) {
  constexpr std::size_t kBlock = 16;
  std::size_t j = 0;
  for (; j + kBlock <= n; j += kBlock) {
    for (std::size_t t = 0; t < kBlock; ++t) crow[j + t] += av * brow[j + t];
  }
  for (; j < n; ++j) crow[j] += av * brow[j];
}

/// Unpacked path for products with fewer rows than the register tile
/// (m < mr: dense layers at batch 1-3). Packing all of B to fill one live
/// row of an mr-tall tile costs more than the product itself, so each row
/// of C reads A and B in place. The chains are the same as on every other
/// path: C[i][j] starts from init_c and takes its k terms in ascending
/// order. Only independent chains run side by side — lanes of a row of B,
/// or kDotLanes dot products over rows of the transposed B.
void direct_gemm(const GemmSpec& s) {
  constexpr std::size_t kDotLanes = 4;
  init_c(s);
  const std::size_t n = s.n, k = s.k, ldb = s.ldb;
  const std::size_t a_step = s.trans_a ? s.lda : 1;
  for (std::size_t i = 0; i < s.m; ++i) {
    const float* ai = s.trans_a ? s.a + i : s.a + i * s.lda;
    float* crow = s.c + i * s.ldc;
    if (!s.trans_b) {
      for (std::size_t p = 0; p < k; ++p) {
        axpy_row(n, ai[p * a_step], s.b + p * ldb, crow);
      }
      continue;
    }
    std::size_t j = 0;
    for (; j + kDotLanes <= n; j += kDotLanes) {
      const float* bj = s.b + j * ldb;
      float acc[kDotLanes];
      for (std::size_t t = 0; t < kDotLanes; ++t) acc[t] = crow[j + t];
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ai[p * a_step];
        for (std::size_t t = 0; t < kDotLanes; ++t) {
          acc[t] += av * bj[t * ldb + p];
        }
      }
      for (std::size_t t = 0; t < kDotLanes; ++t) crow[j + t] = acc[t];
    }
    for (; j < n; ++j) {
      const float* bj = s.b + j * ldb;
      float acc = crow[j];
      for (std::size_t p = 0; p < k; ++p) acc += ai[p * a_step] * bj[p];
      crow[j] = acc;
    }
  }
}

/// Pack the (mb x kb) block of A at (i0, p0) into MR-tall row panels laid
/// out k-major: panel q, offset kk*MR + r holds A[i0 + q*MR + r][p0 + kk].
/// Rows past mb are zero-filled so partial register tiles can run the
/// full-tile microkernel unchanged.
void pack_a_block(const GemmSpec& s, std::size_t i0, std::size_t mb,
                  std::size_t p0, std::size_t kb, std::size_t mr, float* ap) {
  const std::size_t panels = (mb + mr - 1) / mr;
  for (std::size_t q = 0; q < panels; ++q) {
    float* panel = ap + q * mr * kb;
    const std::size_t rows = std::min(mr, mb - q * mr);
    for (std::size_t kk = 0; kk < kb; ++kk) {
      float* dst = panel + kk * mr;
      std::size_t r = 0;
      for (; r < rows; ++r) dst[r] = load_a(s, i0 + q * mr + r, p0 + kk);
      for (; r < mr; ++r) dst[r] = 0.0f;
    }
  }
}

/// Pack the (kb x nb) block of B at (p0, j0) into NR-wide column panels,
/// k-major: panel q, offset kk*NR + t holds B[p0 + kk][j0 + q*NR + t].
void pack_b_block(const GemmSpec& s, std::size_t p0, std::size_t kb,
                  std::size_t j0, std::size_t nb, std::size_t nr, float* bp) {
  const std::size_t panels = (nb + nr - 1) / nr;
  for (std::size_t q = 0; q < panels; ++q) {
    float* panel = bp + q * nr * kb;
    const std::size_t cols = std::min(nr, nb - q * nr);
    for (std::size_t kk = 0; kk < kb; ++kk) {
      float* dst = panel + kk * nr;
      std::size_t t = 0;
      for (; t < cols; ++t) dst[t] = load_b(s, p0 + kk, j0 + q * nr + t);
      for (; t < nr; ++t) dst[t] = 0.0f;
    }
  }
}

/// MR x NR register tile over a kb-deep panel pair. One code path for full
/// and partial tiles: valid lanes load their running chain from C, dead
/// lanes run on zeros and are dropped by the masked store — so the FP op
/// sequence of a chain never depends on where its element fell in the
/// tiling, which is what makes results independent of batch position.
template <int MR, int NR>
void micro_tile(std::size_t kb, const float* __restrict ap,
                const float* __restrict bp, float* __restrict c,
                std::size_t ldc, std::size_t mv, std::size_t nv) {
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r) {
    for (int t = 0; t < NR; ++t) {
      acc[r][t] = (static_cast<std::size_t>(r) < mv &&
                   static_cast<std::size_t>(t) < nv)
                      ? c[static_cast<std::size_t>(r) * ldc + t]
                      : 0.0f;
    }
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* __restrict arow = ap + kk * MR;
    const float* __restrict brow = bp + kk * NR;
    for (int r = 0; r < MR; ++r) {
      const float av = arow[r];
      for (int t = 0; t < NR; ++t) acc[r][t] += av * brow[t];
    }
  }
  for (std::size_t r = 0; r < mv; ++r) {
    for (std::size_t t = 0; t < nv; ++t) c[r * ldc + t] = acc[r][t];
  }
}

using MicroFn = void (*)(std::size_t, const float*, const float*, float*,
                         std::size_t, std::size_t, std::size_t);

struct Variant {
  std::uint32_t mr, nr;
  MicroFn fn;
};

/// Must stay in sync with microkernel_variants() in config.cpp.
constexpr Variant kVariantTable[] = {
    {2, 4, micro_tile<2, 4>},   {4, 4, micro_tile<4, 4>},
    {2, 8, micro_tile<2, 8>},   {4, 8, micro_tile<4, 8>},
    {6, 8, micro_tile<6, 8>},   {8, 8, micro_tile<8, 8>},
    {4, 16, micro_tile<4, 16>}, {8, 4, micro_tile<8, 4>},
};

MicroFn find_variant(std::uint32_t mr, std::uint32_t nr) {
  for (const auto& v : kVariantTable) {
    if (v.mr == mr && v.nr == nr) return v.fn;
  }
  return nullptr;
}

void tiled_gemm(const GemmSpec& s, const KernelConfig& cfg,
                KernelScratch& scratch, MicroFn micro) {
  const std::size_t mr = cfg.mr, nr = cfg.nr;
  const std::size_t mc = cfg.mc, kc = cfg.kc, nc = cfg.nc;
  init_c(s);
  for (std::size_t j0 = 0; j0 < s.n; j0 += nc) {
    const std::size_t nb = std::min(nc, s.n - j0);
    const std::size_t npanels = (nb + nr - 1) / nr;
    // k blocks ascend inside the column block, so each chain consumes the
    // whole shared dimension in order before the next column block starts.
    for (std::size_t p0 = 0; p0 < s.k; p0 += kc) {
      const std::size_t kb = std::min(kc, s.k - p0);
      float* bp = scratch.pack_b(npanels * nr * kb);
      pack_b_block(s, p0, kb, j0, nb, nr, bp);
      for (std::size_t i0 = 0; i0 < s.m; i0 += mc) {
        const std::size_t mb = std::min(mc, s.m - i0);
        const std::size_t mpanels = (mb + mr - 1) / mr;
        float* ap = scratch.pack_a(mpanels * mr * kb);
        pack_a_block(s, i0, mb, p0, kb, mr, ap);
        for (std::size_t jq = 0; jq < npanels; ++jq) {
          const std::size_t j = j0 + jq * nr;
          const std::size_t nv = std::min(nr, s.n - j);
          const float* bpanel = bp + jq * nr * kb;
          for (std::size_t iq = 0; iq < mpanels; ++iq) {
            const std::size_t i = i0 + iq * mr;
            const std::size_t mv = std::min(mr, s.m - i);
            micro(kb, ap + iq * mr * kb, bpanel, s.c + i * s.ldc + j, s.ldc,
                  mv, nv);
          }
        }
      }
    }
  }
}

/// Registry handles for the kernel-layer metrics, resolved once.
struct KernelMetrics {
  obs::Counter& calls;
  obs::Counter& tuned;
  obs::Counter& fallback;
  obs::Histogram& gemm_ms;

  static KernelMetrics& get() {
    static KernelMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return KernelMetrics{reg.counter("kernels.gemm_calls"),
                           reg.counter("kernels.tuned"),
                           reg.counter("kernels.fallback"),
                           reg.histogram("kernels.gemm_ms")};
    }();
    return m;
  }
};

}  // namespace

void gemm(const GemmSpec& spec, const KernelConfig& cfg,
          KernelScratch& scratch) {
  if (spec.m == 0 || spec.n == 0) return;
  MicroFn micro = cfg.scalar() ? nullptr : find_variant(cfg.mr, cfg.nr);
  if (micro == nullptr) {
    scalar_gemm(spec);
  } else if (spec.m < cfg.mr) {
    direct_gemm(spec);
  } else {
    tiled_gemm(spec, cfg, scratch, micro);
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
  if (cfg.scalar()) {
    metrics.fallback.inc();
  } else if (cfg.tuned()) {
    metrics.tuned.inc();
  }
}

}  // namespace gea::kernels
