// Tests for the src/kernels dense-math layer: ULP-bounded equivalence of
// the tiled GEMM path against the preserved seed loops across a randomized
// shape sweep (ragged M/N/K, batch 1/3/16), bitwise batch invariance,
// scalar-fallback parity, config persistence round-trips, scratch
// footprint stability, and the obs metric mirrors.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "kernels/config.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "kernels/reference.hpp"
#include "kernels/scratch.hpp"
#include "kernels/tune.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace gea;

/// ULP distance between two floats (0 for numerically equal values,
/// including +0 vs -0); huge for NaN or sign-crossing pairs.
std::int64_t ulp_diff(float a, float b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  auto key = [](float v) {
    auto bits = static_cast<std::int64_t>(std::bit_cast<std::int32_t>(v));
    return bits < 0 ? static_cast<std::int64_t>(INT32_MIN) - bits : bits;
  };
  const std::int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

/// Pass when within `ulps` or within an absolute escape hatch (chains that
/// cancel toward zero make ULP distance meaningless for tiny values).
void expect_close(float a, float b, std::int64_t ulps, float atol,
                  const std::string& what) {
  if (ulp_diff(a, b) <= ulps) return;
  EXPECT_LE(std::fabs(a - b), atol) << what << ": " << a << " vs " << b
                                    << " (ulp=" << ulp_diff(a, b) << ")";
}

void expect_all_close(const std::vector<float>& got,
                      const std::vector<float>& want, std::int64_t ulps,
                      float atol, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_close(got[i], want[i], ulps, atol, what + "[" + std::to_string(i) + "]");
  }
}

std::vector<float> random_vec(util::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Naive k-ordered GEMM directly off the spec — the chain-order oracle.
void naive_gemm(const kernels::GemmSpec& s, float* c) {
  auto a_at = [&](std::size_t i, std::size_t p) {
    return s.trans_a ? s.a[p * s.lda + i] : s.a[i * s.lda + p];
  };
  auto b_at = [&](std::size_t p, std::size_t j) {
    return s.trans_b ? s.b[j * s.ldb + p] : s.b[p * s.ldb + j];
  };
  for (std::size_t i = 0; i < s.m; ++i) {
    for (std::size_t j = 0; j < s.n; ++j) {
      float acc;
      if (s.accumulate) acc = c[i * s.ldc + j];
      else if (s.bias_row) acc = s.bias_row[i];
      else if (s.bias_col) acc = s.bias_col[j];
      else acc = 0.0f;
      for (std::size_t p = 0; p < s.k; ++p) acc += a_at(i, p) * b_at(p, j);
      c[i * s.ldc + j] = acc;
    }
  }
}

kernels::KernelConfig tiled_cfg(std::uint32_t mr, std::uint32_t nr,
                                std::uint32_t mc, std::uint32_t kc,
                                std::uint32_t nc) {
  kernels::KernelConfig cfg;
  cfg.mr = mr;
  cfg.nr = nr;
  cfg.mc = mc;
  cfg.kc = kc;
  cfg.nc = nc;
  cfg.source = kernels::KernelConfig::Source::kTuned;
  return cfg;
}

TEST(Gemm, RandomizedSweepMatchesNaiveAcrossVariants) {
  util::Rng rng(42);
  kernels::KernelScratch scratch;
  const auto& variants = kernels::microkernel_variants();
  for (int trial = 0; trial < 60; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 90));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 120));
    kernels::GemmSpec spec;
    spec.m = m;
    spec.n = n;
    spec.k = k;
    spec.trans_a = rng.uniform() < 0.5;
    spec.trans_b = rng.uniform() < 0.5;
    const auto a = random_vec(rng, m * k);
    const auto b = random_vec(rng, k * n);
    const auto bias = random_vec(rng, m + n);
    spec.a = a.data();
    spec.lda = spec.trans_a ? m : k;
    spec.b = b.data();
    spec.ldb = spec.trans_b ? k : n;
    spec.ldc = n;
    const int bias_mode = static_cast<int>(rng.uniform_int(0, 3));
    std::vector<float> c0 = random_vec(rng, m * n);  // accumulate seed
    if (bias_mode == 0) spec.bias_row = bias.data();
    else if (bias_mode == 1) spec.bias_col = bias.data() + m;
    else if (bias_mode == 2) spec.accumulate = true;

    std::vector<float> want = c0;
    spec.c = want.data();
    naive_gemm(spec, want.data());

    // Small blocks on some trials force multi-block k/n/m paths.
    const auto& [mr, nr] = variants[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(variants.size()) - 1))];
    const bool small_blocks = rng.uniform() < 0.5;
    const auto cfg = small_blocks ? tiled_cfg(mr, nr, 16, 24, 32)
                                  : tiled_cfg(mr, nr, 64, 256, 512);

    std::vector<float> got = c0;
    spec.c = got.data();
    kernels::gemm(spec, cfg, scratch);
    expect_all_close(got, want, 4, 1e-5f,
                     "gemm m=" + std::to_string(m) + " n=" + std::to_string(n) +
                         " k=" + std::to_string(k) + " cfg=" + cfg.summary());
  }
}

/// True when both buffers hold the same bit patterns.
bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// The chain-order contract makes every path bitwise equal to the scalar
// fallback: each compiled variant, both transposes, every init mode, row
// counts below the register tile (the unpacked direct path) and at or
// above it (the packed tiled path), small and default cache blocks.
TEST(Gemm, ScalarFallbackParity) {
  util::Rng rng(7);
  kernels::KernelScratch scratch;
  for (const auto& [mr, nr] : kernels::microkernel_variants()) {
    for (int trans = 0; trans < 4; ++trans) {
      for (int init = 0; init < 4; ++init) {
        for (const bool small_blocks : {false, true}) {
          for (const bool below_tile : {true, false}) {
            const auto m = static_cast<std::size_t>(
                below_tile ? rng.uniform_int(1, mr - 1)
                           : rng.uniform_int(mr, 40));
            const auto n = static_cast<std::size_t>(rng.uniform_int(1, 60));
            const auto k = static_cast<std::size_t>(rng.uniform_int(1, 80));
            kernels::GemmSpec spec;
            spec.m = m;
            spec.n = n;
            spec.k = k;
            spec.trans_a = (trans & 1) != 0;
            spec.trans_b = (trans & 2) != 0;
            const auto a = random_vec(rng, m * k);
            const auto b = random_vec(rng, k * n);
            const auto bias = random_vec(rng, m + n);
            spec.a = a.data();
            spec.lda = spec.trans_a ? m : k;
            spec.b = b.data();
            spec.ldb = spec.trans_b ? k : n;
            spec.ldc = n;
            if (init == 0) spec.bias_row = bias.data();
            else if (init == 1) spec.bias_col = bias.data() + m;
            else if (init == 2) spec.accumulate = true;
            const auto c0 = random_vec(rng, m * n);  // accumulate seed

            const auto cfg = small_blocks ? tiled_cfg(mr, nr, 16, 24, 32)
                                          : tiled_cfg(mr, nr, 64, 256, 512);
            std::vector<float> tiled = c0, scalar = c0;
            spec.c = tiled.data();
            kernels::gemm(spec, cfg, scratch);
            spec.c = scalar.data();
            kernels::gemm(spec, kernels::scalar_config(), scratch);
            EXPECT_TRUE(bitwise_equal(tiled, scalar))
                << "m=" << m << " n=" << n << " k=" << k
                << " trans_a=" << spec.trans_a << " trans_b=" << spec.trans_b
                << " init=" << init << " cfg=" << cfg.summary();
          }
        }
      }
    }
  }
}

struct ConvCase {
  kernels::Conv1DShape shape;
  std::vector<float> x, w, b;
};

ConvCase random_conv_case(util::Rng& rng, std::size_t n, std::size_t k,
                          bool same) {
  ConvCase c;
  c.shape.n = n;
  c.shape.in_ch = static_cast<std::size_t>(rng.uniform_int(1, 8));
  c.shape.out_ch = static_cast<std::size_t>(rng.uniform_int(1, 12));
  c.shape.k = k;
  c.shape.same = same;
  c.shape.l_in = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(k), 40));
  c.x = random_vec(rng, n * c.shape.in_ch * c.shape.l_in);
  c.w = random_vec(rng, c.shape.out_ch * c.shape.in_ch * k);
  c.b = random_vec(rng, c.shape.out_ch);
  return c;
}

TEST(ConvLowering, ForwardMatchesSeedReferenceSweep) {
  util::Rng rng(11);
  for (std::size_t n : {1u, 3u, 16u}) {
    for (std::size_t k : {1u, 3u, 5u}) {
      for (bool same : {true, false}) {
        for (int rep = 0; rep < 4; ++rep) {
          const auto c = random_conv_case(rng, n, k, same);
          const std::size_t ysz = n * c.shape.out_ch * c.shape.l_out();
          std::vector<float> got(ysz), want(ysz);
          kernels::conv1d_forward(c.shape, c.x.data(), c.w.data(), c.b.data(),
                                  got.data());
          kernels::reference::conv1d_forward(c.shape, c.x.data(), c.w.data(),
                                             c.b.data(), want.data());
          expect_all_close(got, want, 64, 1e-4f,
                           "conv fwd n=" + std::to_string(n) +
                               " k=" + std::to_string(k) +
                               (same ? " same" : " valid"));
        }
      }
    }
  }
}

TEST(ConvLowering, BackwardMatchesSeedReferenceSweep) {
  util::Rng rng(13);
  for (std::size_t n : {1u, 3u, 16u}) {
    for (std::size_t k : {1u, 3u, 5u}) {
      for (bool same : {true, false}) {
        const auto c = random_conv_case(rng, n, k, same);
        const auto grad_out =
            random_vec(rng, n * c.shape.out_ch * c.shape.l_out());
        const std::size_t xsz = n * c.shape.in_ch * c.shape.l_in;
        const std::size_t wsz = c.w.size();
        std::vector<float> gx_got(xsz, 0.0f), gw_got(wsz, 0.0f),
            gb_got(c.shape.out_ch, 0.0f);
        std::vector<float> gx_want(xsz, 0.0f), gw_want(wsz, 0.0f),
            gb_want(c.shape.out_ch, 0.0f);
        kernels::conv1d_backward(c.shape, c.x.data(), c.w.data(),
                                 grad_out.data(), gx_got.data(), gw_got.data(),
                                 gb_got.data());
        kernels::reference::conv1d_backward(c.shape, c.x.data(), c.w.data(),
                                            grad_out.data(), gx_want.data(),
                                            gw_want.data(), gb_want.data());
        const std::string tag = "conv bwd n=" + std::to_string(n) +
                                " k=" + std::to_string(k) +
                                (same ? " same" : " valid");
        expect_all_close(gb_got, gb_want, 4, 1e-5f, tag + " gb");
        expect_all_close(gw_got, gw_want, 256, 1e-3f, tag + " gw");
        expect_all_close(gx_got, gx_want, 256, 1e-3f, tag + " gx");
        // Null parameter-gradient buffers skip that work and nothing else.
        std::vector<float> gx_only(xsz, 0.0f);
        kernels::conv1d_backward(c.shape, c.x.data(), c.w.data(),
                                 grad_out.data(), gx_only.data(), nullptr,
                                 nullptr);
        EXPECT_TRUE(bitwise_equal(gx_only, gx_got)) << tag << " gx only";
      }
    }
  }
}

TEST(ConvLowering, DenseMatchesSeedReferenceSweep) {
  util::Rng rng(17);
  for (std::size_t n : {1u, 3u, 16u}) {
    for (int rep = 0; rep < 4; ++rep) {
      const auto in = static_cast<std::size_t>(rng.uniform_int(1, 100));
      const auto out = static_cast<std::size_t>(rng.uniform_int(1, 60));
      const auto x = random_vec(rng, n * in);
      const auto w = random_vec(rng, out * in);
      const auto b = random_vec(rng, out);
      std::vector<float> got(n * out), want(n * out);
      kernels::dense_forward(n, in, out, x.data(), w.data(), b.data(),
                             got.data());
      kernels::reference::dense_forward(n, in, out, x.data(), w.data(),
                                        b.data(), want.data());
      // Same accumulation order as the seed loop — tight bound.
      expect_all_close(got, want, 4, 1e-5f, "dense fwd n=" + std::to_string(n));

      const auto grad_out = random_vec(rng, n * out);
      std::vector<float> gx_got(n * in, 0.0f), gw_got(out * in, 0.0f),
          gb_got(out, 0.0f);
      std::vector<float> gx_want(n * in, 0.0f), gw_want(out * in, 0.0f),
          gb_want(out, 0.0f);
      kernels::dense_backward(n, in, out, x.data(), w.data(), grad_out.data(),
                              gx_got.data(), gw_got.data(), gb_got.data());
      kernels::reference::dense_backward(n, in, out, x.data(), w.data(),
                                         grad_out.data(), gx_want.data(),
                                         gw_want.data(), gb_want.data());
      expect_all_close(gb_got, gb_want, 4, 1e-5f, "dense gb");
      expect_all_close(gw_got, gw_want, 64, 1e-4f, "dense gw");
      expect_all_close(gx_got, gx_want, 64, 1e-4f, "dense gx");
      std::vector<float> gx_only(n * in, 0.0f);
      kernels::dense_backward(n, in, out, x.data(), w.data(), grad_out.data(),
                              gx_only.data(), nullptr, nullptr);
      EXPECT_TRUE(bitwise_equal(gx_only, gx_got)) << "dense gx only";
    }
  }
}

/// The serving guarantee at kernel level: an element's value must not
/// depend on where its sample sits in the batch — batched conv/dense
/// outputs are bitwise identical to sixteen single-sample runs.
TEST(ConvLowering, BatchedForwardBitwiseEqualsPerSample) {
  util::Rng rng(19);
  const std::size_t n = 16;
  for (bool same : {true, false}) {
    const auto c = random_conv_case(rng, n, 3, same);
    const std::size_t per = c.shape.out_ch * c.shape.l_out();
    std::vector<float> batched(n * per);
    kernels::conv1d_forward(c.shape, c.x.data(), c.w.data(), c.b.data(),
                            batched.data());
    kernels::Conv1DShape one = c.shape;
    one.n = 1;
    std::vector<float> single(per);
    for (std::size_t i = 0; i < n; ++i) {
      kernels::conv1d_forward(one,
                              c.x.data() + i * c.shape.in_ch * c.shape.l_in,
                              c.w.data(), c.b.data(), single.data());
      for (std::size_t j = 0; j < per; ++j) {
        EXPECT_EQ(batched[i * per + j], single[j])
            << "sample " << i << " elem " << j;
      }
    }
  }

  const std::size_t in = 368, out = 512;
  const auto x = random_vec(rng, n * in);
  const auto w = random_vec(rng, out * in);
  const auto b = random_vec(rng, out);
  std::vector<float> batched(n * out), single(out);
  kernels::dense_forward(n, in, out, x.data(), w.data(), b.data(),
                         batched.data());
  for (std::size_t i = 0; i < n; ++i) {
    kernels::dense_forward(1, in, out, x.data() + i * in, w.data(), b.data(),
                           single.data());
    for (std::size_t o = 0; o < out; ++o) {
      EXPECT_EQ(batched[i * out + o], single[o]) << "sample " << i;
    }
  }
}

TEST(KernelConfig, RoundTripSaveLoad) {
  const std::string path = ::testing::TempDir() + "gea_kernels_roundtrip.cfg";
  auto cfg = tiled_cfg(8, 8, 128, 64, 256);
  ASSERT_TRUE(kernels::save_config(cfg, path).is_ok());
  auto loaded = kernels::load_config(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().mr, cfg.mr);
  EXPECT_EQ(loaded.value().nr, cfg.nr);
  EXPECT_EQ(loaded.value().mc, cfg.mc);
  EXPECT_EQ(loaded.value().kc, cfg.kc);
  EXPECT_EQ(loaded.value().nc, cfg.nc);
  EXPECT_EQ(loaded.value().source, kernels::KernelConfig::Source::kTuned);
  std::remove(path.c_str());
}

TEST(KernelConfig, LoadRejectsMissingCorruptAndUnsupported) {
  EXPECT_FALSE(kernels::load_config("/nonexistent/gea.cfg").is_ok());

  const std::string bad_header = ::testing::TempDir() + "gea_kernels_bad.cfg";
  {
    std::FILE* f = std::fopen(bad_header.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a kernel config\nmr 4\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(kernels::load_config(bad_header).is_ok());
  std::remove(bad_header.c_str());

  const std::string unsupported = ::testing::TempDir() + "gea_kernels_uns.cfg";
  auto cfg = tiled_cfg(5, 7, 64, 64, 64);  // no such microkernel
  // save_config happily writes it; load must refuse via validate().
  ASSERT_TRUE(kernels::save_config(cfg, unsupported).is_ok());
  auto loaded = kernels::load_config(unsupported);
  EXPECT_FALSE(loaded.is_ok());
  std::remove(unsupported.c_str());
}

TEST(KernelConfig, SetActiveRejectsInvalidKeepsPrevious) {
  const auto before = kernels::active_config();
  EXPECT_FALSE(kernels::set_active_config(tiled_cfg(3, 9, 64, 64, 64)).is_ok());
  EXPECT_EQ(kernels::active_config().summary(), before.summary());
  // Valid configs install and report through the summary.
  ASSERT_TRUE(kernels::set_active_config(kernels::scalar_config()).is_ok());
  EXPECT_EQ(kernels::active_config_summary(), "scalar source=fallback");
  ASSERT_TRUE(kernels::set_active_config(before).is_ok());
}

TEST(KernelScratch, FootprintStableAfterWarmup) {
  util::Rng rng(23);
  const auto c = random_conv_case(rng, 16, 3, true);
  const auto grad_out = random_vec(rng, 16 * c.shape.out_ch * c.shape.l_out());
  std::vector<float> y(16 * c.shape.out_ch * c.shape.l_out());
  std::vector<float> gx(c.x.size()), gw(c.w.size()), gb(c.b.size());

  auto pass = [&] {
    kernels::conv1d_forward(c.shape, c.x.data(), c.w.data(), c.b.data(),
                            y.data());
    kernels::conv1d_backward(c.shape, c.x.data(), c.w.data(), grad_out.data(),
                             gx.data(), gw.data(), gb.data());
  };
  pass();  // warm-up grows the thread-local arena
  const std::size_t warm = kernels::KernelScratch::tls().footprint_bytes();
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 10; ++i) pass();
  EXPECT_EQ(kernels::KernelScratch::tls().footprint_bytes(), warm)
      << "steady-state kernel calls must not grow scratch";
}

TEST(KernelMetrics, GemmActivityMirroredIntoRegistry) {
  auto& reg = obs::MetricsRegistry::global();
  const auto before = kernels::active_config();

  util::Rng rng(29);
  const auto x = random_vec(rng, 8 * 32);
  const auto w = random_vec(rng, 16 * 32);
  const auto b = random_vec(rng, 16);
  std::vector<float> y(8 * 16);

  const auto calls0 = reg.snapshot().counters["kernels.gemm_calls"];
  const auto tuned0 = reg.snapshot().counters["kernels.tuned"];
  const auto fallback0 = reg.snapshot().counters["kernels.fallback"];

  auto tuned_cfg = kernels::default_config();
  tuned_cfg.source = kernels::KernelConfig::Source::kTuned;
  ASSERT_TRUE(kernels::set_active_config(tuned_cfg).is_ok());
  kernels::dense_forward(8, 32, 16, x.data(), w.data(), b.data(), y.data());
  ASSERT_TRUE(kernels::set_active_config(kernels::scalar_config()).is_ok());
  kernels::dense_forward(8, 32, 16, x.data(), w.data(), b.data(), y.data());
  ASSERT_TRUE(kernels::set_active_config(before).is_ok());

  const auto snap = reg.snapshot();
  EXPECT_GE(snap.counters.at("kernels.gemm_calls"), calls0 + 2);
  EXPECT_GE(snap.counters.at("kernels.tuned"), tuned0 + 1);
  EXPECT_GE(snap.counters.at("kernels.fallback"), fallback0 + 1);
  EXPECT_GE(snap.histograms.at("kernels.gemm_ms").count, 2u);
}

TEST(Tuner, QuickSearchReturnsSupportedWinner) {
  kernels::TuneOptions opts;
  opts.quick = true;
  opts.reps = 1;
  opts.shapes = {{12, 48, 24, "tiny1"}, {5, 7, 11, "tiny2"}};
  const auto report = kernels::tune(opts);
  EXPECT_EQ(report.candidates.size(), kernels::microkernel_variants().size());
  EXPECT_TRUE(kernels::microkernel_supported(report.best.mr, report.best.nr));
  EXPECT_EQ(report.best.source, kernels::KernelConfig::Source::kTuned);
  EXPECT_GT(report.best_ms, 0.0);
  EXPECT_GT(report.scalar_ms, 0.0);
  for (std::size_t i = 1; i < report.candidates.size(); ++i) {
    EXPECT_LE(report.candidates[i - 1].total_ms, report.candidates[i].total_ms);
  }
  // The tuner is an observer: it must not touch the active config.
  EXPECT_TRUE(kernels::validate(kernels::active_config()).is_ok());
}

}  // namespace
