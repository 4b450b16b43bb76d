// Tests for the src/kernels dense-math layer: ULP-bounded equivalence of
// the tiled GEMM path against the preserved seed loops across a randomized
// shape sweep (ragged M/N/K, batch 1/3/16), bitwise batch invariance of
// the conv and dense forward and backward, bitwise parity with the scalar
// chain across the compiled block edges on every register tile this CPU
// runs, the active-path switch, scratch footprint stability, and the obs
// metric mirrors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/config.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "kernels/reference.hpp"
#include "kernels/scratch.hpp"
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

using kernels::detail::Tile;

/// Makes the tiled path run `tile` for one scope.
class PinTile {
 public:
  explicit PinTile(Tile tile) : before_(kernels::detail::active_tile()) {
    EXPECT_TRUE(kernels::detail::pin_tile(tile));
  }
  ~PinTile() { kernels::detail::pin_tile(before_); }
  PinTile(const PinTile&) = delete;
  PinTile& operator=(const PinTile&) = delete;

 private:
  Tile before_;
};

// Ragged shapes on every tile this CPU runs: m runs past one kMc row
// block, and a third of the trials each add a second kNc column block or
// a second kKc depth block. C carries kMrWide - 1 guard rows past m (as
// many as the widest tile can have dead rows) that no path may write, so
// a store to a dead tile row fails the whole-buffer comparison instead of
// corrupting the heap.
void randomized_sweep() {
  util::Rng rng(42);
  kernels::KernelScratch scratch;
  const auto cfg = kernels::default_config();
  for (int trial = 0; trial < 60; ++trial) {
    const int extend = static_cast<int>(rng.uniform_int(0, 2));
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 90)) +
                   (extend == 1 ? kernels::kNc : 0);
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 120)) +
                   (extend == 2 ? kernels::kKc : 0);
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
    c0.resize((m + kernels::kMrWide - 1) * n, 1234.5f);  // guard rows
    if (bias_mode == 0) spec.bias_row = bias.data();
    else if (bias_mode == 1) spec.bias_col = bias.data() + m;
    else if (bias_mode == 2) spec.accumulate = true;

    std::vector<float> want = c0;
    spec.c = want.data();
    naive_gemm(spec, want.data());

    std::vector<float> got = c0;
    spec.c = got.data();
    kernels::gemm(spec, cfg, scratch);
    expect_all_close(got, want, 4, 1e-5f,
                     "gemm m=" + std::to_string(m) + " n=" + std::to_string(n) +
                         " k=" + std::to_string(k));
  }
}

TEST(Gemm, RandomizedSweepMatchesNaiveAcrossVariants) {
  for (const Tile tile : kernels::detail::runnable_tiles()) {
    SCOPED_TRACE(kernels::detail::tile_name(tile));
    PinTile pin(tile);
    randomized_sweep();
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

// Row-count regimes of ScalarFallbackParity: below the four-lane tile (the
// unpacked direct path), one tile of the eight-lane tile with dead rows
// (kMr <= m < kMrWide), inside the tiled range, one row past a kMc row
// block (the block's last tile is partial, and its dead rows would land in
// the next block), and the direct path at n >= 64 (full 32-column axpy and
// 16-column dot blocks, then their tails).
enum class Rows { kDirect, kWideDeadRows, kTiled, kPastRowBlock, kDirectWide };

// The chain-order contract makes every path bitwise equal to the scalar
// chain, on every tile this CPU runs: both transposes, every init mode,
// every row regime, one or two kKc depth blocks, one or two kNc column
// blocks, and operands with leading dimensions at or above the minimum. C
// carries kMrWide - 1 guard rows past m and, when strided, padding past n;
// the scalar path writes neither, so the whole-buffer comparison also
// catches a store to a dead row or column.
void scalar_parity_sweep() {
  util::Rng rng(7);
  kernels::KernelScratch scratch;
  auto draw = [&](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  const auto cfg = kernels::default_config();
  for (int trans = 0; trans < 4; ++trans) {
    for (int init = 0; init < 4; ++init) {
      for (const Rows rows :
           {Rows::kDirect, Rows::kWideDeadRows, Rows::kTiled,
            Rows::kPastRowBlock, Rows::kDirectWide}) {
        for (const bool deep : {false, true}) {
          for (const bool wide : {false, true}) {
            for (const bool strided : {false, true}) {
              const bool direct =
                  rows == Rows::kDirect || rows == Rows::kDirectWide;
              const std::size_t m =
                  direct ? draw(1, kernels::kMr - 1)
                  : rows == Rows::kWideDeadRows
                      ? draw(kernels::kMr, kernels::kMrWide - 1)
                  : rows == Rows::kTiled ? draw(kernels::kMr, 40)
                                         : kernels::kMc + 1;
              const std::size_t n =
                  wide ? kernels::kNc + draw(1, 40)
                  : rows == Rows::kDirectWide ? draw(64, 150)
                                              : draw(1, 60);
              const std::size_t k =
                  deep ? kernels::kKc + draw(1, 40) : draw(1, 80);
              const std::size_t pad_a = strided ? draw(1, 5) : 0;
              const std::size_t pad_b = strided ? draw(1, 5) : 0;
              const std::size_t pad_c = strided ? draw(1, 5) : 0;
              kernels::GemmSpec spec;
              spec.m = m;
              spec.n = n;
              spec.k = k;
              spec.trans_a = (trans & 1) != 0;
              spec.trans_b = (trans & 2) != 0;
              spec.lda = (spec.trans_a ? m : k) + pad_a;
              spec.ldb = (spec.trans_b ? k : n) + pad_b;
              spec.ldc = n + pad_c;
              const auto a =
                  random_vec(rng, (spec.trans_a ? k : m) * spec.lda);
              const auto b =
                  random_vec(rng, (spec.trans_b ? n : k) * spec.ldb);
              const auto bias = random_vec(rng, m + n);
              spec.a = a.data();
              spec.b = b.data();
              if (init == 0) spec.bias_row = bias.data();
              else if (init == 1) spec.bias_col = bias.data() + m;
              else if (init == 2) spec.accumulate = true;
              // Accumulate seed, padding and guard rows in one buffer.
              const auto c0 = random_vec(
                  rng, (m + kernels::kMrWide - 1) * spec.ldc);

              std::vector<float> tiled = c0, scalar = c0;
              spec.c = tiled.data();
              kernels::gemm(spec, cfg, scratch);
              spec.c = scalar.data();
              kernels::gemm(spec, kernels::scalar_config(), scratch);
              EXPECT_TRUE(bitwise_equal(tiled, scalar))
                  << "m=" << m << " n=" << n << " k=" << k
                  << " lda=" << spec.lda << " ldb=" << spec.ldb
                  << " ldc=" << spec.ldc << " trans_a=" << spec.trans_a
                  << " trans_b=" << spec.trans_b << " init=" << init;
            }
          }
        }
      }
    }
  }
}

TEST(Gemm, ScalarFallbackParity) {
  for (const Tile tile : kernels::detail::runnable_tiles()) {
    SCOPED_TRACE(kernels::detail::tile_name(tile));
    PinTile pin(tile);
    scalar_parity_sweep();
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

/// The batched-gradient guarantee: one batch-N backward (one weight-
/// gradient GEMM over all N*l_out positions, one input-gradient GEMM for
/// the batch) equals N single-sample backward calls bit for bit, with gw
/// and gb accumulated across the calls in sample order from the same
/// nonzero start.
TEST(ConvLowering, BatchedBackwardBitwiseEqualsPerSample) {
  util::Rng rng(31);
  for (std::size_t n : {1u, 2u, 13u, 16u}) {
    for (bool same : {true, false}) {
      const auto c = random_conv_case(rng, n, 3, same);
      const std::size_t per_x = c.shape.in_ch * c.shape.l_in;
      const std::size_t per_g = c.shape.out_ch * c.shape.l_out();
      const auto grad_out = random_vec(rng, n * per_g);
      const auto gw0 = random_vec(rng, c.w.size());
      const auto gb0 = random_vec(rng, c.shape.out_ch);

      std::vector<float> gx_batch(n * per_x, 0.0f), gw_batch = gw0,
          gb_batch = gb0;
      kernels::conv1d_backward(c.shape, c.x.data(), c.w.data(),
                               grad_out.data(), gx_batch.data(),
                               gw_batch.data(), gb_batch.data());

      kernels::Conv1DShape one = c.shape;
      one.n = 1;
      std::vector<float> gx_single(n * per_x, 0.0f), gw_single = gw0,
          gb_single = gb0;
      for (std::size_t i = 0; i < n; ++i) {
        kernels::conv1d_backward(one, c.x.data() + i * per_x, c.w.data(),
                                 grad_out.data() + i * per_g,
                                 gx_single.data() + i * per_x,
                                 gw_single.data(), gb_single.data());
      }
      const std::string tag = "n=" + std::to_string(n) +
                              (same ? " same" : " valid");
      EXPECT_TRUE(bitwise_equal(gw_batch, gw_single)) << tag << " gw";
      EXPECT_TRUE(bitwise_equal(gb_batch, gb_single)) << tag << " gb";
      EXPECT_TRUE(bitwise_equal(gx_batch, gx_single)) << tag << " gx";
    }
  }
}

/// Dense forward, input gradient and full backward of one (in, out) shape
/// at batch n, from fixed inputs.
struct DenseRun {
  std::vector<float> y, gx_only, gx, gw, gb;
};

DenseRun run_dense(std::size_t n, std::size_t in, std::size_t out,
                   const std::vector<float>& x, const std::vector<float>& w,
                   const std::vector<float>& b,
                   const std::vector<float>& grad_out,
                   const std::vector<float>& gw0,
                   const std::vector<float>& gb0) {
  DenseRun r;
  r.y.resize(n * out);
  kernels::dense_forward(n, in, out, x.data(), w.data(), b.data(), r.y.data());
  r.gx_only.resize(n * in);
  kernels::dense_backward(n, in, out, x.data(), w.data(), grad_out.data(),
                          r.gx_only.data(), nullptr, nullptr);
  r.gx.resize(n * in);
  r.gw = gw0;
  r.gb = gb0;
  kernels::dense_backward(n, in, out, x.data(), w.data(), grad_out.data(),
                          r.gx.data(), r.gw.data(), r.gb.data());
  return r;
}

// A dense layer at batch n runs as y = X * W^T, or transposed (y^T = W *
// X^T, reading W in place) where W is the larger operand; the input
// gradient likewise. Either way, on every tile this CPU runs, a batch-n
// forward, input gradient (what Model::backward_input runs) and full
// backward equal n single-sample calls, with gw and gb accumulated across
// them in sample order from the same nonzero start, and the scalar chain,
// bit for bit. The shapes are the paper CNN's dense1 and dense2 and a
// small one that switches mapping inside the batch range.
TEST(DenseLowering, BatchedBitwiseEqualsPerSampleAndScalarChain) {
  struct Shape {
    std::size_t in, out;
  };
  util::Rng rng(41);
  for (const Shape shape : {Shape{368, 512}, Shape{512, 2}, Shape{40, 30}}) {
    const std::size_t in = shape.in, out = shape.out;
    const auto w = random_vec(rng, out * in);
    const auto b = random_vec(rng, out);
    const auto gw0 = random_vec(rng, out * in);
    const auto gb0 = random_vec(rng, out);
    for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 16u, 24u, 33u}) {
      const auto x = random_vec(rng, n * in);
      const auto grad_out = random_vec(rng, n * out);
      for (const Tile tile : kernels::detail::runnable_tiles()) {
        SCOPED_TRACE(std::string(kernels::detail::tile_name(tile)) +
                     " in=" + std::to_string(in) + " out=" +
                     std::to_string(out) + " n=" + std::to_string(n));
        PinTile pin(tile);
        const DenseRun batched =
            run_dense(n, in, out, x, w, b, grad_out, gw0, gb0);

        DenseRun single;
        single.gw = gw0;
        single.gb = gb0;
        std::vector<float> y1(out), gx1(in);
        for (std::size_t i = 0; i < n; ++i) {
          const float* xi = x.data() + i * in;
          const float* gi = grad_out.data() + i * out;
          kernels::dense_forward(1, in, out, xi, w.data(), b.data(),
                                 y1.data());
          single.y.insert(single.y.end(), y1.begin(), y1.end());
          kernels::dense_backward(1, in, out, xi, w.data(), gi, gx1.data(),
                                  nullptr, nullptr);
          single.gx_only.insert(single.gx_only.end(), gx1.begin(), gx1.end());
          kernels::dense_backward(1, in, out, xi, w.data(), gi, gx1.data(),
                                  single.gw.data(), single.gb.data());
          single.gx.insert(single.gx.end(), gx1.begin(), gx1.end());
        }

        ASSERT_TRUE(kernels::set_active_config(kernels::scalar_config())
                        .is_ok());
        const DenseRun scalar =
            run_dense(n, in, out, x, w, b, grad_out, gw0, gb0);
        ASSERT_TRUE(kernels::set_active_config(kernels::default_config())
                        .is_ok());

        using Want = std::pair<const char*, const DenseRun*>;
        for (const auto& [what, want] :
             {Want{"per-sample", &single}, Want{"scalar", &scalar}}) {
          EXPECT_TRUE(bitwise_equal(batched.y, want->y)) << what << " y";
          EXPECT_TRUE(bitwise_equal(batched.gx_only, want->gx_only))
              << what << " gx only";
          EXPECT_TRUE(bitwise_equal(batched.gx, want->gx)) << what << " gx";
          EXPECT_TRUE(bitwise_equal(batched.gw, want->gw)) << what << " gw";
          EXPECT_TRUE(bitwise_equal(batched.gb, want->gb)) << what << " gb";
        }
      }
    }
  }
}

// The active config is one choice: installing the scalar chain switches
// it and the reported summary, and the default brings the compiled tile
// back. The summary names the tile the CPU check picked: the widest this
// CPU runs.
TEST(KernelConfig, SetActiveSwitchesPathAndSummary) {
  const auto before = kernels::active_config();
  EXPECT_FALSE(kernels::default_config().scalar);
  const auto tiles = kernels::detail::runnable_tiles();
  ASSERT_FALSE(tiles.empty());
  EXPECT_EQ(tiles.front(), Tile::kPortable);
  EXPECT_EQ(kernels::detail::active_tile(), tiles.back());
  EXPECT_EQ(kernels::default_config().summary(),
            tiles.back() == Tile::kAvx2
                ? "avx2 mr=8 nr=8 mc=64 kc=256 nc=512"
                : "portable mr=4 nr=8 mc=64 kc=256 nc=512");
  ASSERT_TRUE(kernels::set_active_config(kernels::scalar_config()).is_ok());
  EXPECT_TRUE(kernels::active_config().scalar);
  EXPECT_EQ(kernels::active_config_summary(), "scalar");
  ASSERT_TRUE(kernels::set_active_config(kernels::default_config()).is_ok());
  EXPECT_FALSE(kernels::active_config().scalar);
  EXPECT_EQ(kernels::active_config_summary(),
            kernels::default_config().summary());
  ASSERT_TRUE(kernels::set_active_config(before).is_ok());
}

// A tile can be pinned only where the CPU runs it, and the summary follows
// the pinned tile.
TEST(KernelConfig, PinTileFollowsTheCpuCheck) {
  const auto tiles = kernels::detail::runnable_tiles();
  const Tile dispatched = kernels::detail::active_tile();
  for (const Tile tile : {Tile::kPortable, Tile::kAvx2}) {
    const bool runs = std::find(tiles.begin(), tiles.end(), tile) != tiles.end();
    EXPECT_EQ(kernels::detail::pin_tile(tile), runs)
        << kernels::detail::tile_name(tile);
    EXPECT_EQ(kernels::detail::active_tile() == tile, runs);
    if (runs) {
      EXPECT_EQ(kernels::default_config().summary().rfind(
                    kernels::detail::tile_name(tile), 0),
                0u);
    }
  }
  EXPECT_TRUE(kernels::detail::pin_tile(dispatched));
}

// The active choice may change while other threads multiply: each call
// reads it once, and either path gives the same bits.
TEST(KernelConfig, SwitchWhileOtherThreadsMultiplyKeepsBits) {
  const auto before = kernels::active_config();
  util::Rng rng(37);
  const std::size_t m = 9, n = 40, k = kernels::kKc + 20;
  const auto a = random_vec(rng, m * k);
  const auto b = random_vec(rng, k * n);
  const auto bias = random_vec(rng, n);
  kernels::GemmSpec spec;
  spec.m = m;
  spec.n = n;
  spec.k = k;
  spec.a = a.data();
  spec.lda = k;
  spec.b = b.data();
  spec.ldb = n;
  spec.ldc = n;
  spec.bias_col = bias.data();
  std::vector<float> want(m * n);
  spec.c = want.data();
  kernels::KernelScratch scratch;
  kernels::gemm(spec, kernels::scalar_config(), scratch);

  constexpr int kThreads = 3;
  std::atomic<int> running{kThreads};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, spec]() mutable {
      std::vector<float> got(m * n);
      spec.c = got.data();
      for (int i = 0; i < 100; ++i) {
        kernels::gemm(spec);
        if (!bitwise_equal(got, want)) mismatches.fetch_add(1);
      }
      running.fetch_sub(1);
    });
  }
  for (bool scalar = true; running.load() > 0; scalar = !scalar) {
    (void)kernels::set_active_config(scalar ? kernels::scalar_config()
                                            : kernels::default_config());
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  ASSERT_TRUE(kernels::set_active_config(before).is_ok());
}

TEST(KernelScratch, FootprintStableAfterWarmup) {
  util::Rng rng(23);
  const auto c = random_conv_case(rng, 16, 3, true);
  const auto grad_out = random_vec(rng, 16 * c.shape.out_ch * c.shape.l_out());
  std::vector<float> y(16 * c.shape.out_ch * c.shape.l_out());
  std::vector<float> gx(c.x.size()), gw(c.w.size()), gb(c.b.size());

  // dense1 of the paper CNN at batch 16, which stages its products.
  const std::size_t n = 16, in = 368, out = 512;
  const auto dx = random_vec(rng, n * in);
  const auto dw = random_vec(rng, out * in);
  const auto db = random_vec(rng, out);
  const auto dg = random_vec(rng, n * out);
  std::vector<float> dy(n * out), dgx(n * in), dgw(out * in), dgb(out);

  auto pass = [&] {
    kernels::conv1d_forward(c.shape, c.x.data(), c.w.data(), c.b.data(),
                            y.data());
    kernels::conv1d_backward(c.shape, c.x.data(), c.w.data(), grad_out.data(),
                             gx.data(), gw.data(), gb.data());
    kernels::dense_forward(n, in, out, dx.data(), dw.data(), db.data(),
                           dy.data());
    kernels::dense_backward(n, in, out, dx.data(), dw.data(), dg.data(),
                            dgx.data(), dgw.data(), dgb.data());
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

  // Both paths count.
  ASSERT_TRUE(kernels::set_active_config(kernels::default_config()).is_ok());
  kernels::dense_forward(8, 32, 16, x.data(), w.data(), b.data(), y.data());
  ASSERT_TRUE(kernels::set_active_config(kernels::scalar_config()).is_ok());
  kernels::dense_forward(8, 32, 16, x.data(), w.data(), b.data(), y.data());
  ASSERT_TRUE(kernels::set_active_config(before).is_ok());

  const auto snap = reg.snapshot();
  EXPECT_GE(snap.counters.at("kernels.gemm_calls"), calls0 + 2);
  EXPECT_GE(snap.histograms.at("kernels.gemm_ms").count, 2u);
}

}  // namespace
