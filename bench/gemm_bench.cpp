// Dense-math kernel bench, written to BENCH_gemm.json.
//
// Measures the tiled kernels (kernels::conv1d_* / dense_* over
// kernels::gemm) against the retained seed-era loop nests
// (kernels/reference.hpp, in the test-support library) on the paper CNN's
// layer shapes — the exact forward/backward math one training step and
// one batched Model::infer spend their time in. Four timed paths per
// shape:
//
//   - reference: the seed loops — the pre-kernel baseline;
//   - tuned: the kernel layer on the register tile the CPU check picked
//     (the JSON keeps the `tuned` key names that bench/baselines and
//     tools/bench_check read; `kernel_config` names the tile);
//   - portable: the kernel layer pinned to the four-lane tile every CPU
//     runs (informational; equal to tuned where that is the picked tile);
//   - scalar: the kernel layer forced onto the scalar chain, isolating
//     how much of the win is tiling vs im2col lowering.
//
// The shapes come at serving batch 16 (forward, full backward, and the
// input gradient alone) and at batch 1, the per-sample attack step
// (forward and the input gradient alone). An input-gradient row (`_dx`)
// computes no weight or bias gradient: it is what Model::backward_input
// runs. The seed loops have no input-only backward, so a `_dx` row's
// reference time is the full seed backward: the seed's cost of dL/dx.
// Every row reports its own `speedup` (reference / tuned).
//
// The headline `tuned_speedup` (sum of reference times / sum of tuned
// times over the batch-16 forward shapes) is gated in CI by
// tools/bench_check; `train_speedup` covers the batch-16 forward and full
// backward shapes.
//
// Before timing, every shape's kernel output is checked ULP-bounded
// against the reference; a divergence aborts with exit 1 (a benchmark of
// a wrong result is worthless) and is reported as "ulp_ok": 0.
//
//   $ ./bench/gemm_bench [--smoke]
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "kernels/config.hpp"
#include "kernels/conv.hpp"
#include "kernels/reference.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace gea;

/// One paper-CNN layer op to time: a conv (k > 0) or dense (k == 0) shape,
/// forward or backward.
struct LayerCase {
  std::string label;
  kernels::Conv1DShape conv;   // conv.k > 0 => conv case; conv.n = batch
  std::size_t in = 0, out = 0; // dense case
  bool backward = false;
  bool input_only = false;     // backward without weight/bias gradients
  bool infer_shape = true;     // counted in the headline speedup
};

/// The four conv + two dense layers of the paper CNN (23-feature input),
/// forward, at batch `n`; labels carry `suffix`.
std::vector<LayerCase> paper_cnn_layers(std::size_t n,
                                        const std::string& suffix) {
  auto conv = [&](const char* label, std::size_t in_ch, std::size_t l_in,
                  std::size_t out_ch, bool same) {
    LayerCase c;
    c.label = label + suffix;
    c.conv = {n, in_ch, l_in, out_ch, 3, same};
    return c;
  };
  auto dense = [&](const char* label, std::size_t in, std::size_t out) {
    LayerCase c;
    c.label = label + suffix;
    c.in = in;
    c.out = out;
    c.conv.n = n;
    return c;
  };
  return {conv("conv1", 1, 23, 46, true),  conv("conv2", 46, 23, 46, false),
          conv("conv3", 46, 10, 92, true), conv("conv4", 92, 10, 92, false),
          dense("dense1", 368, 512),       dense("dense2", 512, 2)};
}

/// Forward, full backward and input gradient at serving batch `batch`,
/// then forward and input gradient at batch 1.
std::vector<LayerCase> paper_cnn_cases(std::size_t batch) {
  std::vector<LayerCase> cases;
  for (const LayerCase& fwd : paper_cnn_layers(batch, "")) {
    cases.push_back(fwd);
    LayerCase c = fwd;
    c.label = fwd.label + "_bwd";
    c.backward = true;
    c.infer_shape = false;
    cases.push_back(c);
    c.label = fwd.label + "_dx";
    c.input_only = true;
    cases.push_back(c);
  }
  for (LayerCase c : paper_cnn_layers(1, "_b1")) {
    c.infer_shape = false;
    cases.push_back(c);
    c.label += "_dx";
    c.backward = true;
    c.input_only = true;
    cases.push_back(c);
  }
  return cases;
}

struct CaseBuffers {
  std::vector<float> x, w, b, grad_out;
  std::vector<float> y, gx, gw, gb;
};

CaseBuffers make_buffers(const LayerCase& c, util::Rng& rng) {
  CaseBuffers buf;
  auto fill = [&](std::vector<float>& v, std::size_t n) {
    v.resize(n);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  };
  if (c.conv.k > 0) {
    fill(buf.x, c.conv.n * c.conv.in_ch * c.conv.l_in);
    fill(buf.w, c.conv.out_ch * c.conv.in_ch * c.conv.k);
    fill(buf.b, c.conv.out_ch);
    fill(buf.grad_out, c.conv.n * c.conv.out_ch * c.conv.l_out());
    buf.y.resize(buf.grad_out.size());
    buf.gx.resize(buf.x.size());
    buf.gw.resize(buf.w.size());
    buf.gb.resize(buf.b.size());
  } else {
    fill(buf.x, c.conv.n * c.in);
    fill(buf.w, c.out * c.in);
    fill(buf.b, c.out);
    fill(buf.grad_out, c.conv.n * c.out);
    buf.y.resize(buf.grad_out.size());
    buf.gx.resize(buf.x.size());
    buf.gw.resize(buf.w.size());
    buf.gb.resize(buf.b.size());
  }
  return buf;
}

/// Run one case through either the kernel layer or the seed reference.
/// An input-only case hands the kernel no parameter-gradient buffers; the
/// seed loops always compute them.
void run_case(const LayerCase& c, CaseBuffers& buf, bool reference) {
  float* gw = c.input_only ? nullptr : buf.gw.data();
  float* gb = c.input_only ? nullptr : buf.gb.data();
  if (c.conv.k > 0) {
    if (!c.backward) {
      if (reference) {
        kernels::reference::conv1d_forward(c.conv, buf.x.data(), buf.w.data(),
                                           buf.b.data(), buf.y.data());
      } else {
        kernels::conv1d_forward(c.conv, buf.x.data(), buf.w.data(),
                                buf.b.data(), buf.y.data());
      }
    } else {
      std::fill(buf.gx.begin(), buf.gx.end(), 0.0f);
      std::fill(buf.gw.begin(), buf.gw.end(), 0.0f);
      std::fill(buf.gb.begin(), buf.gb.end(), 0.0f);
      if (reference) {
        kernels::reference::conv1d_backward(c.conv, buf.x.data(), buf.w.data(),
                                            buf.grad_out.data(), buf.gx.data(),
                                            buf.gw.data(), buf.gb.data());
      } else {
        kernels::conv1d_backward(c.conv, buf.x.data(), buf.w.data(),
                                 buf.grad_out.data(), buf.gx.data(), gw, gb);
      }
    }
  } else {
    const std::size_t n = c.conv.n;
    if (!c.backward) {
      if (reference) {
        kernels::reference::dense_forward(n, c.in, c.out, buf.x.data(),
                                          buf.w.data(), buf.b.data(),
                                          buf.y.data());
      } else {
        kernels::dense_forward(n, c.in, c.out, buf.x.data(), buf.w.data(),
                               buf.b.data(), buf.y.data());
      }
    } else {
      std::fill(buf.gx.begin(), buf.gx.end(), 0.0f);
      std::fill(buf.gw.begin(), buf.gw.end(), 0.0f);
      std::fill(buf.gb.begin(), buf.gb.end(), 0.0f);
      if (reference) {
        kernels::reference::dense_backward(n, c.in, c.out, buf.x.data(),
                                           buf.w.data(), buf.grad_out.data(),
                                           buf.gx.data(), buf.gw.data(),
                                           buf.gb.data());
      } else {
        kernels::dense_backward(n, c.in, c.out, buf.x.data(), buf.w.data(),
                                buf.grad_out.data(), buf.gx.data(), gw, gb);
      }
    }
  }
}

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

bool close_enough(const std::vector<float>& a, const std::vector<float>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ulp_diff(a[i], b[i]) > 256 && std::fabs(a[i] - b[i]) > 1e-3f) {
      return false;
    }
  }
  return true;
}

/// ULP gate: kernel outputs vs the seed loops on this case's buffers.
bool case_matches_reference(const LayerCase& c, CaseBuffers& buf) {
  run_case(c, buf, /*reference=*/false);
  CaseBuffers want = buf;
  run_case(c, want, /*reference=*/true);
  if (!c.backward) return close_enough(buf.y, want.y);
  if (c.input_only) return close_enough(buf.gx, want.gx);
  return close_enough(buf.gx, want.gx) && close_enough(buf.gw, want.gw) &&
         close_enough(buf.gb, want.gb);
}

/// Best-of-N wall time for `iters` runs of one case.
double best_of(int reps, int iters, const LayerCase& c, CaseBuffers& buf,
               bool reference) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch sw;
    for (int i = 0; i < iters; ++i) run_case(c, buf, reference);
    const double ms = sw.elapsed_ms();
    best = r == 0 ? ms : std::min(best, ms);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int reps = smoke ? 3 : 5;
  const int iters = smoke ? 40 : 200;
  const std::size_t batch = 16;

  std::printf("gemm bench: paper CNN layer shapes, batch %zu%s\n", batch,
              smoke ? " [smoke]" : "");

  const auto tiled = kernels::default_config();
  const auto scalar = kernels::scalar_config();
  std::printf("kernel: %s\n", tiled.summary().c_str());

  auto cases = paper_cnn_cases(batch);
  util::Rng rng(20260809);

  // Correctness gate before any timing.
  std::vector<CaseBuffers> buffers;
  buffers.reserve(cases.size());
  bool ulp_ok = true;
  for (const auto& c : cases) {
    buffers.push_back(make_buffers(c, rng));
    if (!case_matches_reference(c, buffers.back())) {
      std::fprintf(stderr,
                   "gemm bench: kernel diverges from seed reference on %s — "
                   "refusing to time a wrong result\n",
                   c.label.c_str());
      ulp_ok = false;
    }
  }
  if (!ulp_ok) {
    std::ofstream out("BENCH_gemm.json");
    out << "{\n  \"benchmark\": \"gemm\",\n  \"ulp_ok\": 0\n}\n";
    return 1;
  }

  struct Row {
    std::string label;
    std::size_t batch;
    double ref_ms, tuned_ms, portable_ms, scalar_ms;
    bool infer_shape;
    double speedup() const { return tuned_ms > 0 ? ref_ms / tuned_ms : 0.0; }
  };
  std::vector<Row> rows;
  double infer_ref_ms = 0.0, infer_tuned_ms = 0.0;
  double total_ref_ms = 0.0, total_tuned_ms = 0.0;

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    auto& buf = buffers[i];
    Row row;
    row.label = c.label;
    row.batch = c.conv.n;
    row.infer_shape = c.infer_shape;
    // Batch-1 cases repeat batch/1 times as often, so every row times
    // about the same amount of work.
    const int case_iters = iters * static_cast<int>(batch / row.batch);
    row.ref_ms = best_of(reps, case_iters, c, buf, /*reference=*/true);
    row.tuned_ms = best_of(reps, case_iters, c, buf, /*reference=*/false);
    const auto active_tile = kernels::detail::active_tile();
    (void)kernels::detail::pin_tile(kernels::detail::Tile::kPortable);
    row.portable_ms = best_of(reps, case_iters, c, buf, /*reference=*/false);
    (void)kernels::detail::pin_tile(active_tile);
    (void)kernels::set_active_config(scalar);
    row.scalar_ms = best_of(reps, case_iters, c, buf, /*reference=*/false);
    (void)kernels::set_active_config(tiled);
    rows.push_back(row);
    if (row.batch == batch && !c.input_only) {
      total_ref_ms += row.ref_ms;
      total_tuned_ms += row.tuned_ms;
    }
    if (c.infer_shape) {
      infer_ref_ms += row.ref_ms;
      infer_tuned_ms += row.tuned_ms;
    }
    std::printf("%-13s ref %8.3f ms  tiled %8.3f ms (%5.2fx)  portable "
                "%8.3f ms  scalar %8.3f ms (%5.2fx)\n",
                row.label.c_str(), row.ref_ms, row.tuned_ms, row.speedup(),
                row.portable_ms, row.scalar_ms,
                row.scalar_ms > 0 ? row.ref_ms / row.scalar_ms : 0.0);
  }

  const double tuned_speedup =
      infer_tuned_ms > 0.0 ? infer_ref_ms / infer_tuned_ms : 0.0;
  const double train_speedup =
      total_tuned_ms > 0.0 ? total_ref_ms / total_tuned_ms : 0.0;
  std::printf("batched-inference speedup (tiled vs seed): %.2fx\n",
              tuned_speedup);
  std::printf("batch-%zu speedup (fwd+bwd):                %.2fx\n", batch,
              train_speedup);

  std::ofstream out("BENCH_gemm.json");
  out << "{\n  \"benchmark\": \"gemm\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"batch\": " << batch << ",\n"
      << "  \"ulp_ok\": 1,\n"
      << "  \"kernel_config\": \"" << tiled.summary() << "\",\n"
      << "  \"shapes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"label\": \"" << r.label << "\", \"batch\": " << r.batch
        << ", \"reference_ms\": " << r.ref_ms << ", \"tuned_ms\": "
        << r.tuned_ms << ", \"portable_ms\": " << r.portable_ms
        << ", \"scalar_ms\": " << r.scalar_ms
        << ", \"speedup\": " << r.speedup() << ", \"infer_shape\": "
        << (r.infer_shape ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"tuned_speedup\": " << tuned_speedup << ",\n"
      << "  \"train_speedup\": " << train_speedup << "\n}\n";
  std::cout << "wrote BENCH_gemm.json\n";
  return 0;
}
