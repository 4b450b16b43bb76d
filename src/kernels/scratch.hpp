// Grow-only, thread-local scratch for the kernel layer.
//
// Every buffer the GEMM/conv path needs between calls — packed B panels
// (A is read in place), the materialized im2col matrix, the gradient
// column buffer, and the staging buffer for a batch's conv output or
// output gradient, or a dense product computed transposed — lives here
// instead of being allocated per call.
// Buffers only ever grow (same discipline as features::FeatureEngine), so
// after one warm-up call per shape the steady-state forward/backward path
// performs zero allocations; tests assert footprint stability.
#pragma once

#include <cstddef>
#include <vector>

namespace gea::kernels {

class KernelScratch {
 public:
  /// Grow-only view: returns a pointer to at least `n` floats. Contents
  /// are unspecified — kernels overwrite what they read.
  float* pack_b(std::size_t n) { return ensure(pack_b_, n); }
  float* col(std::size_t n) { return ensure(col_, n); }
  float* dcol(std::size_t n) { return ensure(dcol_, n); }
  float* cbuf(std::size_t n) { return ensure(cbuf_, n); }

  /// Total bytes currently reserved — the number a footprint-stability
  /// test watches across repeated same-shape calls.
  std::size_t footprint_bytes() const {
    return (pack_b_.capacity() + col_.capacity() + dcol_.capacity() +
            cbuf_.capacity()) *
           sizeof(float);
  }

  /// The calling thread's scratch. Each thread owns one arena, so parallel
  /// trainers/servers never contend or share panels.
  static KernelScratch& tls();

 private:
  float* ensure(std::vector<float>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
    return v.data();
  }

  std::vector<float> pack_b_;
  std::vector<float> col_;
  std::vector<float> dcol_;
  std::vector<float> cbuf_;
};

}  // namespace gea::kernels
