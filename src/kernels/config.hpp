// Path selection for the dense-math kernel layer.
//
// kernels::gemm compiles exactly one register tile (kMr x kNr) over fixed
// cache blocks (kMc rows of A, kKc of the shared depth, kNc columns of B
// per block). A KernelConfig chooses between that tiled path and the
// portable scalar chain, which stays as the oracle tests compare against
// and as gemm_bench's scalar column. Every path runs the same k-ordered
// accumulation chains (kernels/gemm.hpp), so the choice changes speed,
// never a bit of any result. The process holds one active choice that
// every kernels::gemm call reads with one atomic load.
#pragma once

#include <cstddef>
#include <string>

#include "util/status.hpp"

namespace gea::kernels {

/// The compiled register tile: kMr rows of C by kNr columns.
inline constexpr std::size_t kMr = 4;
inline constexpr std::size_t kNr = 8;
/// The compiled cache blocks: rows of A, shared depth, and columns of B
/// packed per block. Clamped to the problem size at run time.
inline constexpr std::size_t kMc = 64;
inline constexpr std::size_t kKc = 256;
inline constexpr std::size_t kNc = 512;

struct KernelConfig {
  /// Run the scalar chain instead of the compiled tile.
  bool scalar = false;

  /// "mr=4 nr=8 mc=64 kc=256 nc=512" for the compiled tile, "scalar"
  /// for the scalar chain.
  std::string summary() const;
};

/// The compiled tile.
KernelConfig default_config();
/// The scalar chain.
KernelConfig scalar_config();

/// The process-wide active choice (the compiled tile unless set).
KernelConfig active_config();

/// Install `cfg` process-wide. Every KernelConfig names a compiled path,
/// so this never fails; the Status is kept for existing callers.
util::Status set_active_config(const KernelConfig& cfg);

/// summary() of the active config — what benches embed in their JSON.
std::string active_config_summary();

}  // namespace gea::kernels
