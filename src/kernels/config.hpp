// Path selection for the dense-math kernel layer.
//
// kernels::gemm compiles one register tile twice over fixed cache blocks
// (kMc rows of A, kKc of the shared depth, kNc columns of B per block):
// as a kMr x kNr tile of four-lane vectors (SSE2 or NEON, every CPU), and
// on x86-64 as a kMrWide x kNr tile of eight-lane AVX2 vectors. A CPU
// check picks the widest tile the CPU runs, once, on first use; there is
// nothing to configure. A KernelConfig chooses between that tiled path
// and the portable scalar chain, which stays as the oracle tests compare
// against and as gemm_bench's scalar column. Every path runs the same
// k-ordered accumulation chains (kernels/gemm.hpp), so the choice changes
// speed, never a bit of any result. The process holds one active choice
// that every kernels::gemm call reads with one atomic load.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace gea::kernels {

/// The register tiles: kMr rows of C by kNr columns of four-lane vectors,
/// or kMrWide rows by kNr columns of eight-lane vectors. Products with
/// fewer than kMr rows take the unpacked direct path on every CPU.
inline constexpr std::size_t kMr = 4;
inline constexpr std::size_t kMrWide = 8;
inline constexpr std::size_t kNr = 8;
/// The compiled cache blocks: rows of A, shared depth, and columns of B
/// packed per block. Clamped to the problem size at run time.
inline constexpr std::size_t kMc = 64;
inline constexpr std::size_t kKc = 256;
inline constexpr std::size_t kNc = 512;
// Tile rows stop at the kMc edge: no tile straddles two row blocks.
static_assert(kMc % kMr == 0 && kMc % kMrWide == 0);

struct KernelConfig {
  /// Run the scalar chain instead of the compiled tile.
  bool scalar = false;

  /// "avx2 mr=8 nr=8 mc=64 kc=256 nc=512" (or "portable mr=4 ...") for
  /// the tile the tiled path runs, "scalar" for the scalar chain.
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

// Internal seam for the kernel tests and gemm_bench, which run every tile
// the CPU can run. Production code never pins a tile.
namespace detail {

/// The two compilations of the register tile.
enum class Tile {
  kPortable,  // kMr x kNr, four-lane vectors: every CPU
  kAvx2,      // kMrWide x kNr, eight-lane vectors: x86-64 with AVX2
};

/// "portable" or "avx2".
const char* tile_name(Tile tile);
/// The tiles this CPU can run, portable first.
std::vector<Tile> runnable_tiles();
/// The tile the tiled path runs: the widest this CPU can run, checked on
/// first use, unless pinned.
Tile active_tile();
/// Make the tiled path run `tile`. Refused (false, nothing changes) when
/// this CPU cannot run it.
bool pin_tile(Tile tile);

}  // namespace detail

}  // namespace gea::kernels
