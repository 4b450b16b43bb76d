#include "kernels/config.hpp"

#include <atomic>
#include <sstream>

namespace gea::kernels {

namespace {

std::atomic<bool> g_scalar{false};

bool cpu_runs(detail::Tile tile) {
  if (tile == detail::Tile::kPortable) return true;
#if defined(__x86_64__)
  // Safe before static constructors have run; the feature check also
  // requires that the OS saves the ymm registers.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// The tiled path's tile: the widest the CPU runs, resolved on first use.
std::atomic<detail::Tile>& tile_slot() {
  static std::atomic<detail::Tile> slot{cpu_runs(detail::Tile::kAvx2)
                                            ? detail::Tile::kAvx2
                                            : detail::Tile::kPortable};
  return slot;
}

}  // namespace

std::string KernelConfig::summary() const {
  if (scalar) return "scalar";
  const detail::Tile tile = detail::active_tile();
  std::ostringstream os;
  os << detail::tile_name(tile)
     << " mr=" << (tile == detail::Tile::kAvx2 ? kMrWide : kMr)
     << " nr=" << kNr << " mc=" << kMc << " kc=" << kKc << " nc=" << kNc;
  return os.str();
}

KernelConfig default_config() { return KernelConfig{}; }

KernelConfig scalar_config() { return KernelConfig{.scalar = true}; }

KernelConfig active_config() {
  return KernelConfig{.scalar = g_scalar.load()};
}

util::Status set_active_config(const KernelConfig& cfg) {
  g_scalar.store(cfg.scalar);
  return util::Status::ok();
}

std::string active_config_summary() { return active_config().summary(); }

namespace detail {

const char* tile_name(Tile tile) {
  return tile == Tile::kAvx2 ? "avx2" : "portable";
}

std::vector<Tile> runnable_tiles() {
  std::vector<Tile> tiles{Tile::kPortable};
  if (cpu_runs(Tile::kAvx2)) tiles.push_back(Tile::kAvx2);
  return tiles;
}

Tile active_tile() { return tile_slot().load(std::memory_order_relaxed); }

bool pin_tile(Tile tile) {
  if (!cpu_runs(tile)) return false;
  tile_slot().store(tile, std::memory_order_relaxed);
  return true;
}

}  // namespace detail

}  // namespace gea::kernels
