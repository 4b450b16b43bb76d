#include "kernels/config.hpp"

#include <atomic>
#include <sstream>

namespace gea::kernels {

namespace {

std::atomic<bool> g_scalar{false};

}  // namespace

std::string KernelConfig::summary() const {
  if (scalar) return "scalar";
  std::ostringstream os;
  os << "mr=" << kMr << " nr=" << kNr << " mc=" << kMc << " kc=" << kKc
     << " nc=" << kNc;
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

}  // namespace gea::kernels
