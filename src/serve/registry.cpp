#include "serve/registry.hpp"

namespace gea::serve {

util::Status ModelRegistry::load(const std::string& version,
                                 const std::string& dir,
                                 const CheckpointSpec& spec, bool activate) {
  auto loaded = Checkpoint::load(dir, version, spec);
  if (!loaded.is_ok()) {
    return util::Status(loaded.status()).with_context("ModelRegistry::load");
  }
  return install(version, std::move(loaded).value(), activate);
}

util::Status ModelRegistry::install(const std::string& version,
                                    CheckpointPtr checkpoint, bool activate) {
  using util::ErrorCode;
  using util::Status;
  if (checkpoint == nullptr) {
    return Status::error(ErrorCode::kInvalidArgument, "null checkpoint")
        .with_context("ModelRegistry::install");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const bool first = versions_.empty();
  versions_[version] = checkpoint;
  if (activate || first) {
    active_ = std::move(checkpoint);
    active_version_ = version;
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  return Status::ok();
}

util::Status ModelRegistry::activate(const std::string& version) {
  using util::ErrorCode;
  using util::Status;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = versions_.find(version);
  if (it == versions_.end()) {
    return Status::error(ErrorCode::kNotFound,
                         "version '" + version + "' not installed")
        .with_context("ModelRegistry::activate");
  }
  active_ = it->second;
  active_version_ = version;
  generation_.fetch_add(1, std::memory_order_acq_rel);
  return Status::ok();
}

util::Status ModelRegistry::retire(const std::string& version) {
  using util::ErrorCode;
  using util::Status;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = versions_.find(version);
  if (it == versions_.end()) {
    return Status::error(ErrorCode::kNotFound,
                         "version '" + version + "' not installed")
        .with_context("ModelRegistry::retire");
  }
  if (version == active_version_) {
    return Status::error(ErrorCode::kFailedPrecondition,
                         "version '" + version + "' is active")
        .with_context("ModelRegistry::retire");
  }
  versions_.erase(it);
  return Status::ok();
}

CheckpointPtr ModelRegistry::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

std::string ModelRegistry::active_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_version_;
}

std::vector<std::string> ModelRegistry::versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(versions_.size());
  for (const auto& [v, _] : versions_) out.push_back(v);
  return out;
}

}  // namespace gea::serve
