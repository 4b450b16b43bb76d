// Versioned model registry with atomic hot-swap.
//
// The registry maps version strings to immutable Checkpoints and marks one
// of them active. Activation is a shared_ptr swap under a mutex: readers
// (server workers) copy the pointer, so an in-flight batch keeps whatever
// checkpoint it started with while new batches pick up the replacement —
// no torn state, no barrier on the request path. Every worker runs the
// active checkpoint's one model, so a swap copies no model. A monotonically
// increasing generation counter counts activations (the admin plane's
// /readyz renders it).
//
// Loading goes through Checkpoint::load (Status-returning, all-or-nothing),
// so a corrupt checkpoint on disk fails the install and leaves both the
// version map and the active pointer exactly as they were: the server keeps
// serving the old model.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/checkpoint.hpp"
#include "util/status.hpp"

namespace gea::serve {

class ModelRegistry {
 public:
  /// Load `dir` as `version` and install it; activates it too when
  /// `activate` is set (the default) or when the registry is empty.
  /// On any load error the registry is unchanged.
  util::Status load(const std::string& version, const std::string& dir,
                    const CheckpointSpec& spec = {}, bool activate = true);

  /// Install an already-loaded checkpoint under `version` (replacing any
  /// previous checkpoint of that version).
  util::Status install(const std::string& version, CheckpointPtr checkpoint,
                       bool activate = true);

  /// Make `version` the active checkpoint. kNotFound if never installed.
  util::Status activate(const std::string& version);

  /// Drop a non-active version from the map (in-flight batches holding its
  /// shared_ptr finish safely). kFailedPrecondition for the version
  /// active_version() names, even when a later install() staged a new
  /// checkpoint under that name without activating it.
  util::Status retire(const std::string& version);

  /// Current active checkpoint; null until the first activation.
  CheckpointPtr active() const;
  /// The name the active checkpoint was installed or activated under ("" until
  /// the first activation).
  std::string active_version() const;

  /// Bumped on every activation.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  std::vector<std::string> versions() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, CheckpointPtr> versions_;
  CheckpointPtr active_;
  std::string active_version_;
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace gea::serve
