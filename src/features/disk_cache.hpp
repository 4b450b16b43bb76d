// DiskFeatureCache: the digest-keyed persistent tier beneath FeatureCache.
//
// One cache *segment* is a single file mapping graph digests to feature
// vectors. The 128-bit adjacency digest (graph/sweep.hpp) content-addresses
// the graph, so invalidation is free: a sample whose CFG changed simply
// stops hitting, and an entry can never be served for the wrong graph. The
// streaming corpus reader (dataset/stream.hpp) keeps one segment per shard,
// which bounds both the segment's size and the reader's resident set; a
// segment is equally usable standalone (e.g. a server-lifetime warm store).
//
// Segment layout (little-endian, net/wire discipline):
//
//   offset  size  field
//        0     4  magic               0x43414547 ("GEAC", LE)
//        4     2  version             kShardFormatVersion family (1)
//        6     2  reserved            0
//        8     8  entry count
//   then, per entry:
//        0     4  payload length      always kEntryPayloadBytes
//        4     4  payload checksum    FNV-1a 32
//        8   200  payload             u64 digest.lo | u64 digest.hi | 23 f64
//
// Durability: lookups and inserts are in-memory; flush() persists the whole
// segment atomically (temp file + rename), so a crash mid-flush leaves the
// previous segment intact and a stale temp file that the next flush simply
// overwrites. Loading quarantines damaged entries (bad CRC, short payload)
// individually and a truncated tail wholesale — a poisoned entry is
// recomputed by the caller, never returned. See ROBUSTNESS.md (dataset.*
// fault points).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "features/features.hpp"
#include "graph/sweep.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace gea::features {

inline constexpr std::uint32_t kCacheMagic = 0x43414547u;  // "GEAC" LE
inline constexpr std::uint16_t kCacheFormatVersion = 1;
inline constexpr std::size_t kCacheEntryPayloadBytes =
    16 + kNumFeatures * 8;  // digest + features

/// Quarantine accounting for one segment load.
struct DiskCacheLoadReport {
  std::size_t entries_loaded = 0;
  std::size_t entries_quarantined = 0;
  std::vector<std::string> diagnostics;
  std::size_t max_diagnostics = 8;
};

/// Thread-safe persistent digest -> FeatureVector segment. The map takes
/// one internal mutex; flush() is the only disk write.
class DiskFeatureCache {
 public:
  /// Load the segment at `path` (missing file = empty cache, not an
  /// error: a cold cache and an absent cache are the same thing). Damaged
  /// entries quarantine into `report`; in strict mode the first damaged
  /// entry fails the open instead. File-level damage (bad magic/version)
  /// also fails the open — the segment is then rebuilt from scratch by
  /// whoever owns it.
  static util::Result<DiskFeatureCache> open(std::string path,
                                             DiskCacheLoadReport* report = nullptr,
                                             bool strict = false);

  DiskFeatureCache(DiskFeatureCache&&) = default;
  DiskFeatureCache& operator=(DiskFeatureCache&&) = default;

  /// True and fills `out` on a hit.
  bool lookup(const graph::GraphDigest& key, FeatureVector& out);
  /// Insert or overwrite in memory; marks the segment dirty.
  void insert(const graph::GraphDigest& key, const FeatureVector& fv);

  std::size_t size() const;
  bool dirty() const;
  std::uint64_t hits() const { return state_->hits.value(); }
  std::uint64_t misses() const { return state_->misses.value(); }
  const std::string& path() const { return path_; }

  /// Atomically persist the segment if dirty (no-op otherwise). On error
  /// the in-memory state is unchanged and still flushable.
  util::Status flush();

 private:
  explicit DiskFeatureCache(std::string path);

  struct KeyHash {
    std::size_t operator()(const graph::GraphDigest& k) const {
      return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  // All mutable state lives behind one pointer so the cache stays movable
  // (Result<DiskFeatureCache> needs that) despite owning a mutex.
  struct State {
    mutable std::mutex mu;
    std::unordered_map<graph::GraphDigest, FeatureVector, KeyHash> map;
    bool dirty = false;
    obs::Tally hits{"features.disk.hits"};
    obs::Tally misses{"features.disk.misses"};
    obs::Counter& flushed_entries =
        obs::MetricsRegistry::global().counter("features.disk.flushed_entries");
  };

  std::string path_;
  std::unique_ptr<State> state_;
};

}  // namespace gea::features
