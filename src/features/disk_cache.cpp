#include "features/disk_cache.hpp"

#include <filesystem>
#include <fstream>
#include <utility>

#include "net/frame.hpp"  // checksum32
#include "net/wire.hpp"
#include "util/faultinject.hpp"

namespace gea::features {

namespace fs = std::filesystem;
using util::ErrorCode;
using util::Status;

DiskFeatureCache::DiskFeatureCache(std::string path)
    : path_(std::move(path)), state_(std::make_unique<State>()) {}

util::Result<DiskFeatureCache> DiskFeatureCache::open(
    std::string path, DiskCacheLoadReport* report, bool strict) {
  DiskFeatureCache cache(std::move(path));
  DiskCacheLoadReport local;
  DiskCacheLoadReport& rep = report != nullptr ? *report : local;

  std::ifstream in(cache.path_, std::ios::binary | std::ios::ate);
  if (!in) return cache;  // absent segment == cold cache

  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::uint8_t> data(size);
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(data.data()),
               static_cast<std::streamsize>(size))) {
    return Status::error(ErrorCode::kParseError, "short read on " + cache.path_)
        .with_context("DiskFeatureCache::open");
  }

  auto diag = [&](const std::string& msg) {
    if (rep.diagnostics.size() < rep.max_diagnostics) {
      rep.diagnostics.push_back(cache.path_ + ": " + msg);
    }
  };

  net::wire::Reader header(std::span<const std::uint8_t>(
      data.data(), std::min<std::size_t>(data.size(), 16)));
  const std::uint32_t magic = header.get_u32();
  const std::uint16_t version = header.get_u16();
  header.get_u16();  // reserved
  const std::uint64_t declared = header.get_u64();
  if (!header.ok() || magic != kCacheMagic) {
    return Status::error(ErrorCode::kParseError, "bad cache segment magic")
        .with_context("DiskFeatureCache::open " + cache.path_);
  }
  if (version != kCacheFormatVersion) {
    return Status::error(ErrorCode::kParseError,
                         "cache segment version " + std::to_string(version) +
                             " unsupported")
        .with_context("DiskFeatureCache::open " + cache.path_);
  }

  // Entry loop, same recovery taxonomy as shard records: a bad CRC or short
  // payload quarantines one entry; broken framing quarantines the tail. A
  // quarantined entry is simply a future miss — the caller recomputes.
  std::size_t pos = 16;
  std::uint64_t seen = 0;
  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      diag("truncated entry header at offset " + std::to_string(pos));
      break;
    }
    net::wire::Reader fr(std::span<const std::uint8_t>(data.data() + pos, 8));
    const std::uint32_t len = fr.get_u32();
    const std::uint32_t crc = fr.get_u32();
    if (len != kCacheEntryPayloadBytes) {
      diag("entry with bad length " + std::to_string(len) + " at offset " +
           std::to_string(pos));
      break;  // fixed-size framing is broken; stop trusting offsets
    }
    if (data.size() - pos - 8 < len) {
      diag("truncated entry payload at offset " + std::to_string(pos));
      break;
    }
    const std::span<const std::uint8_t> payload(data.data() + pos + 8, len);
    pos += 8 + len;
    ++seen;

    if (net::checksum32(payload) != crc) {
      ++rep.entries_quarantined;
      diag("entry " + std::to_string(seen - 1) + " checksum mismatch");
      if (strict) {
        return Status::error(ErrorCode::kCorruptData,
                             "entry " + std::to_string(seen - 1) +
                                 " checksum mismatch")
            .with_context("DiskFeatureCache::open " + cache.path_);
      }
      continue;
    }
    net::wire::Reader er(payload);
    graph::GraphDigest key;
    key.lo = er.get_u64();
    key.hi = er.get_u64();
    FeatureVector fv{};
    for (auto& x : fv) x = er.get_f64();
    cache.state_->map[key] = fv;
    ++rep.entries_loaded;
  }
  if (seen != declared) {
    const std::uint64_t lost = declared > seen ? declared - seen : 0;
    rep.entries_quarantined += static_cast<std::size_t>(lost);
    diag("header declares " + std::to_string(declared) + " entries, found " +
         std::to_string(seen));
    if (strict) {
      return Status::error(ErrorCode::kCorruptData,
                           "cache segment truncated: " + std::to_string(seen) +
                               "/" + std::to_string(declared) +
                               " entries present")
          .with_context("DiskFeatureCache::open " + cache.path_);
    }
  }
  return cache;
}

bool DiskFeatureCache::lookup(const graph::GraphDigest& key,
                              FeatureVector& out) {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->map.find(key);
  if (it == state_->map.end()) {
    state_->misses.inc();
    return false;
  }
  out = it->second;
  state_->hits.inc();
  return true;
}

void DiskFeatureCache::insert(const graph::GraphDigest& key,
                              const FeatureVector& fv) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->map[key] = fv;
  state_->dirty = true;
}

std::size_t DiskFeatureCache::size() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->map.size();
}

bool DiskFeatureCache::dirty() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->dirty;
}

util::Status DiskFeatureCache::flush() {
  std::lock_guard<std::mutex> lock(state_->mu);
  if (!state_->dirty) return Status::ok();

  std::vector<std::uint8_t> bytes;
  bytes.reserve(16 + state_->map.size() * (8 + kCacheEntryPayloadBytes));
  net::wire::Writer w(bytes);
  w.put_u32(kCacheMagic);
  w.put_u16(kCacheFormatVersion);
  w.put_u16(0);
  w.put_u64(state_->map.size());
  std::vector<std::uint8_t> payload;
  for (const auto& [key, fv] : state_->map) {
    payload.clear();
    net::wire::Writer pw(payload);
    pw.put_u64(key.lo);
    pw.put_u64(key.hi);
    for (double x : fv) pw.put_f64(x);
    const std::uint32_t crc = net::checksum32(payload);
    if (util::fault(util::faults::kCacheCorruptEntry)) {
      // Bit rot after checksumming: the next open must quarantine this
      // entry and the caller must recompute — never serve it.
      payload[payload.size() / 2] ^= 0x10;
    }
    w.put_u32(static_cast<std::uint32_t>(payload.size()));
    w.put_u32(crc);
    bytes.insert(bytes.end(), payload.begin(), payload.end());
  }

  const std::string tmp = path_ + ".tmp";
  const bool die_mid_write = util::fault(util::faults::kCachePartialWrite);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::error(ErrorCode::kUnavailable, "cannot open " + tmp)
          .with_context("DiskFeatureCache::flush");
    }
    // Simulated crash mid-write: half the bytes reach the temp file and the
    // rename below never happens. The previous segment must stay intact and
    // the stale temp file must be ignored (the next flush overwrites it).
    const std::size_t n = die_mid_write ? bytes.size() / 2 : bytes.size();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(n));
    if (!out) {
      return Status::error(ErrorCode::kUnavailable, "write failed on " + tmp)
          .with_context("DiskFeatureCache::flush");
    }
  }
  if (die_mid_write) {
    return Status::error(ErrorCode::kUnavailable,
                         "simulated crash mid-flush (partial temp file)")
        .with_context("DiskFeatureCache::flush " + path_);
  }
  std::error_code ec;
  fs::rename(tmp, path_, ec);
  if (ec) {
    return Status::error(ErrorCode::kUnavailable,
                         "rename " + tmp + ": " + ec.message())
        .with_context("DiskFeatureCache::flush");
  }
  state_->flushed_entries.inc(state_->map.size());
  state_->dirty = false;
  return Status::ok();
}

}  // namespace gea::features
