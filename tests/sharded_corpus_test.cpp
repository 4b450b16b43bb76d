// Sharded streaming corpus: format round-trips, bitwise parity with the
// in-memory Corpus, persistent feature tier, and the dataset.* fault
// points (torn shard writes, record bit rot, stale manifests, cache
// corruption, mid-flush crashes). Damage must quarantine with a Status —
// never crash, and never poison warm-cache results.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "dataset/sample.hpp"
#include "dataset/shard.hpp"
#include "dataset/stream.hpp"
#include "features/disk_cache.hpp"
#include "features/engine.hpp"
#include "obs/metrics.hpp"
#include "util/faultinject.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
using namespace gea;

// -Wextra flags designated initializers that omit trailing fields
// (ShardWriterOptions grew a schema member); spell the options out.
dataset::ShardWriterOptions shard_opts(std::size_t records_per_shard) {
  dataset::ShardWriterOptions o;
  o.records_per_shard = records_per_shard;
  return o;
}
using dataset::ShardRecord;
using dataset::StreamRecord;
using util::ScopedFault;

/// Fresh per-test scratch directory under the system temp root.
std::string test_dir(const std::string& name) {
  const fs::path d = fs::temp_directory_path() / ("gea_shard_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d.string();
}

/// Small corpus config: enough samples to span several shards, cheap enough
/// to featurize many times per test.
dataset::CorpusConfig small_config(std::uint64_t seed = 77) {
  dataset::CorpusConfig cfg;
  cfg.num_benign = 8;
  cfg.num_malicious = 40;
  cfg.seed = seed;
  return cfg;
}

bool bitwise_equal(const features::FeatureVector& a,
                   const features::FeatureVector& b) {
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

dataset::StreamOptions with_threads(std::size_t threads) {
  dataset::StreamOptions o;
  o.threads = threads;
  return o;
}

dataset::StreamOptions with_cache(std::string cache_dir) {
  dataset::StreamOptions o;
  o.cache_dir = std::move(cache_dir);
  return o;
}

dataset::StreamOptions strict_opts(std::string cache_dir = {}) {
  dataset::StreamOptions o;
  o.strict = true;
  o.cache_dir = std::move(cache_dir);
  return o;
}

std::vector<StreamRecord> stream_all(const dataset::ShardedCorpus& corpus,
                                     dataset::StreamReport* rep = nullptr,
                                     dataset::StreamOptions opts = {}) {
  std::vector<StreamRecord> out;
  const auto st = corpus.featurize(
      [&](const StreamRecord& r) { out.push_back(r); }, rep, opts);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  return out;
}

ShardRecord make_record(std::uint32_t id, bingen::Family family) {
  util::Rng rng(1000 + id);
  dataset::Sample s = dataset::generate_sample(id, family, rng);
  return ShardRecord{s.id, s.family, s.label, std::move(s.program)};
}

class ShardedCorpusTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::instance().reset(); }
};

// ---------------------------------------------------------------------------
// Record codec.

TEST_F(ShardedCorpusTest, RecordRoundTrip) {
  const ShardRecord rec = make_record(42, bingen::Family::kMiraiLike);
  std::vector<std::uint8_t> bytes;
  dataset::encode_record(rec, bytes);

  ShardRecord got;
  ASSERT_TRUE(dataset::decode_record(bytes, got).is_ok());
  EXPECT_EQ(got.id, rec.id);
  EXPECT_EQ(got.family, rec.family);
  EXPECT_EQ(got.label, rec.label);
  ASSERT_EQ(got.program.size(), rec.program.size());
  for (std::size_t i = 0; i < rec.program.size(); ++i) {
    EXPECT_EQ(got.program.code()[i].op, rec.program.code()[i].op);
    EXPECT_EQ(got.program.code()[i].imm, rec.program.code()[i].imm);
    EXPECT_EQ(got.program.code()[i].target, rec.program.code()[i].target);
  }
  EXPECT_EQ(got.program.functions().size(), rec.program.functions().size());
}

TEST_F(ShardedCorpusTest, DecodeRejectsTruncatedPayload) {
  const ShardRecord rec = make_record(1, bingen::Family::kBenignUtility);
  std::vector<std::uint8_t> bytes;
  dataset::encode_record(rec, bytes);
  for (std::size_t keep : {std::size_t{0}, std::size_t{5}, bytes.size() / 2,
                           bytes.size() - 1}) {
    ShardRecord got;
    const auto st = dataset::decode_record(
        std::span<const std::uint8_t>(bytes.data(), keep), got);
    EXPECT_FALSE(st.is_ok()) << "keep=" << keep;
  }
}

TEST_F(ShardedCorpusTest, DecodeRejectsOutOfRangeFields) {
  const ShardRecord rec = make_record(2, bingen::Family::kGafgytLike);
  std::vector<std::uint8_t> bytes;
  dataset::encode_record(rec, bytes);

  auto corrupted = bytes;
  corrupted[4] = 0xEE;  // family byte
  ShardRecord got;
  EXPECT_FALSE(dataset::decode_record(corrupted, got).is_ok());

  corrupted = bytes;
  corrupted[5] = 7;  // label byte
  EXPECT_FALSE(dataset::decode_record(corrupted, got).is_ok());

  corrupted = bytes;
  corrupted[10] = 0xFF;  // first instruction's opcode
  EXPECT_FALSE(dataset::decode_record(corrupted, got).is_ok());
}

TEST_F(ShardedCorpusTest, DecodeRejectsTrailingGarbage) {
  const ShardRecord rec = make_record(3, bingen::Family::kBenignDaemon);
  std::vector<std::uint8_t> bytes;
  dataset::encode_record(rec, bytes);
  bytes.push_back(0xAB);
  ShardRecord got;
  EXPECT_FALSE(dataset::decode_record(bytes, got).is_ok());
}

// ---------------------------------------------------------------------------
// Writer + manifest.

TEST_F(ShardedCorpusTest, WriterShardsAndManifest) {
  const std::string dir = test_dir("writer");
  auto w = dataset::ShardedCorpusWriter::open(dir, shard_opts(16));
  ASSERT_TRUE(w.is_ok());
  auto& writer = w.value();
  for (std::uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(writer.append(make_record(i, bingen::Family::kMiraiLike))
                    .is_ok());
  }
  ASSERT_TRUE(writer.finish().is_ok());
  ASSERT_TRUE(writer.finish().is_ok());  // idempotent

  const auto& m = writer.manifest();
  EXPECT_EQ(m.total_records, 40u);
  ASSERT_EQ(m.shards.size(), 3u);  // 16 + 16 + 8
  EXPECT_EQ(m.shards[0].records, 16u);
  EXPECT_EQ(m.shards[2].records, 8u);
  for (const auto& s : m.shards) {
    EXPECT_TRUE(fs::exists(fs::path(dir) / s.file)) << s.file;
    EXPECT_EQ(fs::file_size(fs::path(dir) / s.file), s.bytes);
  }

  auto m2 = dataset::read_manifest(dir);
  ASSERT_TRUE(m2.is_ok()) << m2.status().to_string();
  EXPECT_EQ(m2.value().total_records, 40u);
  ASSERT_EQ(m2.value().shards.size(), 3u);
  EXPECT_EQ(m2.value().shards[1].checksum, m.shards[1].checksum);
}

TEST_F(ShardedCorpusTest, ManifestChecksumCatchesBitFlip) {
  const std::string dir = test_dir("manifest_flip");
  dataset::Manifest m;
  m.total_records = 5;
  m.shards.push_back({"shard-00000.gsd", 5, 123, 0xDEAD});
  ASSERT_TRUE(dataset::write_manifest(dir, m).is_ok());

  const fs::path path = fs::path(dir) / dataset::kManifestFileName;
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(9);
  f.put(static_cast<char>(0x5A));
  f.close();

  EXPECT_FALSE(dataset::read_manifest(dir).is_ok());
}

TEST_F(ShardedCorpusTest, AbandonedWriterLeavesNoCorpus) {
  const std::string dir = test_dir("abandoned");
  auto w = dataset::ShardedCorpusWriter::open(dir, shard_opts(4));
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE(
      w.value().append(make_record(0, bingen::Family::kTsunamiLike)).is_ok());
  // No finish(): no manifest, so open() reports "no corpus here".
  EXPECT_FALSE(dataset::ShardedCorpus::open(dir).is_ok());
}

TEST_F(ShardedCorpusTest, OpenMissingDirFails) {
  const auto res =
      dataset::ShardedCorpus::open((fs::temp_directory_path() /
                                    "gea_shard_definitely_missing")
                                       .string());
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), util::ErrorCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Generation parity + streaming.

TEST_F(ShardedCorpusTest, SampleStreamMatchesCorpusGenerate) {
  const auto cfg = small_config();
  dataset::SampleStream stream(cfg);
  const auto corpus = dataset::Corpus::generate(cfg);
  ASSERT_EQ(stream.total(), corpus.size());  // nothing quarantined here
  std::size_t i = 0;
  while (!stream.done()) {
    dataset::Sample s;
    ASSERT_TRUE(stream.next(s).is_ok());
    const auto& ref = corpus.samples()[i++];
    ASSERT_EQ(s.id, ref.id);
    ASSERT_EQ(s.family, ref.family);
    ASSERT_EQ(s.label, ref.label);
    ASSERT_EQ(s.program.size(), ref.program.size());
  }
}

TEST_F(ShardedCorpusTest, StreamedMatchesInMemoryBitwise) {
  const std::string dir = test_dir("parity");
  const auto cfg = small_config();
  dataset::SyntheticWriteReport wrep;
  ASSERT_TRUE(dataset::write_synthetic_corpus(dir, cfg,
                                              shard_opts(16), &wrep)
                  .is_ok());
  EXPECT_EQ(wrep.written, cfg.num_benign + cfg.num_malicious);

  auto corpus = dataset::ShardedCorpus::open(dir);
  ASSERT_TRUE(corpus.is_ok());
  EXPECT_EQ(corpus.value().total_records(), wrep.written);

  const auto streamed = stream_all(corpus.value());
  const auto mem = dataset::Corpus::generate(cfg);
  ASSERT_EQ(streamed.size(), mem.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].id, mem.samples()[i].id);
    EXPECT_EQ(streamed[i].family, mem.samples()[i].family);
    EXPECT_EQ(streamed[i].label, mem.samples()[i].label);
    EXPECT_TRUE(bitwise_equal(streamed[i].features, mem.samples()[i].features))
        << "record " << i;
  }
}

TEST_F(ShardedCorpusTest, StreamingDeterministicAcrossThreadCounts) {
  const std::string dir = test_dir("threads");
  ASSERT_TRUE(dataset::write_synthetic_corpus(dir, small_config(),
                                              shard_opts(16))
                  .is_ok());
  auto corpus = dataset::ShardedCorpus::open(dir);
  ASSERT_TRUE(corpus.is_ok());

  const auto serial = stream_all(corpus.value(), nullptr, with_threads(1));
  const auto wide = stream_all(corpus.value(), nullptr, with_threads(3));
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].id, wide[i].id);
    EXPECT_TRUE(bitwise_equal(serial[i].features, wide[i].features));
  }
}

TEST_F(ShardedCorpusTest, EmptyCorpusStreamsNothing) {
  const std::string dir = test_dir("empty");
  dataset::CorpusConfig cfg;
  cfg.num_benign = 0;
  cfg.num_malicious = 0;
  ASSERT_TRUE(dataset::write_synthetic_corpus(dir, cfg).is_ok());
  auto corpus = dataset::ShardedCorpus::open(dir);
  ASSERT_TRUE(corpus.is_ok());
  EXPECT_EQ(corpus.value().total_records(), 0u);
  dataset::StreamReport rep;
  EXPECT_TRUE(stream_all(corpus.value(), &rep).empty());
  EXPECT_EQ(rep.records_streamed, 0u);
}

// ---------------------------------------------------------------------------
// Fault points: on-disk damage must quarantine, never crash.

TEST_F(ShardedCorpusTest, TruncatedShardQuarantinesTail) {
  const std::string dir = test_dir("truncated");
  {
    ScopedFault fault(util::faults::kShardTruncate, 0, 1);  // first seal only
    ASSERT_TRUE(dataset::write_synthetic_corpus(dir, small_config(),
                                                shard_opts(16))
                    .is_ok());
    EXPECT_EQ(fault.fired(), 1u);
  }
  auto corpus = dataset::ShardedCorpus::open(dir);
  ASSERT_TRUE(corpus.is_ok());

  // Lenient: the torn tail quarantines, everything else streams.
  dataset::StreamReport rep;
  const auto streamed = stream_all(corpus.value(), &rep);
  EXPECT_GT(rep.records_quarantined, 0u);
  EXPECT_FALSE(rep.diagnostics.empty());
  EXPECT_EQ(streamed.size() + rep.records_quarantined, 48u);

  // Strict: the same damage is a Status, not a crash.
  const auto st = corpus.value().featurize([](const StreamRecord&) {}, nullptr,
                                           strict_opts());
  EXPECT_FALSE(st.is_ok());
}

TEST_F(ShardedCorpusTest, BitFlippedRecordQuarantinesOnlyThatRecord) {
  const std::string dir = test_dir("bitflip");
  {
    // Skip 2 appends, corrupt exactly one record's payload post-checksum.
    ScopedFault fault(util::faults::kShardCorruptRecord, 2, 1);
    ASSERT_TRUE(dataset::write_synthetic_corpus(dir, small_config(),
                                                shard_opts(16))
                    .is_ok());
    EXPECT_EQ(fault.fired(), 1u);
  }
  auto corpus = dataset::ShardedCorpus::open(dir);
  ASSERT_TRUE(corpus.is_ok());

  dataset::StreamReport rep;
  const auto streamed = stream_all(corpus.value(), &rep);
  EXPECT_EQ(rep.records_quarantined, 1u);
  EXPECT_EQ(streamed.size(), 47u);

  // The survivors are still bitwise-correct against the in-memory corpus.
  const auto mem = dataset::Corpus::generate(small_config());
  std::size_t mi = 0;
  for (const auto& r : streamed) {
    while (mi < mem.size() && mem.samples()[mi].id != r.id) ++mi;
    ASSERT_LT(mi, mem.size());
    EXPECT_TRUE(bitwise_equal(r.features, mem.samples()[mi].features));
  }
}

TEST_F(ShardedCorpusTest, StaleManifestCountIsDetected) {
  const std::string dir = test_dir("stale_manifest");
  {
    ScopedFault fault(util::faults::kManifestStaleCount, 0, 1);
    ASSERT_TRUE(dataset::write_synthetic_corpus(dir, small_config(),
                                                shard_opts(16))
                    .is_ok());
    EXPECT_EQ(fault.fired(), 1u);
  }
  auto corpus = dataset::ShardedCorpus::open(dir);
  ASSERT_TRUE(corpus.is_ok());
  EXPECT_EQ(corpus.value().manifest().shards[0].records, 17u);  // the lie

  // Lenient: every actual record still streams; the drift is diagnosed.
  dataset::StreamReport rep;
  const auto streamed = stream_all(corpus.value(), &rep);
  EXPECT_EQ(streamed.size(), 48u);
  EXPECT_FALSE(rep.diagnostics.empty());

  // Strict: the mismatch is fatal.
  const auto st = corpus.value().featurize([](const StreamRecord&) {}, nullptr,
                                           strict_opts());
  EXPECT_FALSE(st.is_ok());
}

TEST_F(ShardedCorpusTest, CacheCorruptEntryIsRecomputedNeverServed) {
  const std::string dir = test_dir("cache_corrupt");
  const std::string cache_dir = (fs::path(dir) / "cache").string();
  ASSERT_TRUE(dataset::write_synthetic_corpus(dir, small_config(),
                                              shard_opts(16))
                  .is_ok());
  auto corpus = dataset::ShardedCorpus::open(dir);
  ASSERT_TRUE(corpus.is_ok());

  // Cold pass with one cache entry bit-flipped after checksumming.
  dataset::StreamReport cold;
  {
    ScopedFault fault(util::faults::kCacheCorruptEntry, 0, 1);
    stream_all(corpus.value(), &cold, with_cache(cache_dir));
    EXPECT_EQ(fault.fired(), 1u);
  }
  EXPECT_GT(cold.disk_cache_entries_written, 0u);

  // Warm pass: the poisoned entry quarantines (diagnosed) and recomputes;
  // results stay bitwise-identical to the in-memory corpus.
  dataset::StreamReport warm;
  const auto streamed =
      stream_all(corpus.value(), &warm, with_cache(cache_dir));
  EXPECT_FALSE(warm.diagnostics.empty());
  const auto mem = dataset::Corpus::generate(small_config());
  ASSERT_EQ(streamed.size(), mem.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(streamed[i].features, mem.samples()[i].features))
        << "record " << i;
  }
}

TEST_F(ShardedCorpusTest, CacheMidFlushCrashLeavesPriorSegmentIntact) {
  const std::string dir = test_dir("cache_crash");
  const std::string cache_dir = (fs::path(dir) / "cache").string();
  ASSERT_TRUE(dataset::write_synthetic_corpus(dir, small_config(),
                                              shard_opts(16))
                  .is_ok());
  auto corpus = dataset::ShardedCorpus::open(dir);
  ASSERT_TRUE(corpus.is_ok());

  // Seed good segments, then "crash" mid-flush on a re-populating pass.
  dataset::StreamReport first;
  stream_all(corpus.value(), &first, with_cache(cache_dir));
  const std::uint64_t seeded = first.disk_cache_entries_written;
  EXPECT_GT(seeded, 0u);

  // A warm pass is clean (nothing dirty), so flush never runs and the
  // armed fault proves it: zero fires.
  {
    ScopedFault fault(util::faults::kCachePartialWrite);
    dataset::StreamReport warm;
    stream_all(corpus.value(), &warm, with_cache(cache_dir));
    EXPECT_EQ(fault.fired(), 0u);
    EXPECT_EQ(warm.disk_cache_misses, 0u);
  }

  // Force re-population into a fresh cache dir with the crash armed: the
  // flush fails (lenient => diagnosed), temp files may linger, and a
  // subsequent pass over the same dir still recomputes and then persists.
  const std::string cache2 = (fs::path(dir) / "cache2").string();
  {
    ScopedFault fault(util::faults::kCachePartialWrite);
    dataset::StreamReport crashed;
    stream_all(corpus.value(), &crashed, with_cache(cache2));
    EXPECT_GT(fault.fired(), 0u);
    EXPECT_FALSE(crashed.diagnostics.empty());
    EXPECT_EQ(crashed.disk_cache_entries_written, 0u);
  }
  dataset::StreamReport redo;
  stream_all(corpus.value(), &redo, with_cache(cache2));
  EXPECT_GT(redo.disk_cache_entries_written, 0u);

  // Strict mode surfaces the crash as a Status.
  {
    ScopedFault fault(util::faults::kCachePartialWrite);
    const std::string cache3 = (fs::path(dir) / "cache3").string();
    const auto st = corpus.value().featurize(
        [](const StreamRecord&) {}, nullptr,
        strict_opts(cache3));
    EXPECT_FALSE(st.is_ok());
  }
}

TEST_F(ShardedCorpusTest, WarmCacheSkipsAllTraversals) {
  const std::string dir = test_dir("warm");
  const std::string cache_dir = (fs::path(dir) / "cache").string();
  ASSERT_TRUE(dataset::write_synthetic_corpus(dir, small_config(),
                                              shard_opts(16))
                  .is_ok());
  auto corpus = dataset::ShardedCorpus::open(dir);
  ASSERT_TRUE(corpus.is_ok());

  dataset::StreamReport cold;
  const auto a = stream_all(corpus.value(), &cold, with_cache(cache_dir));
  EXPECT_GT(cold.disk_cache_misses, 0u);

  dataset::StreamReport warm;
  const auto b = stream_all(corpus.value(), &warm, with_cache(cache_dir));
  EXPECT_EQ(warm.disk_cache_misses, 0u);  // every record cache-served
  EXPECT_GT(warm.disk_cache_hits, 0u);
  EXPECT_EQ(warm.disk_cache_entries_written, 0u);  // nothing dirty

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(a[i].features, b[i].features));
  }
}

// ---------------------------------------------------------------------------
// DiskFeatureCache unit tests.

TEST_F(ShardedCorpusTest, DiskCacheRoundTrip) {
  const std::string dir = test_dir("disk_cache");
  const std::string seg = (fs::path(dir) / "seg.gfc").string();

  auto cache = features::DiskFeatureCache::open(seg);
  ASSERT_TRUE(cache.is_ok());  // missing file == empty cache
  EXPECT_EQ(cache.value().size(), 0u);
  EXPECT_FALSE(cache.value().dirty());
  EXPECT_TRUE(cache.value().flush().is_ok());  // clean flush is a no-op
  EXPECT_FALSE(fs::exists(seg));

  features::FeatureVector fv{};
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    fv[i] = 0.5 * static_cast<double>(i);
  }
  cache.value().insert({11, 22}, fv);
  cache.value().insert({33, 44}, fv);
  EXPECT_TRUE(cache.value().dirty());
  ASSERT_TRUE(cache.value().flush().is_ok());
  EXPECT_FALSE(cache.value().dirty());
  EXPECT_TRUE(fs::exists(seg));

  auto reopened = features::DiskFeatureCache::open(seg);
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value().size(), 2u);
  features::FeatureVector got{};
  ASSERT_TRUE(reopened.value().lookup({11, 22}, got));
  EXPECT_TRUE(bitwise_equal(got, fv));
  EXPECT_FALSE(reopened.value().lookup({99, 99}, got));
}

TEST_F(ShardedCorpusTest, DiskCacheTruncatedTailQuarantines) {
  const std::string dir = test_dir("disk_cache_trunc");
  const std::string seg = (fs::path(dir) / "seg.gfc").string();
  {
    auto cache = features::DiskFeatureCache::open(seg);
    ASSERT_TRUE(cache.is_ok());
    features::FeatureVector fv{};
    for (std::uint64_t i = 0; i < 4; ++i) cache.value().insert({i, i + 1}, fv);
    ASSERT_TRUE(cache.value().flush().is_ok());
  }
  fs::resize_file(seg, fs::file_size(seg) - 13);  // tear the tail

  features::DiskCacheLoadReport rep;
  auto reopened = features::DiskFeatureCache::open(seg, &rep);
  ASSERT_TRUE(reopened.is_ok());  // lenient: survivors load
  EXPECT_GT(rep.entries_quarantined, 0u);
  EXPECT_LT(reopened.value().size(), 4u);

  // Strict refuses the damaged segment outright.
  EXPECT_FALSE(
      features::DiskFeatureCache::open(seg, nullptr, /*strict=*/true).is_ok());
}

TEST_F(ShardedCorpusTest, FeatureCacheTierPromoteAndWriteThrough) {
  const std::string dir = test_dir("tier");
  const std::string seg = (fs::path(dir) / "seg.gfc").string();
  auto tier_res = features::DiskFeatureCache::open(seg);
  ASSERT_TRUE(tier_res.is_ok());
  auto tier = std::make_shared<features::DiskFeatureCache>(
      std::move(tier_res).value());

  features::FeatureVector fv{};
  fv[features::kNumNodes] = 9.0;

  // Write-through: an insert lands in both layers.
  features::FeatureCache mem(8);
  mem.set_persistent_tier(tier);
  mem.insert({5, 6}, fv);
  EXPECT_EQ(tier->size(), 1u);

  // Promote: a fresh memory cache over the same tier answers from disk and
  // counts it as a hit; the promotion is not written back (tier unchanged).
  ASSERT_TRUE(tier->flush().is_ok());
  features::FeatureCache mem2(8);
  mem2.set_persistent_tier(tier);
  features::FeatureVector got{};
  ASSERT_TRUE(mem2.lookup({5, 6}, got));
  EXPECT_TRUE(bitwise_equal(got, fv));
  EXPECT_EQ(mem2.hits(), 1u);
  EXPECT_FALSE(tier->dirty());

  // Second lookup is a pure memory hit: tier traffic does not grow.
  const auto tier_hits = tier->hits();
  ASSERT_TRUE(mem2.lookup({5, 6}, got));
  EXPECT_EQ(tier->hits(), tier_hits);

  // Absent everywhere: a miss in both layers.
  EXPECT_FALSE(mem2.lookup({7, 8}, got));
  EXPECT_GT(tier->misses(), 0u);
}

// The memory LRU's and the disk tier's hit/miss/eviction counts are
// obs::Tally counts: over this test each equals the change in its
// "features.cache.*" or "features.disk.*" series.
TEST_F(ShardedCorpusTest, CacheCountsEqualTheirRegistryDeltas) {
#if defined(GEA_OBS_NOOP)
  GTEST_SKIP() << "GEA_OBS_NOOP build: instrumentation compiled out";
#endif
  const auto before = obs::MetricsRegistry::global().snapshot().counters;
  const std::string dir = test_dir("cache_deltas");
  auto tier_res =
      features::DiskFeatureCache::open((fs::path(dir) / "seg.gfc").string());
  ASSERT_TRUE(tier_res.is_ok());
  auto tier = std::make_shared<features::DiskFeatureCache>(
      std::move(tier_res).value());
  features::FeatureCache mem(1);
  mem.set_persistent_tier(tier);

  const features::FeatureVector fv{};
  features::FeatureVector got{};
  EXPECT_FALSE(mem.lookup({1, 1}, got));  // miss in both layers
  mem.insert({1, 1}, fv);
  EXPECT_TRUE(mem.lookup({1, 1}, got));   // memory hit
  mem.insert({2, 2}, fv);                 // evicts {1, 1}
  EXPECT_TRUE(mem.lookup({1, 1}, got));   // promoted from the tier
  ASSERT_TRUE(tier->flush().is_ok());

  const auto after = obs::MetricsRegistry::global().snapshot().counters;
  const auto delta = [&](const std::string& name) {
    const auto b = before.find(name);
    return after.at(name) - (b == before.end() ? 0 : b->second);
  };
  EXPECT_EQ(mem.hits(), 2u);
  EXPECT_EQ(mem.misses(), 1u);
  EXPECT_EQ(mem.evictions(), 2u);
  EXPECT_EQ(tier->hits(), 1u);
  EXPECT_EQ(tier->misses(), 1u);
  EXPECT_EQ(delta("features.cache.hits"), mem.hits());
  EXPECT_EQ(delta("features.cache.misses"), mem.misses());
  EXPECT_EQ(delta("features.cache.evictions"), mem.evictions());
  EXPECT_EQ(delta("features.disk.hits"), tier->hits());
  EXPECT_EQ(delta("features.disk.misses"), tier->misses());
  EXPECT_EQ(delta("features.disk.flushed_entries"), 2u);
}

}  // namespace
