// Label-schema refactor test suite (`ctest -L family`): LabelSchema
// round-trips, the family/binary relabeling contract, K×K confusion
// properties (including the K=2 bitwise-compatibility shim), strict CSV
// label parsing, schema-carrying shards and checkpoints, v1/v2 detect
// payload interop, the hierarchical detect-then-classify head, and the
// targeted GEA source→predicted matrix.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "bingen/families.hpp"
#include "dataset/corpus.hpp"
#include "dataset/io.hpp"
#include "dataset/labels.hpp"
#include "dataset/shard.hpp"
#include "features/scaler.hpp"
#include "gea/harness.hpp"
#include "ml/label_schema.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "ml/zoo.hpp"
#include "net/frame.hpp"
#include "net/wire.hpp"
#include "serve/checkpoint.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
using namespace gea;

// -Wextra flags designated initializers that omit trailing fields
// (CsvReadOptions grew a schema member); spell the options out instead.
dataset::CsvReadOptions csv_opts(bool strict) {
  dataset::CsvReadOptions o;
  o.strict = strict;
  return o;
}

/// This process's temp root. ctest runs each test as its own concurrent
/// process, so the root carries the pid: tests that share a directory name
/// would otherwise remove each other's files mid-run.
const fs::path& process_temp_root() {
  static const fs::path root =
      fs::temp_directory_path() / ("gea_family_" + std::to_string(::getpid()));
  return root;
}

/// Removes the temp root once every test of the process has run.
class RemoveProcessTempRoot : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(process_temp_root(), ec);
  }
};

const ::testing::Environment* const kRemoveTempRoot =
    ::testing::AddGlobalTestEnvironment(new RemoveProcessTempRoot);

/// A fresh, empty directory under this process's temp root.
std::string test_dir(const std::string& name) {
  const fs::path d = process_temp_root() / name;
  fs::remove_all(d);
  fs::create_directories(d);
  return d.string();
}

dataset::CorpusConfig tiny_config(std::uint64_t seed = 7) {
  dataset::CorpusConfig cfg;
  cfg.num_benign = 6;
  cfg.num_malicious = 18;
  cfg.seed = seed;
  return cfg;
}

// --- LabelSchema -----------------------------------------------------------

TEST(LabelSchema, DefaultIsBinary) {
  ml::LabelSchema schema;
  EXPECT_EQ(schema.num_classes(), 2u);
  EXPECT_TRUE(schema.is_binary());
  EXPECT_EQ(schema.name(0), "benign");
  EXPECT_EQ(schema.name(1), "malicious");
  EXPECT_EQ(schema.benign_class(), 0u);
  EXPECT_EQ(schema, ml::LabelSchema::binary());
  EXPECT_EQ(schema.digest(), ml::LabelSchema::binary().digest());
}

TEST(LabelSchema, FamilySchemaRoundTrips) {
  const auto schema = dataset::family_label_schema();
  EXPECT_GE(schema.num_classes(), 4u);
  EXPECT_FALSE(schema.is_binary());
  auto back = ml::LabelSchema::deserialize(schema.serialize());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), schema);
  EXPECT_EQ(back.value().digest(), schema.digest());
  EXPECT_NE(schema.digest(), ml::LabelSchema::binary().digest());
}

TEST(LabelSchema, MakeRejectsBadInputs) {
  EXPECT_FALSE(ml::LabelSchema::make({"only"}, 0).is_ok());
  EXPECT_FALSE(ml::LabelSchema::make({"a", "a"}, 0).is_ok());
  EXPECT_FALSE(ml::LabelSchema::make({"a", "b"}, 2).is_ok());
  EXPECT_FALSE(ml::LabelSchema::make({"a", "b,c"}, 0).is_ok());
  EXPECT_FALSE(ml::LabelSchema::make({"a", ""}, 0).is_ok());
  EXPECT_FALSE(ml::LabelSchema::make({"a", "b|c"}, 0).is_ok());
}

TEST(LabelSchema, DeserializeRejectsDamage) {
  EXPECT_FALSE(ml::LabelSchema::deserialize("").is_ok());
  EXPECT_FALSE(ml::LabelSchema::deserialize("not-a-schema").is_ok());
  EXPECT_FALSE(
      ml::LabelSchema::deserialize("gea-schema-v1|benign=9|a,b").is_ok());
  EXPECT_FALSE(ml::LabelSchema::deserialize("gea-schema-v1|benign=0|a").is_ok());
}

TEST(LabelSchema, MaliciousIndexMapsBothWays) {
  const auto schema = dataset::family_label_schema();
  for (std::size_t i = 0; i + 1 < schema.num_classes(); ++i) {
    const std::size_t k = schema.malicious_class(i);
    EXPECT_FALSE(schema.is_benign(k));
    EXPECT_EQ(schema.malicious_index(k), i);
  }
  EXPECT_TRUE(schema.valid_label(schema.num_classes() - 1));
  EXPECT_FALSE(schema.valid_label(schema.num_classes()));
}

// --- class_for_family / relabel_corpus -------------------------------------

TEST(ClassForFamily, BinaryCollapsesToPaperLabels) {
  const auto schema = dataset::binary_label_schema();
  for (bingen::Family f : bingen::all_families()) {
    auto cls = dataset::class_for_family(schema, f);
    ASSERT_TRUE(cls.is_ok());
    EXPECT_EQ(cls.value(), bingen::is_malicious(f) ? 1 : 0);
  }
}

TEST(ClassForFamily, FamilySchemaMatchesByName) {
  const auto schema = dataset::family_label_schema();
  for (bingen::Family f : bingen::all_families()) {
    auto cls = dataset::class_for_family(schema, f);
    ASSERT_TRUE(cls.is_ok());
    if (bingen::is_malicious(f)) {
      EXPECT_EQ(schema.name(cls.value()), bingen::family_name(f));
    } else {
      EXPECT_EQ(cls.value(), schema.benign_class());
    }
  }
}

TEST(ClassForFamily, RelabelBinaryIsIdentity) {
  auto corpus = dataset::Corpus::generate(tiny_config());
  const auto before = corpus.labels();
  ASSERT_TRUE(
      dataset::relabel_corpus(corpus, dataset::binary_label_schema()).is_ok());
  EXPECT_EQ(corpus.labels(), before);
}

TEST(ClassForFamily, RelabelFamilyThenBinaryRestoresLabels) {
  auto corpus = dataset::Corpus::generate(tiny_config());
  const auto schema = dataset::family_label_schema();
  const auto before = corpus.labels();
  ASSERT_TRUE(dataset::relabel_corpus(corpus, schema).is_ok());
  for (const auto& s : corpus.samples()) {
    EXPECT_TRUE(schema.valid_label(s.label));
    EXPECT_EQ(schema.is_benign(s.label), !bingen::is_malicious(s.family));
  }
  ASSERT_TRUE(
      dataset::relabel_corpus(corpus, dataset::binary_label_schema()).is_ok());
  EXPECT_EQ(corpus.labels(), before);
}

// --- MultiConfusion --------------------------------------------------------

std::vector<std::uint8_t> random_labels(std::size_t n, std::size_t k,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& v : out) {
    v = static_cast<std::uint8_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
  }
  return out;
}

TEST(MultiConfusion, RowAndColumnSumsPartitionTotal) {
  const std::size_t k = 4;
  const auto actual = random_labels(97, k, 1);
  const auto predicted = random_labels(97, k, 2);
  const auto m = ml::confusion_k(k, predicted, actual);
  EXPECT_EQ(m.total(), 97u);
  std::size_t rows = 0, cols = 0, diag = 0;
  for (std::size_t c = 0; c < k; ++c) {
    rows += m.row_sum(c);
    cols += m.col_sum(c);
    diag += m.at(c, c);
    std::size_t support = 0;
    for (auto v : actual) support += (v == c) ? 1 : 0;
    EXPECT_EQ(m.row_sum(c), support);
  }
  EXPECT_EQ(rows, m.total());
  EXPECT_EQ(cols, m.total());
  EXPECT_EQ(diag, m.diagonal());
}

// The paper's binary confusion struct as the seed defined it (1 = malicious
// = positive, any other label benign), kept as the oracle every K=2 rate
// must reproduce bit for bit.
struct SeedBinaryConfusion {
  std::size_t tp = 0, tn = 0, fp = 0, fn = 0;

  SeedBinaryConfusion(const std::vector<std::uint8_t>& predicted,
                      const std::vector<std::uint8_t>& actual) {
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      const bool pred_mal = predicted[i] == 1;
      const bool is_mal = actual[i] == 1;
      if (pred_mal && is_mal) ++tp;
      else if (!pred_mal && !is_mal) ++tn;
      else if (pred_mal && !is_mal) ++fp;
      else ++fn;
    }
  }
  static double rate(std::size_t num, std::size_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  }
  double accuracy() const { return rate(tp + tn, tp + tn + fp + fn); }
  double fnr() const { return rate(fn, fn + tp); }
  double fpr() const { return rate(fp, fp + tn); }
  double precision() const { return rate(tp, tp + fp); }
  double recall() const { return rate(tp, tp + fn); }
  double f1() const {
    const double p = precision(), r = recall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
};

TEST(MultiConfusion, K2BinaryViewIsBitwiseEqual) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::uint64_t seed : {3u, 5u, 7u}) {
    const auto actual = random_labels(211, 2, seed);
    const auto predicted = random_labels(211, 2, seed + 1);
    const SeedBinaryConfusion binary(predicted, actual);
    const auto multi = ml::confusion_k(2, predicted, actual);
    EXPECT_EQ(multi.at(1, 1), binary.tp);
    EXPECT_EQ(multi.at(0, 0), binary.tn);
    EXPECT_EQ(multi.at(0, 1), binary.fp);
    EXPECT_EQ(multi.at(1, 0), binary.fn);
    // Bitwise on the derived rates: same integers, same single division.
    EXPECT_EQ(bits(multi.accuracy()), bits(binary.accuracy()));
    EXPECT_EQ(bits(multi.fnr(1)), bits(binary.fnr()));
    EXPECT_EQ(bits(multi.fpr(1)), bits(binary.fpr()));
    EXPECT_EQ(bits(multi.precision(1)), bits(binary.precision()));
    EXPECT_EQ(bits(multi.recall(1)), bits(binary.recall()));
    EXPECT_EQ(bits(multi.f1(1)), bits(binary.f1()));
  }
}

TEST(MultiConfusion, OneVsRestRatesOverK) {
  auto m = ml::MultiConfusion(3);
  m.at(0, 0) = 5;
  m.at(0, 2) = 1;
  m.at(1, 1) = 3;
  m.at(1, 0) = 2;
  m.at(2, 2) = 4;
  m.at(2, 0) = 1;
  // Class 0 misses 1 of its 6 samples (predicted 2); its false alarms are
  // the 2 + 1 samples of rows 1 and 2 predicted 0, over their 10 samples.
  EXPECT_DOUBLE_EQ(m.fnr(0), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(m.fpr(0), 3.0 / 10.0);
  EXPECT_DOUBLE_EQ(m.fnr(1), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(m.fpr(1), 0.0);
  EXPECT_DOUBLE_EQ(m.fnr(2), 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(m.fpr(2), 1.0 / 11.0);
  EXPECT_EQ(ml::MultiConfusion(3).fpr(1), 0.0);  // empty rows
}

TEST(MultiConfusion, MacroF1IsUnweightedMean) {
  auto m = ml::MultiConfusion(3);
  m.at(0, 0) = 5;
  m.at(1, 1) = 3;
  m.at(1, 0) = 1;
  m.at(2, 2) = 2;
  const double mean = (m.f1(0) + m.f1(1) + m.f1(2)) / 3.0;
  EXPECT_DOUBLE_EQ(m.macro_f1(), mean);
}

TEST(MultiConfusion, TallyRejectsOutOfRangeLabels) {
  EXPECT_THROW(ml::confusion_k(2, {0, 2}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(ml::confusion_k(2, {0}, {0, 1}), std::invalid_argument);
}

// --- CSV strict label parsing ----------------------------------------------

std::string csv_header() {
  std::string h = "id,family,label";
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    h += ",";
    h += features::feature_name(i);
  }
  return h;
}

std::string csv_row(const std::string& label) {
  std::string row = "1,mirai-like," + label;
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) row += ",1.5";
  return row;
}

std::string write_csv(const std::vector<std::string>& labels) {
  const auto dir = test_dir("csv");
  const auto path = dir + "/features.csv";
  std::ofstream out(path);
  out << csv_header() << "\n";
  for (const auto& l : labels) out << csv_row(l) << "\n";
  return path;
}

TEST(CsvLabels, AcceptsBareIntegersInSchema) {
  const auto path = write_csv({"0", "1"});
  auto res = dataset::read_features_csv_checked(path, csv_opts(true));
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  EXPECT_EQ(res.value().labels, (std::vector<std::uint8_t>{0, 1}));
}

TEST(CsvLabels, RejectsFloatLookalikesTheOldParserCoerced) {
  // Every one of these parsed as 1.0 or 0.0 through strtod; the strict
  // integer rule quarantines each with a diagnostic naming the rule.
  const auto path = write_csv({"1.0", "0e0", "+1", " 1", "0x1", ""});
  auto res = dataset::read_features_csv_checked(path, {});
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  EXPECT_EQ(res.value().report.rows_quarantined, 6u);
  EXPECT_EQ(res.value().report.rows_loaded, 0u);
  ASSERT_FALSE(res.value().report.diagnostics.empty());
  EXPECT_NE(res.value().report.diagnostics[0].find("bare integer"),
            std::string::npos);
  // Strict mode: first bad label is fatal.
  auto strict = dataset::read_features_csv_checked(path, csv_opts(true));
  EXPECT_FALSE(strict.is_ok());
}

TEST(CsvLabels, ValidatesAgainstSchemaWidth) {
  const auto path = write_csv({"0", "1", "2", "3", "4"});
  auto binary = dataset::read_features_csv_checked(path, {});
  ASSERT_TRUE(binary.is_ok());
  EXPECT_EQ(binary.value().report.rows_loaded, 2u);  // 0, 1
  EXPECT_EQ(binary.value().report.rows_quarantined, 3u);

  dataset::CsvReadOptions fopts;
  fopts.schema = dataset::family_label_schema();
  auto family = dataset::read_features_csv_checked(path, fopts);
  ASSERT_TRUE(family.is_ok());
  EXPECT_EQ(family.value().report.rows_loaded, 4u);  // 0..3
  EXPECT_EQ(family.value().report.rows_quarantined, 1u);
}

TEST(CsvLabels, FamilyWriteReadRoundTrips) {
  auto corpus = dataset::Corpus::generate(tiny_config());
  const auto schema = dataset::family_label_schema();
  const auto dir = test_dir("csv_roundtrip");
  const auto path = dir + "/features.csv";
  dataset::write_features_csv(corpus, path, schema);
  dataset::CsvReadOptions opts;
  opts.schema = schema;
  opts.strict = true;
  auto res = dataset::read_features_csv_checked(path, opts);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  ASSERT_EQ(res.value().labels.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    auto cls = dataset::class_for_family(schema, corpus.samples()[i].family);
    ASSERT_TRUE(cls.is_ok());
    EXPECT_EQ(res.value().labels[i], cls.value());
  }
}

// --- Shard format v2 -------------------------------------------------------

dataset::ShardRecord family_record(std::uint32_t id, bingen::Family family,
                                   std::uint8_t label) {
  util::Rng rng(3000 + id);
  dataset::Sample s = dataset::generate_sample(id, family, rng);
  return dataset::ShardRecord{s.id, s.family, label, std::move(s.program)};
}

TEST(ShardSchema, ManifestCarriesSchemaRoundTrip) {
  const auto schema = dataset::family_label_schema();
  const auto dir = test_dir("shard_v2");
  dataset::ShardWriterOptions opts;
  opts.schema = schema;
  auto w = dataset::ShardedCorpusWriter::open(dir, opts);
  ASSERT_TRUE(w.is_ok()) << w.status().to_string();
  ASSERT_TRUE(
      w.value().append(family_record(0, bingen::Family::kMiraiLike, 1)).is_ok());
  ASSERT_TRUE(w.value().finish().is_ok());

  auto m = dataset::read_manifest(dir);
  ASSERT_TRUE(m.is_ok()) << m.status().to_string();
  EXPECT_EQ(m.value().schema, schema);
  EXPECT_EQ(m.value().schema.digest(), schema.digest());
}

TEST(ShardSchema, AppendRejectsLabelOutsideSchema) {
  const auto dir = test_dir("shard_badlabel");
  dataset::ShardWriterOptions opts;
  opts.schema = dataset::family_label_schema();
  auto w = dataset::ShardedCorpusWriter::open(dir, opts);
  ASSERT_TRUE(w.is_ok());
  const auto st = w.value().append(
      family_record(0, bingen::Family::kMiraiLike, 9));
  EXPECT_FALSE(st.is_ok());
  EXPECT_NE(st.to_string().find("schema"), std::string::npos);
}

TEST(ShardSchema, DecodeRecordValidatesAgainstSchema) {
  const auto rec = family_record(5, bingen::Family::kGafgytLike, 2);
  std::vector<std::uint8_t> payload;
  dataset::encode_record(rec, payload);

  dataset::ShardRecord got;
  // Label 2 only exists under the family schema.
  EXPECT_FALSE(dataset::decode_record(payload, got).is_ok());
  const auto st =
      dataset::decode_record(payload, got, dataset::family_label_schema());
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(got.label, 2);
}

TEST(ShardSchema, V1ManifestImpliesBinarySchema) {
  // Hand-built v1 manifest: no schema field, version 1 — the layout every
  // pre-refactor corpus on disk has. It must read back as binary.
  const auto dir = test_dir("shard_v1");
  std::vector<std::uint8_t> bytes;
  net::wire::Writer w(bytes);
  w.put_u32(dataset::kManifestMagic);
  w.put_u16(1);  // version
  w.put_u16(0);  // reserved
  w.put_u64(0);  // total records
  w.put_u32(0);  // shard count
  w.put_u32(net::checksum32(bytes));
  std::ofstream out(dir + "/" + dataset::kManifestFileName, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();

  auto m = dataset::read_manifest(dir);
  ASSERT_TRUE(m.is_ok()) << m.status().to_string();
  EXPECT_TRUE(m.value().schema.is_binary());
}

// --- Checkpoint schema gate ------------------------------------------------

TEST(CheckpointSchema, FamilyCheckpointRoundTripsAndBinarySpecRejects) {
  const auto schema = dataset::family_label_schema();
  util::Rng dropout(1), weights(2);
  auto model = ml::make_family_cnn(features::kNumFeatures, schema, dropout);
  model.init(weights);
  features::FeatureScaler scaler;
  scaler.fit({features::FeatureVector{}});
  const auto dir = test_dir("ckpt_family");
  ASSERT_TRUE(serve::Checkpoint::write(dir, model, &scaler, schema).is_ok());

  serve::CheckpointSpec spec;
  spec.schema = schema;
  auto loaded = serve::Checkpoint::load(dir, "v1", spec);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value()->schema(), schema);
  EXPECT_EQ(loaded.value()->spec().num_classes(), schema.num_classes());

  // All-or-nothing: a binary spec must refuse the family checkpoint with a
  // schema error (not a downstream weight-shape complaint).
  auto rejected = serve::Checkpoint::load(dir, "v1");
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), util::ErrorCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().to_string().find("schema"), std::string::npos);
}

TEST(CheckpointSchema, PreSchemaCheckpointLoadsOnlyAsBinary) {
  util::Rng dropout(1), weights(2);
  auto model = ml::make_paper_cnn(features::kNumFeatures, 2, dropout);
  model.init(weights);
  const auto dir = test_dir("ckpt_preschema");
  ASSERT_TRUE(serve::Checkpoint::write(dir, model, nullptr).is_ok());
  // Simulate a checkpoint written before schema.txt existed.
  fs::remove(fs::path(dir) / serve::Checkpoint::kSchemaFile);

  serve::CheckpointSpec spec;
  spec.expect_scaler = false;
  EXPECT_TRUE(serve::Checkpoint::load(dir, "v1", spec).is_ok());

  spec.schema = dataset::family_label_schema();
  auto rejected = serve::Checkpoint::load(dir, "v1", spec);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), util::ErrorCode::kFailedPrecondition);
}

// --- Detect payload v1/v2 interop ------------------------------------------

TEST(DetectPayloadV2, V1BytesArePreservedBitForBit) {
  const std::vector<double> row = {1.25, -3.5, 0.0, 42.0};
  // The v1 layout is the raw wire vector — the exact pre-refactor bytes.
  std::vector<std::uint8_t> expect;
  net::wire::Writer w(expect);
  w.put_f64_vector(row);
  EXPECT_EQ(serve::encode_detect_request_payload(row), expect);
}

TEST(DetectPayloadV2, V2RequestRoundTripsPinAndFeatures) {
  const std::vector<double> row = {0.5, -1.5, 9.75};
  const std::uint64_t pin = 0xfeedfacecafebeefULL;
  const auto bytes = serve::encode_detect_request_payload(row, pin);
  auto decoded = serve::decode_detect_request_payload(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().version, serve::kDetectPayloadVersion);
  EXPECT_EQ(decoded.value().schema_digest, pin);
  EXPECT_EQ(decoded.value().features, row);
}

TEST(DetectPayloadV2, ResponseCarriesClassNameAndDigestOnlyInV2) {
  serve::Verdict v;
  v.predicted = 2;
  v.class_name = "gafgyt-like";
  v.schema_digest = dataset::family_label_schema().digest();
  v.logits = {0.1, 0.2, 0.9, 0.05};
  v.probabilities = {0.1, 0.2, 0.6, 0.1};
  v.model_version = "fam-v1";
  const util::Result<serve::Verdict> ok(v);

  const auto v2 = serve::encode_detect_response_payload(ok, 2);
  auto decoded2 = serve::decode_detect_response_payload(v2);
  ASSERT_TRUE(decoded2.is_ok()) << decoded2.status().to_string();
  EXPECT_EQ(decoded2.value().predicted, 2u);
  EXPECT_EQ(decoded2.value().class_name, "gafgyt-like");
  EXPECT_EQ(decoded2.value().schema_digest, v.schema_digest);

  // A v1 client gets the legacy body: verdict intact, no schema fields.
  const auto v1 = serve::encode_detect_response_payload(ok, 1);
  auto decoded1 = serve::decode_detect_response_payload(v1);
  ASSERT_TRUE(decoded1.is_ok()) << decoded1.status().to_string();
  EXPECT_EQ(decoded1.value().predicted, 2u);
  EXPECT_TRUE(decoded1.value().class_name.empty());
  EXPECT_EQ(decoded1.value().schema_digest, 0u);
}

TEST(DetectPayloadV2, ErrorResponsesRoundTripInBothVersions) {
  const util::Result<serve::Verdict> err(
      util::Status::error(util::ErrorCode::kUnavailable, "queue full"));
  for (std::uint32_t version : {1u, 2u}) {
    auto decoded = serve::decode_detect_response_payload(
        serve::encode_detect_response_payload(err, version));
    ASSERT_FALSE(decoded.is_ok());
    EXPECT_EQ(decoded.status().code(), util::ErrorCode::kUnavailable);
  }
}

TEST(DetectPayloadV2, TruncatedV2PayloadIsRejected) {
  const auto bytes =
      serve::encode_detect_request_payload({1.0, 2.0}, 0x1234u);
  for (std::size_t cut : {std::size_t{4}, std::size_t{8}, std::size_t{12},
                          bytes.size() - 1}) {
    auto decoded = serve::decode_detect_request_payload(
        std::span<const std::uint8_t>(bytes.data(), cut));
    EXPECT_FALSE(decoded.is_ok()) << "cut=" << cut;
  }
}

// --- Hierarchical detect-then-classify -------------------------------------

std::unique_ptr<ml::DifferentiableClassifier> owned_mlp(std::size_t dim,
                                                        std::size_t classes,
                                                        std::uint64_t seed) {
  auto model = std::make_unique<ml::Model>(ml::make_mlp_baseline(dim, classes));
  util::Rng rng(seed);
  model->init(rng);
  ml::ModelClassifier clf(*model, dim, classes);
  auto owned = clf.clone();  // owning replica; the local model can die
  return owned;
}

TEST(Hierarchical, ProbabilitiesComposeDetectorAndFamilyHead) {
  const std::size_t dim = 8;
  auto schema = ml::LabelSchema::make({"benign", "fam-a", "fam-b"}, 0);
  ASSERT_TRUE(schema.is_ok());
  auto detector = owned_mlp(dim, 2, 10);
  auto family = owned_mlp(dim, 2, 20);
  auto det_probe = detector->clone();
  auto fam_probe = family->clone();
  ml::HierarchicalClassifier h(std::move(detector), std::move(family),
                               schema.value());
  EXPECT_EQ(h.num_classes(), 3u);
  EXPECT_EQ(h.input_dim(), dim);

  util::Rng rng(30);
  std::vector<double> x(dim);
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);

  const auto p = h.probabilities(x);
  ASSERT_EQ(p.size(), 3u);
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);

  const auto pd = det_probe->probabilities(x);
  const auto pf = fam_probe->probabilities(x);
  EXPECT_NEAR(p[0], pd[0], 1e-9);
  EXPECT_NEAR(p[1], pd[1] * pf[0], 1e-9);
  EXPECT_NEAR(p[2], pd[1] * pf[1], 1e-9);
}

TEST(Hierarchical, GradientMatchesFiniteDifference) {
  const std::size_t dim = 6;
  auto schema = ml::LabelSchema::make({"benign", "fam-a", "fam-b"}, 0);
  ASSERT_TRUE(schema.is_ok());
  ml::HierarchicalClassifier h(owned_mlp(dim, 2, 40), owned_mlp(dim, 2, 50),
                               schema.value());

  util::Rng rng(60);
  std::vector<double> x(dim);
  for (auto& v : x) v = rng.uniform(0.5, 1.5);

  // The forward pass runs through the float GEMM kernels, so logits carry
  // ~1e-7 quantization; a wide central difference keeps the FD signal well
  // above it (the analytic path is exact, the tolerance absorbs both the
  // quantization floor and O(eps^2) curvature).
  const double eps = 1e-3;
  for (std::size_t k = 0; k < 3; ++k) {
    const auto grad = h.grad_logit(x, k);
    ASSERT_EQ(grad.size(), dim);
    for (std::size_t i = 0; i < dim; ++i) {
      auto xp = x, xm = x;
      xp[i] += eps;
      xm[i] -= eps;
      const double numeric =
          (h.logits(xp)[k] - h.logits(xm)[k]) / (2.0 * eps);
      EXPECT_NEAR(grad[i], numeric, 0.02 * std::max(1.0, std::abs(numeric)))
          << "class " << k << " dim " << i;
    }
  }
}

TEST(Hierarchical, GradientIsTheChainRuleOverBothStages) {
  const std::size_t dim = 6;
  auto schema = ml::LabelSchema::make({"benign", "fam-a", "fam-b"}, 0);
  ASSERT_TRUE(schema.is_ok());
  auto detector = owned_mlp(dim, 2, 40);
  auto family = owned_mlp(dim, 2, 50);
  auto det_probe = detector->clone();
  auto fam_probe = family->clone();
  ml::HierarchicalClassifier h(std::move(detector), std::move(family),
                               schema.value());

  util::Rng rng(61);
  std::vector<double> x(dim);
  for (auto& v : x) v = rng.uniform(0.5, 1.5);

  // d log softmax_c = dz_c - sum_j p_j dz_j, hand-composed per stage.
  auto log_softmax_grad = [&](ml::DifferentiableClassifier& clf,
                              std::size_t c) {
    auto g = clf.grad_logit(x, c);
    const auto p = clf.probabilities(x);
    for (std::size_t j = 0; j < p.size(); ++j) {
      const auto gj = clf.grad_logit(x, j);
      for (std::size_t i = 0; i < g.size(); ++i) g[i] -= p[j] * gj[i];
    }
    return g;
  };

  // The fused grad_weighted backward runs through the float kernels while
  // this hand composition sums per-class grad_logit calls in double, so
  // agreement is to float rounding, not double.
  const double tol = 1e-5;
  const auto benign = h.grad_logit(x, 0);
  const auto want_benign = log_softmax_grad(*det_probe, 0);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(benign[i], want_benign[i], tol);
  }
  for (std::size_t k = 1; k < 3; ++k) {
    const auto grad = h.grad_logit(x, k);
    auto want = log_softmax_grad(*det_probe, 1);
    const auto fam = log_softmax_grad(*fam_probe, k - 1);
    for (std::size_t i = 0; i < dim; ++i) {
      EXPECT_NEAR(grad[i], want[i] + fam[i], tol) << "class " << k;
    }
  }
}

TEST(Hierarchical, CloneIsIndependentAndIdentical) {
  const std::size_t dim = 5;
  auto schema = ml::LabelSchema::make({"benign", "fam-a", "fam-b"}, 0);
  ASSERT_TRUE(schema.is_ok());
  ml::HierarchicalClassifier h(owned_mlp(dim, 2, 70), owned_mlp(dim, 2, 80),
                               schema.value());
  auto copy = h.clone();
  ASSERT_NE(copy, nullptr);
  std::vector<double> x(dim, 0.25);
  EXPECT_EQ(h.logits(x), copy->logits(x));
}

// --- Targeted GEA over the schema ------------------------------------------

TEST(TargetedGea, MatrixInvariantsHold) {
  auto corpus = dataset::Corpus::generate(tiny_config(11));
  const auto schema = dataset::family_label_schema();
  ASSERT_TRUE(dataset::relabel_corpus(corpus, schema).is_ok());

  features::FeatureScaler scaler;
  scaler.fit(corpus.feature_rows());
  util::Rng dropout(1), weights(2);
  auto model = ml::make_family_cnn(features::kNumFeatures, schema, dropout);
  model.init(weights);
  ml::ModelClassifier clf(model, features::kNumFeatures, schema.num_classes());

  aug::GeaHarness harness(corpus, scaler, clf);
  aug::GeaHarnessOptions opts;
  opts.skip_already_misclassified = false;  // untrained net: attack everyone
  opts.max_samples = 8;
  opts.threads = 1;

  const std::size_t target_index = 0;
  const std::uint8_t target_class = corpus.samples()[target_index].label;
  const auto rep = harness.family_attack(target_index, schema, opts);

  EXPECT_GT(rep.samples, 0u);
  EXPECT_EQ(rep.matrix.total(), rep.samples);
  // The donor's own class contributes no rows, so every hit on its column
  // is a targeted success; everything off the diagonal evaded attribution.
  EXPECT_EQ(rep.matrix.row_sum(target_class), 0u);
  EXPECT_EQ(rep.targeted_hits, rep.matrix.col_sum(target_class));
  EXPECT_EQ(rep.evaded, rep.samples - rep.matrix.diagonal());
  EXPECT_DOUBLE_EQ(rep.targeted_rate(),
                   static_cast<double>(rep.targeted_hits) /
                       static_cast<double>(rep.samples));
}

TEST(TargetedGea, ThreadCountDoesNotChangeTheMatrix) {
  auto corpus = dataset::Corpus::generate(tiny_config(13));
  const auto schema = dataset::family_label_schema();
  ASSERT_TRUE(dataset::relabel_corpus(corpus, schema).is_ok());
  features::FeatureScaler scaler;
  scaler.fit(corpus.feature_rows());
  util::Rng dropout(1), weights(2);
  auto model = ml::make_family_cnn(features::kNumFeatures, schema, dropout);
  model.init(weights);
  ml::ModelClassifier clf(model, features::kNumFeatures, schema.num_classes());

  aug::GeaHarness harness(corpus, scaler, clf, /*feature_cache_capacity=*/0);
  aug::GeaHarnessOptions opts;
  opts.skip_already_misclassified = false;
  opts.max_samples = 6;

  opts.threads = 1;
  const auto serial = harness.family_attack(1, schema, opts);
  opts.threads = 4;
  const auto parallel = harness.family_attack(1, schema, opts);
  EXPECT_EQ(serial.matrix.counts, parallel.matrix.counts);
  EXPECT_EQ(serial.targeted_hits, parallel.targeted_hits);
  EXPECT_EQ(serial.evaded, parallel.evaded);
}

TEST(TargetedGea, RejectsHeadSchemaMismatch) {
  auto corpus = dataset::Corpus::generate(tiny_config(17));
  const auto schema = dataset::family_label_schema();
  ASSERT_TRUE(dataset::relabel_corpus(corpus, schema).is_ok());
  features::FeatureScaler scaler;
  scaler.fit(corpus.feature_rows());
  util::Rng dropout(1), weights(2);
  auto model = ml::make_paper_cnn(features::kNumFeatures, 2, dropout);
  model.init(weights);
  ml::ModelClassifier binary_clf(model, features::kNumFeatures, 2);
  aug::GeaHarness harness(corpus, scaler, binary_clf);
  EXPECT_THROW(harness.family_attack(0, schema), std::invalid_argument);
  EXPECT_THROW(harness.family_attack(corpus.size() + 5, schema),
               std::invalid_argument);
}

// --- Serving a family checkpoint -------------------------------------------

TEST(FamilyServe, VerdictNamesTheClassAndPinsTheSchema) {
  const auto schema = dataset::family_label_schema();
  util::Rng dropout(1), weights(2);
  auto model = ml::make_family_cnn(features::kNumFeatures, schema, dropout);
  model.init(weights);
  features::FeatureScaler scaler;
  auto corpus = dataset::Corpus::generate(tiny_config(19));
  scaler.fit(corpus.feature_rows());
  const auto dir = test_dir("serve_family");
  ASSERT_TRUE(serve::Checkpoint::write(dir, model, &scaler, schema).is_ok());

  serve::ModelRegistry registry;
  serve::CheckpointSpec spec;
  spec.schema = schema;
  ASSERT_TRUE(registry.load("fam-v1", dir, spec).is_ok());
  serve::DetectionServer server(registry, {});

  const auto& fv = corpus.samples()[0].features;
  auto r = server.detect({fv.begin(), fv.end()});
  server.stop();
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_LT(r.value().predicted, schema.num_classes());
  EXPECT_EQ(r.value().class_name, schema.name(r.value().predicted));
  EXPECT_EQ(r.value().schema_digest, schema.digest());
  EXPECT_EQ(r.value().probabilities.size(), schema.num_classes());
}

}  // namespace
