// End-to-end detection pipeline (Fig. 1, upper half): corpus synthesis ->
// CFG feature extraction -> min-max scaling -> CNN training -> evaluation.
//
// This is the library's main entry point; examples and benches build one
// of these, then hand its classifier to the attack harnesses.
//
// Robustness (ROBUSTNESS.md): every input stage is quarantine-gated. In
// lenient mode (the default) malformed samples, hostile CSV rows, and
// unloadable model/scaler files degrade the run — dropped samples land in
// the PipelineReport and training proceeds on the survivors. In strict mode
// the first such fault aborts with a Status naming it.
#pragma once

#include <memory>

#include "core/report.hpp"
#include "dataset/corpus.hpp"
#include "dataset/io.hpp"
#include "dataset/split.hpp"
#include "features/scaler.hpp"
#include "features/validator.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "ml/trainer.hpp"
#include "util/status.hpp"

namespace gea::core {

enum class DetectorKind {
  kPaperCnn,     // Fig. 5 architecture
  kMlpBaseline,  // ablation: small MLP
};

/// How the pipeline reacts to quarantinable input.
enum class RobustnessMode {
  kLenient,  // drop + report, finish on the survivors
  kStrict,   // first fault aborts the run with an error Status
};

struct PipelineConfig {
  dataset::CorpusConfig corpus{};
  double test_fraction = 0.2;
  ml::TrainConfig train{
      .epochs = 200,
      .batch_size = 100,
      .learning_rate = 1e-3,
      .seed = 42,
      .early_stop_loss = 0.0,
      .on_epoch = {},
      .threads = 1,
  };
  DetectorKind detector = DetectorKind::kPaperCnn;
  std::uint64_t split_seed = 7;
  std::uint64_t weight_seed = 13;

  /// Worker threads for parallel stages (corpus featurization): 0 = auto
  /// (GEA_THREADS / hardware_concurrency), 1 = serial. Results are bitwise
  /// identical at any value. Forwarded to corpus.threads when that is 0
  /// (auto). Training stays on TrainConfig::threads (default 1, the exact
  /// legacy numerics) — its chunked path is deterministic but sums floats
  /// in a different order, so it is opted into separately.
  std::size_t threads = 0;

  RobustnessMode mode = RobustnessMode::kLenient;
  /// Non-empty: load features/labels from this CSV (write_features_csv
  /// schema) instead of synthesizing a corpus. Loaded samples carry no
  /// program/CFG, so GEA crafting is unavailable on such a run.
  std::string features_csv;
  /// Non-empty: initialize the scaler from this file (FeatureScaler::save)
  /// instead of fitting. Lenient fallback on failure: refit + report note.
  std::string scaler_in;
  /// Non-empty: load model weights from this file (Model::save) and skip
  /// training. Lenient fallback on failure: train from scratch + report note.
  std::string weights_in;
};

/// A moderate configuration for tests and quick examples: a reduced corpus
/// and an early-stopped training run (the full Table I corpus with 200
/// epochs lives in the benches).
PipelineConfig quick_config();

class DetectionPipeline {
 public:
  /// Generate the corpus, split, fit the scaler on the training rows,
  /// train the detector, and evaluate both splits.
  /// Throws std::runtime_error if run_checked would return an error.
  static DetectionPipeline run(const PipelineConfig& cfg);

  /// Status-returning variant. Errors (rather than degrading) when:
  ///  - strict mode sees any quarantinable fault, or
  ///  - either class has fewer than two surviving samples (un-trainable).
  static util::Result<std::unique_ptr<DetectionPipeline>> run_checked(
      const PipelineConfig& cfg);

  const PipelineConfig& config() const { return cfg_; }
  const dataset::Corpus& corpus() const { return corpus_; }
  const dataset::Split& split() const { return split_; }
  const features::FeatureScaler& scaler() const { return scaler_; }
  const features::DistortionValidator& validator() const { return *validator_; }

  /// Quarantine accounting for this run (empty when nothing degraded).
  const PipelineReport& report() const { return report_; }

  ml::Model& model() { return model_; }
  ml::ModelClassifier& classifier() { return *classifier_; }

  const ml::MultiConfusion& train_metrics() const { return train_metrics_; }
  const ml::MultiConfusion& test_metrics() const { return test_metrics_; }
  const ml::TrainStats& train_stats() const { return train_stats_; }

  /// Scaled rows + labels for a split's indices.
  ml::LabeledData scaled_data(const std::vector<std::size_t>& indices) const;

  /// Recompute train/test metrics (after loading external weights).
  void reevaluate();

 private:
  DetectionPipeline() = default;

  util::Status assemble_corpus(const PipelineConfig& cfg);

  PipelineConfig cfg_;
  dataset::Corpus corpus_;
  dataset::Split split_;
  features::FeatureScaler scaler_;
  std::unique_ptr<features::DistortionValidator> validator_;
  std::unique_ptr<util::Rng> dropout_rng_;
  ml::Model model_;
  std::unique_ptr<ml::ModelClassifier> classifier_;
  ml::MultiConfusion train_metrics_;
  ml::MultiConfusion test_metrics_;
  ml::TrainStats train_stats_;
  PipelineReport report_;
};

}  // namespace gea::core
