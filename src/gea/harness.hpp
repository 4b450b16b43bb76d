// GEA evaluation harness producing the rows of Tables IV-VII.
//
// For a chosen target sample x_sel, every corpus sample of the *opposite*
// class is augmented (embed_program), re-disassembled, re-featurized,
// scaled, and classified; the row reports the misclassification rate, the
// crafting time per sample (splice + CFG extraction + feature extraction,
// matching what the paper times), and — beyond the paper — the fraction of
// augmented samples whose execution the interpreter proved equivalent to
// the original.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dataset/corpus.hpp"
#include "features/engine.hpp"
#include "features/scaler.hpp"
#include "gea/embed.hpp"
#include "gea/selection.hpp"
#include "ml/label_schema.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"

namespace gea::aug {

struct GeaRow {
  std::string label;            // "Minimum" / "Median" / "Maximum" or node/edge id
  std::size_t target_nodes = 0;
  std::size_t target_edges = 0;
  std::size_t samples = 0;
  std::size_t misclassified = 0;
  double mr() const {
    return samples == 0
               ? 0.0
               : static_cast<double>(misclassified) / static_cast<double>(samples);
  }
  double craft_ms_per_sample = 0.0;
  /// Fraction of augmented programs proved functionally equivalent to the
  /// original (should be 1.0).
  double equivalence_rate = 0.0;
  /// Samples whose crafting failed (splice exception or non-finite crafted
  /// features); the sweep finishes on the rest. First few diagnostics kept.
  std::size_t quarantined = 0;
  std::vector<std::string> diagnostics;
};

/// Targeted family-evasion result (beyond the paper's binary tables): a
/// K×K source→predicted matrix over the schema's classes, where row r,
/// column c counts attacked samples of true class r that the K-class
/// classifier placed in class c after the graft.
struct FamilyEvasionReport {
  ml::MultiConfusion matrix;
  std::size_t samples = 0;
  /// Attacked samples landing exactly in the attack's target class.
  std::size_t targeted_hits = 0;
  /// Attacked samples landing anywhere away from their true class.
  std::size_t evaded = 0;
  std::size_t quarantined = 0;
  double craft_ms_per_sample = 0.0;
  std::vector<std::string> diagnostics;

  double targeted_rate() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(targeted_hits) /
                              static_cast<double>(samples);
  }
  double evasion_rate() const {
    return samples == 0
               ? 0.0
               : static_cast<double>(evaded) / static_cast<double>(samples);
  }
};

struct GeaHarnessOptions {
  EmbedOptions embed{};
  /// Verify functional equivalence by execution on every N-th sample
  /// (1 = all, 0 = never). Interpretation is cheap but not free.
  std::size_t verify_every = 1;
  /// Only attack samples the detector currently classifies correctly.
  bool skip_already_misclassified = true;
  /// Cap on attacked samples (0 = all).
  std::size_t max_samples = 0;
  /// Strict: rethrow the first per-sample crafting failure instead of
  /// quarantining it (see ROBUSTNESS.md).
  bool strict = false;
  /// Cap on retained per-sample failure diagnostics.
  std::size_t max_diagnostics = 8;
  /// Worker threads for crafting (splice + CFG + featurization) and for
  /// equivalence verification: 0 = auto (GEA_THREADS /
  /// hardware_concurrency, serial while fault injection is armed), 1 =
  /// serial. Classification, the choice of samples to verify and all
  /// counting happen at the serial merge, so the row is bitwise identical
  /// at any count.
  std::size_t threads = 0;
};

class GeaHarness {
 public:
  /// `feature_cache_capacity` bounds the harness-lifetime feature cache
  /// (crafted-graph digest -> features). Size and density sweeps that
  /// revisit a graft target re-featurize the exact same combined graphs;
  /// those rows hit the cache and skip the traversal. 0 disables caching.
  GeaHarness(const dataset::Corpus& corpus, const features::FeatureScaler& scaler,
             ml::DifferentiableClassifier& clf,
             std::size_t feature_cache_capacity = 4096)
      : corpus_(&corpus),
        scaler_(&scaler),
        clf_(&clf),
        feature_cache_(feature_cache_capacity == 0
                           ? nullptr
                           : std::make_shared<features::FeatureCache>(
                                 feature_cache_capacity)) {}

  /// Attack every sample of `source_label` using target sample
  /// `target_index` (a corpus index of the opposite class).
  GeaRow attack_with_target(std::uint8_t source_label, std::size_t target_index,
                            const GeaHarnessOptions& opts = {}) const;

  /// Targeted family evasion: graft target sample `target_index` into
  /// every sample of every *other* class under `schema` (corpus labels must
  /// be schema classes — see dataset::relabel_corpus) and record where the
  /// K-class classifier lands each crafted sample. The attack's target
  /// class is the donor sample's own class; a crafted sample predicted as
  /// that class is a targeted hit, one predicted as anything other than its
  /// true class has evaded attribution. Same wave-loop / serial-merge
  /// discipline as attack_with_target, so the matrix is bitwise identical
  /// at any thread count. Throws std::invalid_argument on a bad target
  /// index or a classifier/schema head-width mismatch.
  FamilyEvasionReport family_attack(std::size_t target_index,
                                    const ml::LabelSchema& schema,
                                    const GeaHarnessOptions& opts = {}) const;

  /// Full source→target sweep: one family_attack per target class (donor =
  /// median-size sample the classifier rates most confidently as that
  /// class), reports summed. Classes with no corpus samples are skipped.
  FamilyEvasionReport family_evasion_matrix(
      const ml::LabelSchema& schema, const GeaHarnessOptions& opts = {}) const;

  /// Tables IV (source=malicious) / V (source=benign): the three
  /// min/median/max-size targets of the opposite class.
  std::vector<GeaRow> size_sweep(std::uint8_t source_label,
                                 const GeaHarnessOptions& opts = {}) const;

  /// Tables VI / VII: fixed-node-count targets with varying edge counts.
  std::vector<GeaRow> density_sweep(std::uint8_t source_label,
                                    std::size_t groups = 3,
                                    std::size_t variants = 3,
                                    const GeaHarnessOptions& opts = {}) const;

  /// The harness-lifetime crafted-feature cache (null when disabled).
  const std::shared_ptr<features::FeatureCache>& feature_cache() const {
    return feature_cache_;
  }

 private:
  /// What the wave loop of one target produced, in corpus order.
  struct Sweep;
  /// The wave loop attack_with_target and family_attack share: a serial
  /// scan picks the sources (`is_source`, not the target, and correctly
  /// classified when opts asks for it); workers splice and featurize them;
  /// a serial merge quarantines failed crafts, classifies the rest with one
  /// logits_batch call and picks every `verify_every`-th crafted sample
  /// (0 = none); workers then verify the picked ones. `name` labels logs
  /// and pool errors.
  Sweep sweep(
      std::size_t target_index, const GeaHarnessOptions& opts,
      std::size_t verify_every, const char* name,
      const std::function<bool(const dataset::Sample&)>& is_source) const;

  const dataset::Corpus* corpus_;
  const features::FeatureScaler* scaler_;
  ml::DifferentiableClassifier* clf_;
  std::shared_ptr<features::FeatureCache> feature_cache_;
};

}  // namespace gea::aug
