// Versioned (model + scaler) checkpoint: the unit the registry hot-swaps.
//
// On disk a checkpoint is a directory holding the model weights
// ("model.bin", ml::Model format), the fitted feature scaler
// ("scaler.bin", features::FeatureScaler format), and the label schema the
// head was trained against ("schema.txt", ml::LabelSchema::serialize()
// form; absent in pre-schema checkpoints, which imply the binary default).
// Everything loads through the Status-returning *_checked paths, and a
// Checkpoint is only ever published fully constructed — a corrupt or
// truncated file, or a schema that disagrees with the spec's, yields an
// error Result and no partially-initialized object, which is what lets the
// registry promise that a failed hot-swap leaves the serving model
// untouched. A loaded Checkpoint never changes: its one model() is run by
// every server worker at once through the const Model::infer.
#pragma once

#include <memory>
#include <string>

#include "features/features.hpp"
#include "features/scaler.hpp"
#include "ml/label_schema.hpp"
#include "ml/model.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace gea::serve {

/// Which network to rebuild before loading weights (the weight file stores
/// parameters only; the architecture is part of the serving contract).
enum class DetectorArch {
  kPaperCnn,     // Fig. 5 CNN (ml::make_paper_cnn)
  kMlpBaseline,  // ablation MLP (ml::make_mlp_baseline)
};

struct CheckpointSpec {
  DetectorArch arch = DetectorArch::kPaperCnn;
  /// 23 = Table II features (scaled by the checkpoint's FeatureScaler);
  /// 41 = extended feature set, which has no serializable scaler — such
  /// checkpoints must set expect_scaler = false and receive pre-scaled
  /// vectors.
  std::size_t input_dim = features::kNumFeatures;
  /// Head width, class names, and the benign class all come from here; the
  /// binary default reproduces the pre-schema num_classes=2 contract.
  ml::LabelSchema schema;
  /// When false, no scaler file is loaded and requests are used as-is.
  bool expect_scaler = true;

  std::size_t num_classes() const { return schema.num_classes(); }
};

class Checkpoint {
 public:
  static constexpr const char* kModelFile = "model.bin";
  static constexpr const char* kScalerFile = "scaler.bin";
  static constexpr const char* kSchemaFile = "schema.txt";

  /// Persist `model` (and `scaler`, unless null) into `dir`, creating the
  /// directory if needed. `schema` is written alongside as schema.txt so
  /// the head width travels with the weights.
  static util::Status write(const std::string& dir, ml::Model& model,
                            const features::FeatureScaler* scaler,
                            const ml::LabelSchema& schema = {});

  /// Rebuild the architecture named by `spec`, then load weights and scaler
  /// from `dir`. Errors (missing dir, bad magic, truncation, size
  /// mismatches, or an on-disk schema.txt that disagrees with spec.schema)
  /// come back as a descriptive Status and never a half-loaded checkpoint.
  /// A directory without schema.txt is a pre-schema checkpoint and loads
  /// only under the binary schema.
  static util::Result<std::shared_ptr<const Checkpoint>> load(
      const std::string& dir, std::string version,
      const CheckpointSpec& spec = {});

  const std::string& version() const { return version_; }
  const CheckpointSpec& spec() const { return spec_; }
  const ml::LabelSchema& schema() const { return spec_.schema; }
  const std::string& dir() const { return dir_; }

  /// Null when spec().expect_scaler is false.
  const features::FeatureScaler* scaler() const {
    return has_scaler_ ? &scaler_ : nullptr;
  }

  /// The checkpoint's model, for inference: infer() from any number of
  /// threads at once.
  const ml::Model& model() const { return model_; }

  /// A private copy of the model (same weights) for a caller that needs
  /// forward() and gradients. The copy must not outlive the Checkpoint:
  /// its dropout layers share the Checkpoint's Rng (never drawn from at
  /// inference).
  ml::Model clone_model() const { return model_.clone(); }

 private:
  Checkpoint() = default;

  std::unique_ptr<util::Rng> dropout_rng_;
  ml::Model model_;
  features::FeatureScaler scaler_;
  bool has_scaler_ = false;
  std::string version_;
  std::string dir_;
  CheckpointSpec spec_;
};

using CheckpointPtr = std::shared_ptr<const Checkpoint>;

}  // namespace gea::serve
