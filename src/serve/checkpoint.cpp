#include "serve/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "ml/zoo.hpp"

namespace gea::serve {

namespace {

std::string join(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

util::Result<ml::Model> build_arch(const CheckpointSpec& spec,
                                   util::Rng& dropout_rng) {
  using util::ErrorCode;
  using util::Status;
  if (spec.input_dim == 0 || spec.num_classes() < 2) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "bad checkpoint spec: input_dim=" +
                             std::to_string(spec.input_dim) + " num_classes=" +
                             std::to_string(spec.num_classes()));
  }
  switch (spec.arch) {
    case DetectorArch::kPaperCnn:
      // Two valid convs + two pools shrink the length axis; below 8 the
      // Fig. 5 stack underflows.
      if (spec.input_dim < 8) {
        return Status::error(ErrorCode::kInvalidArgument,
                             "paper CNN needs input_dim >= 8, got " +
                                 std::to_string(spec.input_dim));
      }
      return ml::make_family_cnn(spec.input_dim, spec.schema, dropout_rng);
    case DetectorArch::kMlpBaseline:
      return ml::make_mlp_baseline(spec.input_dim, spec.num_classes());
  }
  return Status::error(ErrorCode::kInvalidArgument, "unknown detector arch");
}

}  // namespace

util::Status Checkpoint::write(const std::string& dir, ml::Model& model,
                               const features::FeatureScaler* scaler,
                               const ml::LabelSchema& schema) {
  using util::ErrorCode;
  using util::Status;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::error(ErrorCode::kNotFound,
                         "cannot create " + dir + ": " + ec.message())
        .with_context("Checkpoint::write");
  }
  if (auto st = model.save_checked(join(dir, kModelFile)); !st.is_ok()) {
    return st.with_context("Checkpoint::write");
  }
  if (scaler != nullptr) {
    if (auto st = scaler->save_checked(join(dir, kScalerFile)); !st.is_ok()) {
      return st.with_context("Checkpoint::write");
    }
  }
  {
    const std::string path = join(dir, kSchemaFile);
    std::ofstream out(path, std::ios::trunc);
    out << schema.serialize() << "\n";
    if (!out) {
      return Status::error(ErrorCode::kUnavailable, "write failed on " + path)
          .with_context("Checkpoint::write");
    }
  }
  return Status::ok();
}

util::Result<CheckpointPtr> Checkpoint::load(const std::string& dir,
                                             std::string version,
                                             const CheckpointSpec& spec) {
  using util::ErrorCode;
  using util::Status;
  if (spec.expect_scaler && spec.input_dim != features::kNumFeatures) {
    return Status::error(
               ErrorCode::kInvalidArgument,
               "FeatureScaler covers the " +
                   std::to_string(features::kNumFeatures) +
                   "-feature layout only; set expect_scaler=false for dim " +
                   std::to_string(spec.input_dim))
        .with_context("Checkpoint::load");
  }

  // shared_ptr<Checkpoint> first, const-cast into the public alias at the
  // end: the object is mutated only before publication.
  // Schema gate before any weight I/O: the on-disk schema.txt must agree
  // with the spec's schema (absent file = pre-schema checkpoint = binary).
  // Checking first keeps the failure all-or-nothing and the message about
  // the actual mismatch, not a downstream weight-size complaint.
  {
    std::ifstream in(join(dir, kSchemaFile));
    ml::LabelSchema on_disk;  // binary when schema.txt is absent
    if (in) {
      std::string line;
      std::getline(in, line);
      auto parsed = ml::LabelSchema::deserialize(line);
      if (!parsed.is_ok()) {
        return Status(parsed.status()).with_context("Checkpoint::load " + dir);
      }
      on_disk = std::move(parsed).value();
    }
    if (on_disk != spec.schema) {
      return Status::error(
                 ErrorCode::kFailedPrecondition,
                 "checkpoint schema mismatch: on disk '" +
                     on_disk.serialize() + "' (digest " +
                     std::to_string(on_disk.digest()) + "), spec '" +
                     spec.schema.serialize() + "' (digest " +
                     std::to_string(spec.schema.digest()) + ")")
          .with_context("Checkpoint::load " + dir);
    }
  }

  std::shared_ptr<Checkpoint> ckpt(new Checkpoint());
  ckpt->dropout_rng_ = std::make_unique<util::Rng>(0);  // never drawn at inference
  auto model = build_arch(spec, *ckpt->dropout_rng_);
  if (!model.is_ok()) {
    return Status(model.status()).with_context("Checkpoint::load " + dir);
  }
  ckpt->model_ = std::move(model).value();
  if (auto st = ckpt->model_.load_checked(join(dir, kModelFile)); !st.is_ok()) {
    return st.with_context("Checkpoint::load " + dir);
  }
  if (spec.expect_scaler) {
    if (auto st = ckpt->scaler_.load_checked(join(dir, kScalerFile));
        !st.is_ok()) {
      return st.with_context("Checkpoint::load " + dir);
    }
    ckpt->has_scaler_ = true;
  }
  ckpt->version_ = std::move(version);
  ckpt->dir_ = dir;
  ckpt->spec_ = spec;
  return CheckpointPtr(std::move(ckpt));
}

}  // namespace gea::serve
