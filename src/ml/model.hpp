// Sequential model container and the differentiable-classifier interface
// the adversarial attacks consume.
//
// Model::infer is const and touches no layer state, so one Model serves any
// number of threads at once (the server's workers share each checkpoint's
// model). forward() remembers each layer's input for the backward passes
// that follow it; a thread that runs forward() needs a Model of its own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/layer.hpp"
#include "ml/tensor.hpp"
#include "util/status.hpp"

namespace gea::ml {

/// A sequential stack of layers.
class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Append a layer (builder style).
  Model& add(LayerPtr layer);

  /// Initialize all layer parameters.
  void init(util::Rng& rng);

  /// Forward pass that remembers each layer's input for backward().
  /// `training` enables dropout; forward(x, false) returns infer(x).
  Tensor forward(const Tensor& x, bool training = false);

  /// The network's output for a batch, through every layer's const
  /// Layer::infer. Row i is bitwise equal to row i inferred alone
  /// (asserted in tests/serve_test.cpp).
  Tensor infer(const Tensor& x) const;

  /// Backward pass from dL/d logits; must follow the matching forward().
  /// Returns dL/d input; parameter gradients are accumulated.
  Tensor backward(const Tensor& grad_out);

  /// backward() through every layer's backward_input(): the same dL/d
  /// input, bit for bit, with no parameter-gradient work and every
  /// gradient buffer left untouched. What the attacks' gradients use.
  Tensor backward_input(const Tensor& grad_out);

  std::vector<Param> params();
  void zero_grad();
  std::size_t num_parameters();

  /// Layer-by-layer architecture listing (the Fig. 5 text rendering).
  std::string summary();

  /// Save/load all parameter values (architecture must match at load).
  /// Throwing wrappers around the checked variants below.
  void save(const std::string& path);
  void load(const std::string& path);

  /// Status-returning serialization: missing files, bad magic, parameter
  /// count/size mismatches, and truncation come back as a descriptive error
  /// instead of an exception. load_checked leaves parameters untouched on
  /// any error (it stages into a scratch buffer before committing).
  util::Status save_checked(const std::string& path);
  util::Status load_checked(const std::string& path);

  /// Deep copy: same architecture, same weights, nothing remembered from a
  /// forward.
  Model clone() const;

  /// Copy parameter values (not gradients) from a same-architecture model.
  /// Used to refresh per-worker replicas between optimizer steps without
  /// re-cloning the layer stack.
  void copy_params_from(Model& other);

  /// Rebind every layer's internal Rng (dropout) to `rng`.
  void bind_rng(util::Rng* rng);

 private:
  std::vector<LayerPtr> layers_;
};

/// What an attack needs from a model: logits and input gradients over flat
/// feature vectors. Implementations adapt shape conventions internally.
class DifferentiableClassifier {
 public:
  virtual ~DifferentiableClassifier() = default;

  virtual std::size_t input_dim() const = 0;
  virtual std::size_t num_classes() const = 0;

  /// Logits for one input vector.
  virtual std::vector<double> logits(const std::vector<double>& x) = 0;

  /// Logits for many inputs; row i must be bitwise equal to logits(xs[i]).
  /// The default calls logits() once per row; a class that can run the
  /// rows through one batched forward overrides it.
  virtual std::vector<std::vector<double>> logits_batch(
      const std::vector<std::vector<double>>& xs);

  /// Gradient of logit `k` with respect to the input.
  virtual std::vector<double> grad_logit(const std::vector<double>& x,
                                         std::size_t k) = 0;

  /// Gradient of sum_k weights[k] * logit_k(x) with respect to the input.
  /// The default composes grad_logit calls; implementations backed by
  /// reverse-mode autodiff override it with a single backward pass, which
  /// is what makes the iterative attacks cheap.
  virtual std::vector<double> grad_weighted(const std::vector<double>& x,
                                            const std::vector<double>& weights);

  /// Independent copy safe to use from another thread (the inputs each
  /// forward remembers for backward make a shared instance racy for
  /// gradients). nullptr means "not supported" and sends parallel harnesses
  /// down their serial fallback.
  virtual std::unique_ptr<DifferentiableClassifier> clone() const {
    return nullptr;
  }

  // Derived conveniences.
  std::vector<double> probabilities(const std::vector<double>& x);
  /// probabilities() of every row, through one logits_batch() call.
  std::vector<std::vector<double>> probabilities_batch(
      const std::vector<std::vector<double>>& xs);
  std::size_t predict(const std::vector<double>& x);
  /// Gradient of cross-entropy(label) w.r.t. the input.
  std::vector<double> grad_loss(const std::vector<double>& x,
                                std::size_t label) {
    return grad_loss(x, label, nullptr);
  }

  /// grad_loss that also stores in `*logits_out` (when non-null) the
  /// logits of x it computed on the way, so an iterative attack can test
  /// for misclassification without another forward. The default composes
  /// logits() and grad_weighted(): two forwards and one backward. Classes
  /// that compute both from one forward override it; the gradient and
  /// logits must stay bitwise equal to this composition.
  virtual std::vector<double> grad_loss(const std::vector<double>& x,
                                        std::size_t label,
                                        std::vector<double>* logits_out);
};

/// Max-subtracted softmax of one row of logits: probabilities()'s rule, so
/// anything that renders probabilities from logits (the server's verdicts)
/// matches the offline classifier bit for bit.
std::vector<double> softmax(const std::vector<double>& z);

/// Index of the largest logit; the first one wins a tie (predict()'s rule).
std::size_t argmax(const std::vector<double>& z);

/// Logits of every row through one Model::infer over a (rows, 1, dim)
/// batch; the model's output must be (rows, classes). Safe to call from any
/// number of threads on one model.
std::vector<std::vector<double>> infer_logits(
    const Model& model, std::size_t dim, std::size_t classes,
    const std::vector<std::vector<double>>& rows);

/// Adapter: a Model whose input is (1, 1, D) and whose output is (1, K).
class ModelClassifier : public DifferentiableClassifier {
 public:
  ModelClassifier(Model& model, std::size_t input_dim, std::size_t num_classes)
      : model_(&model), dim_(input_dim), classes_(num_classes) {}

  std::size_t input_dim() const override { return dim_; }
  std::size_t num_classes() const override { return classes_; }
  std::vector<double> logits(const std::vector<double>& x) override;
  /// infer_logits over all rows: one batched Model::infer.
  std::vector<std::vector<double>> logits_batch(
      const std::vector<std::vector<double>>& xs) override;
  std::vector<double> grad_logit(const std::vector<double>& x,
                                 std::size_t k) override;
  std::vector<double> grad_weighted(
      const std::vector<double>& x,
      const std::vector<double>& weights) override;
  /// One forward and one input-gradient backward.
  using DifferentiableClassifier::grad_loss;
  std::vector<double> grad_loss(const std::vector<double>& x,
                                std::size_t label,
                                std::vector<double>* logits_out) override;

  /// Clones the underlying Model into a copy that owns its network, so the
  /// replica's lifetime is self-contained.
  std::unique_ptr<DifferentiableClassifier> clone() const override;

  Model& model() { return *model_; }

 private:
  /// Owning constructor used by clone().
  ModelClassifier(std::unique_ptr<Model> owned, std::size_t input_dim,
                  std::size_t num_classes)
      : model_(owned.get()),
        dim_(input_dim),
        classes_(num_classes),
        owned_(std::move(owned)) {}

  Tensor to_input(const std::vector<double>& x) const;
  /// The (1, K) output of a forward or infer as logits.
  std::vector<double> to_logits(const Tensor& out) const;
  /// dL/d input of the last forward, seeded with dL/d logits = weights.
  std::vector<double> input_grad(const std::vector<double>& weights);

  Model* model_;
  std::size_t dim_;
  std::size_t classes_;
  std::unique_ptr<Model> owned_;  // set only for clones
};

}  // namespace gea::ml
