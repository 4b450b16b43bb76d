#include "ml/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ml/loss.hpp"
#include "util/faultinject.hpp"

namespace gea::ml {

Model& Model::add(LayerPtr layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

void Model::init(util::Rng& rng) {
  for (auto& l : layers_) l->init(rng);
}

Tensor Model::forward(const Tensor& x, bool training) {
  Tensor cur = x;
  for (auto& l : layers_) cur = l->forward(cur, training);
  return cur;
}

Tensor Model::infer(const Tensor& x) const {
  Tensor cur = x;
  for (const auto& l : layers_) cur = l->infer(cur);
  return cur;
}

Tensor Model::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

Tensor Model::backward_input(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward_input(cur);
  }
  return cur;
}

std::vector<Param> Model::params() {
  std::vector<Param> all;
  for (auto& l : layers_) {
    for (auto& p : l->params()) all.push_back(p);
  }
  return all;
}

void Model::zero_grad() {
  for (auto& p : params()) {
    std::fill(p.grad->begin(), p.grad->end(), 0.0f);
  }
}

std::size_t Model::num_parameters() {
  std::size_t n = 0;
  for (auto& p : params()) n += p.value->size();
  return n;
}

std::string Model::summary() {
  std::ostringstream ss;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    ss << "  [" << i << "] " << layers_[i]->describe() << '\n';
  }
  ss << "  total parameters: " << num_parameters() << '\n';
  return ss.str();
}

Model Model::clone() const {
  Model copy;
  for (const auto& l : layers_) copy.layers_.push_back(l->clone());
  return copy;
}

void Model::copy_params_from(Model& other) {
  auto dst = params();
  auto src = other.params();
  if (dst.size() != src.size()) {
    throw std::logic_error("Model::copy_params_from: architecture mismatch");
  }
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (dst[i].value->size() != src[i].value->size()) {
      throw std::logic_error("Model::copy_params_from: parameter size mismatch");
    }
    *dst[i].value = *src[i].value;
  }
}

void Model::bind_rng(util::Rng* rng) {
  for (auto& l : layers_) l->bind_rng(rng);
}

namespace {
constexpr char kMagic[4] = {'G', 'E', 'A', 'M'};
}

void Model::save(const std::string& path) {
  if (auto st = save_checked(path); !st.is_ok()) {
    throw std::runtime_error(st.to_string());
  }
}

void Model::load(const std::string& path) {
  if (auto st = load_checked(path); !st.is_ok()) {
    throw std::runtime_error(st.to_string());
  }
}

util::Status Model::save_checked(const std::string& path) {
  using util::ErrorCode;
  using util::Status;
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::error(ErrorCode::kNotFound, "cannot open " + path)
        .with_context("Model::save");
  }
  out.write(kMagic, 4);
  auto ps = params();
  // Torn-write fault: drop the tail of the parameter stream so the file
  // passes the magic/count checks but fails mid-read, exactly like a crash
  // or full disk during checkpointing.
  if (util::fault(util::faults::kModelTruncate) && ps.size() > 1) {
    ps.resize(ps.size() / 2);
  }
  const std::uint64_t n = ps.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (const auto& p : ps) {
    const std::uint64_t len = p.value->size();
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(reinterpret_cast<const char*>(p.value->data()),
              static_cast<std::streamsize>(len * sizeof(float)));
  }
  if (!out) {
    return Status::error(ErrorCode::kInternal, "write failed for " + path)
        .with_context("Model::save");
  }
  return Status::ok();
}

util::Status Model::load_checked(const std::string& path) {
  using util::ErrorCode;
  using util::Status;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::error(ErrorCode::kNotFound, "cannot open " + path)
        .with_context("Model::load");
  }
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::error(ErrorCode::kParseError, "bad magic in " + path)
        .with_context("Model::load");
  }
  auto ps = params();
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in || n != ps.size()) {
    return Status::error(ErrorCode::kCorruptData,
                         "parameter count mismatch in " + path + " (file has " +
                             std::to_string(n) + ", model has " +
                             std::to_string(ps.size()) + ")")
        .with_context("Model::load");
  }
  // Stage into scratch buffers so a truncated file cannot leave the model
  // half-overwritten.
  std::vector<std::vector<float>> staged(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::uint64_t len = 0;
    in.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (!in || len != ps[i].value->size()) {
      return Status::error(ErrorCode::kCorruptData,
                           "parameter size mismatch in " + path)
          .with_context("Model::load");
    }
    staged[i].resize(len);
    in.read(reinterpret_cast<char*>(staged[i].data()),
            static_cast<std::streamsize>(len * sizeof(float)));
    if (!in) {
      return Status::error(ErrorCode::kCorruptData, "truncated file " + path)
          .with_context("Model::load");
    }
  }
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(), ps[i].value->begin());
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// DifferentiableClassifier

std::vector<double> softmax(const std::vector<double>& z) {
  double mx = z[0];
  for (double v : z) mx = std::max(mx, v);
  std::vector<double> p(z.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    p[i] = std::exp(z[i] - mx);
    sum += p[i];
  }
  for (auto& v : p) v /= sum;
  return p;
}

namespace {

/// d/d logits of -log softmax_label: p_k - [k == label].
std::vector<double> loss_weights(const std::vector<double>& z,
                                 std::size_t label) {
  if (label >= z.size()) throw std::invalid_argument("grad_loss: bad label");
  auto weights = softmax(z);
  weights[label] -= 1.0;
  return weights;
}

}  // namespace

std::size_t argmax(const std::vector<double>& z) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < z.size(); ++i) {
    if (z[i] > z[best]) best = i;
  }
  return best;
}

std::vector<std::vector<double>> infer_logits(
    const Model& model, std::size_t dim, std::size_t classes,
    const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  Tensor batch({rows.size(), 1, dim});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != dim) {
      throw std::invalid_argument("infer_logits: row " + std::to_string(i) +
                                  " has dim " + std::to_string(rows[i].size()) +
                                  ", expected " + std::to_string(dim));
    }
    for (std::size_t j = 0; j < dim; ++j) {
      batch[i * dim + j] = static_cast<float>(rows[i][j]);
    }
  }
  const Tensor out = model.infer(batch);
  if (out.rank() != 2 || out.dim(0) != rows.size() || out.dim(1) != classes) {
    throw std::logic_error("infer_logits: unexpected batch output shape " +
                           out.shape_string());
  }
  std::vector<std::vector<double>> z(rows.size(), std::vector<double>(classes));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t k = 0; k < classes; ++k) z[i][k] = out.at2(i, k);
  }
  return z;
}

std::vector<std::vector<double>> DifferentiableClassifier::logits_batch(
    const std::vector<std::vector<double>>& xs) {
  std::vector<std::vector<double>> z;
  z.reserve(xs.size());
  for (const auto& x : xs) z.push_back(logits(x));
  return z;
}

std::vector<double> DifferentiableClassifier::probabilities(
    const std::vector<double>& x) {
  return softmax(logits(x));
}

std::vector<std::vector<double>> DifferentiableClassifier::probabilities_batch(
    const std::vector<std::vector<double>>& xs) {
  auto p = logits_batch(xs);
  for (auto& row : p) row = softmax(row);
  return p;
}

std::size_t DifferentiableClassifier::predict(const std::vector<double>& x) {
  return argmax(logits(x));
}

std::vector<double> DifferentiableClassifier::grad_weighted(
    const std::vector<double>& x, const std::vector<double>& weights) {
  std::vector<double> g(input_dim(), 0.0);
  for (std::size_t k = 0; k < num_classes(); ++k) {
    if (std::abs(weights[k]) < 1e-15) continue;
    const auto gk = grad_logit(x, k);
    for (std::size_t i = 0; i < g.size(); ++i) g[i] += weights[k] * gk[i];
  }
  return g;
}

std::vector<double> DifferentiableClassifier::grad_loss(
    const std::vector<double>& x, std::size_t label,
    std::vector<double>* logits_out) {
  // d/dx [-log softmax_label] = sum_k (p_k - [k==label]) * d logit_k / dx.
  auto z = logits(x);
  auto g = grad_weighted(x, loss_weights(z, label));
  if (logits_out != nullptr) *logits_out = std::move(z);
  return g;
}

// ---------------------------------------------------------------------------
// ModelClassifier

Tensor ModelClassifier::to_input(const std::vector<double>& x) const {
  if (x.size() != dim_) {
    throw std::invalid_argument("ModelClassifier: expected dim " +
                                std::to_string(dim_));
  }
  Tensor t({1, 1, dim_});
  for (std::size_t i = 0; i < dim_; ++i) t[i] = static_cast<float>(x[i]);
  return t;
}

std::vector<double> ModelClassifier::to_logits(const Tensor& out) const {
  if (out.rank() != 2 || out.dim(0) != 1 || out.dim(1) != classes_) {
    throw std::logic_error("ModelClassifier: unexpected output shape " +
                           out.shape_string());
  }
  std::vector<double> z(classes_);
  for (std::size_t i = 0; i < classes_; ++i) z[i] = out[i];
  return z;
}

std::vector<double> ModelClassifier::input_grad(
    const std::vector<double>& weights) {
  Tensor seed({1, classes_});
  for (std::size_t k = 0; k < classes_; ++k) {
    seed.at2(0, k) = static_cast<float>(weights[k]);
  }
  const Tensor gin = model_->backward_input(seed);
  std::vector<double> g(dim_);
  for (std::size_t i = 0; i < dim_; ++i) g[i] = gin[i];
  return g;
}

std::vector<double> ModelClassifier::logits(const std::vector<double>& x) {
  return to_logits(model_->infer(to_input(x)));
}

std::vector<std::vector<double>> ModelClassifier::logits_batch(
    const std::vector<std::vector<double>>& xs) {
  return infer_logits(*model_, dim_, classes_, xs);
}

std::unique_ptr<DifferentiableClassifier> ModelClassifier::clone() const {
  auto owned = std::make_unique<Model>(model_->clone());
  return std::unique_ptr<DifferentiableClassifier>(
      new ModelClassifier(std::move(owned), dim_, classes_));
}

std::vector<double> ModelClassifier::grad_logit(const std::vector<double>& x,
                                                std::size_t k) {
  if (k >= classes_) throw std::invalid_argument("grad_logit: bad class");
  std::vector<double> weights(classes_, 0.0);
  weights[k] = 1.0;
  return grad_weighted(x, weights);
}

std::vector<double> ModelClassifier::grad_weighted(
    const std::vector<double>& x, const std::vector<double>& weights) {
  if (weights.size() != classes_) {
    throw std::invalid_argument("grad_weighted: weight count mismatch");
  }
  (void)model_->forward(to_input(x), /*training=*/false);
  return input_grad(weights);
}

std::vector<double> ModelClassifier::grad_loss(
    const std::vector<double>& x, std::size_t label,
    std::vector<double>* logits_out) {
  auto z = to_logits(model_->forward(to_input(x), /*training=*/false));
  auto g = input_grad(loss_weights(z, label));
  if (logits_out != nullptr) *logits_out = std::move(z);
  return g;
}

}  // namespace gea::ml
