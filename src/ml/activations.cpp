#include "ml/activations.hpp"

#include <sstream>
#include <stdexcept>

namespace gea::ml {

// One rule, x > 0 ? x : 0, for the output and for which lanes backward
// passes. Each loop is a branch-free select the compiler vectorizes.
Tensor ReLU::infer(const Tensor& x) const {
  Tensor y = x;
  float* yv = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) {
    yv[i] = yv[i] > 0.0f ? yv[i] : 0.0f;
  }
  return y;
}

Tensor ReLU::forward(const Tensor& x, bool /*training*/) {
  last_input_ = x;
  return infer(x);
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (grad_out.size() != last_input_.size()) {
    throw std::invalid_argument("ReLU::backward: gradient size mismatch");
  }
  Tensor grad_in = grad_out;
  float* gv = grad_in.data();
  const float* xv = last_input_.data();
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    gv[i] = xv[i] > 0.0f ? gv[i] : 0.0f;
  }
  return grad_in;
}

Dropout::Dropout(double p, util::Rng& rng) : p_(p), rng_(&rng) {
  if (p < 0.0 || p >= 1.0) throw std::invalid_argument("Dropout: p must be in [0,1)");
}

Tensor Dropout::forward(const Tensor& x, bool training) {
  last_training_ = training;
  if (!training || p_ == 0.0) return infer(x);
  Tensor y = x;
  mask_.assign(x.size(), 0.0f);
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (!rng_->chance(p_)) mask_[i] = keep_scale;
    y[i] *= mask_[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (!last_training_ || p_ == 0.0) return grad_out;
  if (grad_out.size() != mask_.size()) {
    throw std::invalid_argument("Dropout::backward: gradient size mismatch");
  }
  Tensor grad_in = grad_out;
  for (std::size_t i = 0; i < grad_in.size(); ++i) grad_in[i] *= mask_[i];
  return grad_in;
}

std::string Dropout::describe() const {
  std::ostringstream ss;
  ss << "Dropout(p=" << p_ << ")";
  return ss.str();
}

Tensor Flatten::infer(const Tensor& x) const {
  if (x.rank() < 2) {
    throw std::invalid_argument("Flatten: expected rank>=2, got " +
                                x.shape_string());
  }
  Tensor y = x;
  std::size_t rest = 1;
  for (std::size_t i = 1; i < x.rank(); ++i) rest *= x.dim(i);
  y.reshape({x.dim(0), rest});
  return y;
}

Tensor Flatten::forward(const Tensor& x, bool /*training*/) {
  Tensor y = infer(x);
  in_shape_ = x.shape();
  return y;
}

Tensor Flatten::backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  grad_in.reshape(in_shape_);
  return grad_in;
}

}  // namespace gea::ml
