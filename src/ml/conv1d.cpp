#include "ml/conv1d.hpp"

#include <cmath>
#include <stdexcept>

#include "kernels/conv.hpp"

namespace gea::ml {

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_size, Padding padding)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      k_(kernel_size),
      padding_(padding),
      w_(out_channels * in_channels * kernel_size, 0.0f),
      b_(out_channels, 0.0f),
      gw_(w_.size(), 0.0f),
      gb_(b_.size(), 0.0f) {
  if (kernel_size == 0 || kernel_size % 2 == 0) {
    throw std::invalid_argument("Conv1D: kernel size must be odd and nonzero");
  }
}

std::size_t Conv1D::output_length(std::size_t input_length) const {
  if (padding_ == Padding::kSame) return input_length;
  if (input_length < k_) {
    throw std::invalid_argument("Conv1D: input shorter than kernel");
  }
  return input_length - k_ + 1;
}

LayerPtr Conv1D::clone() const {
  auto c = std::make_unique<Conv1D>(in_ch_, out_ch_, k_, padding_);
  c->w_ = w_;
  c->b_ = b_;
  return c;
}

void Conv1D::init(util::Rng& rng) {
  const double fan_in = static_cast<double>(in_ch_ * k_);
  const double scale = std::sqrt(2.0 / fan_in);
  for (auto& w : w_) w = static_cast<float>(rng.normal(0.0, scale));
  for (auto& b : b_) b = 0.0f;
}

kernels::Conv1DShape Conv1D::shape_for(const Tensor& x) const {
  kernels::Conv1DShape s;
  s.n = x.dim(0);
  s.in_ch = in_ch_;
  s.l_in = x.dim(2);
  s.out_ch = out_ch_;
  s.k = k_;
  s.same = padding_ == Padding::kSame;
  if (!s.same && s.l_in < k_) {
    throw std::invalid_argument("Conv1D: input shorter than kernel");
  }
  return s;
}

Tensor Conv1D::infer(const Tensor& x) const {
  if (x.rank() != 3 || x.dim(1) != in_ch_) {
    throw std::invalid_argument("Conv1D: expected (N, " +
                                std::to_string(in_ch_) + ", L), got " +
                                x.shape_string());
  }
  const auto s = shape_for(x);
  Tensor y({s.n, out_ch_, s.l_out()});
  kernels::conv1d_forward(s, x.data(), w_.data(), b_.data(), y.data());
  return y;
}

Tensor Conv1D::forward(const Tensor& x, bool /*training*/) {
  Tensor y = infer(x);
  last_input_ = x;
  return y;
}

Tensor Conv1D::backward(const Tensor& grad_out) {
  return propagate(grad_out, gw_.data(), gb_.data());
}

Tensor Conv1D::backward_input(const Tensor& grad_out) {
  return propagate(grad_out, nullptr, nullptr);
}

Tensor Conv1D::propagate(const Tensor& grad_out, float* gw, float* gb) {
  const auto s = shape_for(last_input_);
  if (grad_out.rank() != 3 || grad_out.dim(0) != s.n ||
      grad_out.dim(1) != out_ch_ || grad_out.dim(2) != s.l_out()) {
    throw std::invalid_argument("Conv1D::backward: bad gradient shape " +
                                grad_out.shape_string());
  }
  Tensor grad_in({s.n, in_ch_, s.l_in});
  kernels::conv1d_backward(s, last_input_.data(), w_.data(), grad_out.data(),
                           grad_in.data(), gw, gb);
  return grad_in;
}

std::vector<Param> Conv1D::params() {
  return {{&w_, &gw_, "conv1d.w"}, {&b_, &gb_, "conv1d.b"}};
}

std::string Conv1D::describe() const {
  return "Conv1D(" + std::to_string(in_ch_) + "->" + std::to_string(out_ch_) +
         ", k=" + std::to_string(k_) +
         (padding_ == Padding::kSame ? ", same)" : ", valid)");
}

}  // namespace gea::ml
