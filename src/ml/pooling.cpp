#include "ml/pooling.hpp"

#include <stdexcept>

namespace gea::ml {

MaxPool1D::MaxPool1D(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument("MaxPool1D: zero window");
}

std::size_t MaxPool1D::pooled_length(const Tensor& x) const {
  if (x.rank() != 3) {
    throw std::invalid_argument("MaxPool1D: expected rank-3, got " +
                                x.shape_string());
  }
  const std::size_t lo = x.dim(2) / window_;
  if (lo == 0) throw std::invalid_argument("MaxPool1D: input shorter than window");
  return lo;
}

std::size_t MaxPool1D::window_argmax(const float* row, std::size_t j) const {
  std::size_t best = j * window_;
  for (std::size_t t = 1; t < window_; ++t) {
    const std::size_t idx = j * window_ + t;
    if (row[idx] > row[best]) best = idx;
  }
  return best;
}

Tensor MaxPool1D::infer(const Tensor& x) const {
  const std::size_t lo = pooled_length(x);
  const std::size_t rows = x.dim(0) * x.dim(1), l = x.dim(2);
  Tensor y({x.dim(0), x.dim(1), lo});
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xrow = x.data() + r * l;
    float* yrow = y.data() + r * lo;
    for (std::size_t j = 0; j < lo; ++j) yrow[j] = xrow[window_argmax(xrow, j)];
  }
  return y;
}

Tensor MaxPool1D::forward(const Tensor& x, bool /*training*/) {
  Tensor y = infer(x);
  last_input_ = x;
  return y;
}

Tensor MaxPool1D::backward(const Tensor& grad_out) {
  const Tensor& x = last_input_;
  const std::size_t lo = pooled_length(x);  // throws before any forward
  const std::size_t rows = x.dim(0) * x.dim(1), l = x.dim(2);
  if (grad_out.size() != rows * lo) {
    throw std::invalid_argument("MaxPool1D::backward: gradient size mismatch");
  }
  Tensor grad_in(x.shape());
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xrow = x.data() + r * l;
    float* grow = grad_in.data() + r * l;
    for (std::size_t j = 0; j < lo; ++j) {
      grow[window_argmax(xrow, j)] += grad_out[r * lo + j];
    }
  }
  return grad_in;
}

std::string MaxPool1D::describe() const {
  return "MaxPool1D(window=" + std::to_string(window_) + ")";
}

}  // namespace gea::ml
