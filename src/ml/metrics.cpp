#include "ml/metrics.hpp"

#include <sstream>
#include <stdexcept>

namespace gea::ml {

std::size_t MultiConfusion::total() const {
  std::size_t n = 0;
  for (std::size_t c : counts) n += c;
  return n;
}

std::size_t MultiConfusion::row_sum(std::size_t actual) const {
  std::size_t n = 0;
  for (std::size_t p = 0; p < k; ++p) n += at(actual, p);
  return n;
}

std::size_t MultiConfusion::col_sum(std::size_t predicted) const {
  std::size_t n = 0;
  for (std::size_t a = 0; a < k; ++a) n += at(a, predicted);
  return n;
}

std::size_t MultiConfusion::diagonal() const {
  std::size_t n = 0;
  for (std::size_t c = 0; c < k; ++c) n += at(c, c);
  return n;
}

double MultiConfusion::accuracy() const {
  const auto t = total();
  return t == 0 ? 0.0
               : static_cast<double>(diagonal()) / static_cast<double>(t);
}

double MultiConfusion::precision(std::size_t cls) const {
  const auto den = col_sum(cls);
  return den == 0 ? 0.0
                  : static_cast<double>(at(cls, cls)) /
                        static_cast<double>(den);
}

double MultiConfusion::recall(std::size_t cls) const {
  const auto den = row_sum(cls);
  return den == 0 ? 0.0
                  : static_cast<double>(at(cls, cls)) /
                        static_cast<double>(den);
}

double MultiConfusion::f1(std::size_t cls) const {
  const double p = precision(cls), r = recall(cls);
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double MultiConfusion::fnr(std::size_t cls) const {
  const auto den = row_sum(cls);
  return den == 0 ? 0.0
                  : static_cast<double>(den - at(cls, cls)) /
                        static_cast<double>(den);
}

double MultiConfusion::fpr(std::size_t cls) const {
  const auto den = total() - row_sum(cls);
  return den == 0 ? 0.0
                  : static_cast<double>(col_sum(cls) - at(cls, cls)) /
                        static_cast<double>(den);
}

double MultiConfusion::macro_f1() const {
  if (k == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t c = 0; c < k; ++c) sum += f1(c);
  return sum / static_cast<double>(k);
}

std::string MultiConfusion::to_string() const {
  std::ostringstream ss;
  ss << "K=" << k;
  for (std::size_t a = 0; a < k; ++a) {
    ss << (a == 0 ? " [" : " | ");
    for (std::size_t p = 0; p < k; ++p) {
      if (p > 0) ss << ' ';
      ss << at(a, p);
    }
  }
  if (k > 0) ss << ']';
  return ss.str();
}

std::string MultiConfusion::to_string(const LabelSchema& schema) const {
  std::ostringstream ss;
  ss << "actual\\predicted";
  for (std::size_t p = 0; p < k; ++p) ss << ' ' << schema.name(p);
  for (std::size_t a = 0; a < k; ++a) {
    ss << '\n' << schema.name(a) << ':';
    for (std::size_t p = 0; p < k; ++p) ss << ' ' << at(a, p);
  }
  return ss.str();
}

MultiConfusion confusion_k(std::size_t num_classes,
                           const std::vector<std::uint8_t>& predicted,
                           const std::vector<std::uint8_t>& actual) {
  if (predicted.size() != actual.size()) {
    throw std::invalid_argument("confusion_k: size mismatch");
  }
  MultiConfusion m(num_classes);
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] >= num_classes || actual[i] >= num_classes) {
      throw std::invalid_argument("confusion_k: label outside schema at row " +
                                  std::to_string(i));
    }
    ++m.at(actual[i], predicted[i]);
  }
  return m;
}

}  // namespace gea::ml
