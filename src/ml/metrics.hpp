// Classification metrics matching the paper's reporting.
//
// MultiConfusion is the one confusion-matrix type: K×K, rows are truth,
// columns are predictions. The paper's binary metrics (accuracy rate,
// false-negative rate, false-positive rate) are its K=2 view under the
// paper's label convention, 1 = malicious (positive), 0 = benign: fnr(1)
// and fpr(1) divide the same integers the seed-era binary struct did, so
// every K=2 rate keeps its bits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ml/label_schema.hpp"

namespace gea::ml {

/// K×K confusion matrix. counts[actual * k + predicted]; rows are truth,
/// columns are predictions, so row sums are per-class support and column
/// sums are per-class prediction volume.
struct MultiConfusion {
  std::size_t k = 0;
  std::vector<std::size_t> counts;  // k*k, row-major [actual][predicted]

  explicit MultiConfusion(std::size_t num_classes = 0)
      : k(num_classes), counts(num_classes * num_classes, 0) {}

  std::size_t at(std::size_t actual, std::size_t predicted) const {
    return counts[actual * k + predicted];
  }
  std::size_t& at(std::size_t actual, std::size_t predicted) {
    return counts[actual * k + predicted];
  }

  std::size_t total() const;
  std::size_t row_sum(std::size_t actual) const;     // class support
  std::size_t col_sum(std::size_t predicted) const;  // prediction volume
  std::size_t diagonal() const;                      // correct predictions

  double accuracy() const;
  /// Precision/recall/F1 for one class (one-vs-rest), 0.0 on empty
  /// denominators; each is one double division of integer counts.
  double precision(std::size_t cls) const;
  double recall(std::size_t cls) const;
  double f1(std::size_t cls) const;
  /// One-vs-rest false-negative rate: misses of `cls` over its row sum
  /// (fnr(1) at K=2: malware that slipped through).
  double fnr(std::size_t cls) const;
  /// One-vs-rest false-positive rate: false alarms for `cls` over the
  /// other rows' total (fpr(1) at K=2: benign flagged as malware).
  double fpr(std::size_t cls) const;
  /// Unweighted mean of per-class F1 — the family-classification headline.
  double macro_f1() const;

  std::string to_string() const;
  /// to_string with schema class names as row/column headers.
  std::string to_string(const LabelSchema& schema) const;
};

/// Tally a K×K matrix. Throws std::invalid_argument on size mismatch or a
/// label outside [0, k) — out-of-schema labels are a producer bug, never
/// silently folded into a class.
MultiConfusion confusion_k(std::size_t num_classes,
                           const std::vector<std::uint8_t>& predicted,
                           const std::vector<std::uint8_t>& actual);

}  // namespace gea::ml
