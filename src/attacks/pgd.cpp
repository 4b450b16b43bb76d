#include "attacks/pgd.hpp"

#include <algorithm>

namespace gea::attacks {

std::vector<double> Pgd::craft(ml::DifferentiableClassifier& clf,
                               const std::vector<double>& x,
                               std::size_t target) {
  (void)target;
  const std::size_t label = clf.predict(x);
  const double step =
      cfg_.step > 0.0 ? cfg_.step
                      : 2.5 * cfg_.epsilon / static_cast<double>(cfg_.iterations);

  std::vector<double> adv = x;
  if (cfg_.random_start) {
    for (auto& v : adv) v += rng_.uniform(-cfg_.epsilon, cfg_.epsilon);
    detail::clamp01(adv);
  }
  std::vector<double> z;
  for (std::size_t it = 0; it < cfg_.iterations; ++it) {
    const auto g = clf.grad_loss(adv, label, &z);
    // Early exit once the previous step's point is misclassified; the
    // gradient call just computed its logits.
    if (it > 0 && ml::argmax(z) != label) break;
    for (std::size_t i = 0; i < adv.size(); ++i) {
      adv[i] += step * detail::sgn(g[i]);
      // Project onto the eps-ball around the original point.
      adv[i] = std::clamp(adv[i], x[i] - cfg_.epsilon, x[i] + cfg_.epsilon);
    }
    detail::clamp01(adv);
  }
  return adv;
}

}  // namespace gea::attacks
