#include "attacks/harness.hpp"

#include <cmath>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gea::attacks {

AttackRow run_attack(Attack& attack, ml::DifferentiableClassifier& clf,
                     const std::vector<std::vector<double>>& rows,
                     const std::vector<std::uint8_t>& labels,
                     const features::DistortionValidator* validator,
                     const HarnessOptions& opts) {
  if (rows.size() != labels.size()) {
    throw std::invalid_argument("run_attack: label count mismatch");
  }
  AttackRow out;
  out.attack = attack.name();

  // The whole run is one span; per-sample crafting times feed the
  // "attacks.craft_ms" histogram at the serial merge, which is exactly the
  // paper's Table III CT column as a queryable distribution.
  obs::TraceSpan run_span("attacks.run." + out.attack);
  auto& registry = obs::MetricsRegistry::global();
  obs::Histogram& craft_ms_hist = registry.histogram("attacks.craft_ms");
  obs::Counter& crafted_total = registry.counter("attacks.crafted_total");
  obs::Counter& misclassified_total =
      registry.counter("attacks.misclassified_total");
  obs::Counter& quarantined_total =
      registry.counter("attacks.quarantined_total");

  const std::size_t lanes_wanted = util::resolve_threads(
      {.threads = opts.threads, .label = "attack harness"});

  // Crafting mutates attack state (iterate buffers, Rng) and classifier
  // state (forward/backward caches), so each concurrent lane needs its own
  // replica. Lane 0 reuses the caller's objects; if either side cannot
  // clone, run serially rather than race.
  std::vector<AttackPtr> extra_attacks;
  std::vector<std::unique_ptr<ml::DifferentiableClassifier>> extra_clfs;
  std::size_t lanes = lanes_wanted;
  for (std::size_t i = 1; i < lanes_wanted; ++i) {
    auto ac = attack.clone();
    auto cc = clf.clone();
    if (!ac || !cc) {
      util::log_warn("attack harness: ", attack.name(),
                     " or classifier not cloneable; crafting serially");
      lanes = 1;
      extra_attacks.clear();
      extra_clfs.clear();
      break;
    }
    extra_attacks.push_back(std::move(ac));
    extra_clfs.push_back(std::move(cc));
  }

  double total_ms = 0.0;
  double total_changed = 0.0;
  double total_l2 = 0.0;
  std::size_t valid = 0;

  auto row_finite = [](const std::vector<double>& v) {
    for (double d : v) {
      if (!std::isfinite(d)) return false;
    }
    return true;
  };

  struct Slot {
    std::vector<double> adv;
    double ms = 0.0;
    std::exception_ptr error;
  };

  // Wave loop: under a sample cap, which rows get visited depends on how
  // many earlier crafts succeed (quarantined crafts do not count toward the
  // cap), so candidates are collected in waves of `cap - samples` and the
  // loop re-scans until the cap is met or the rows run out. This visits
  // exactly the rows the serial loop would.
  std::size_t pos = 0;
  while (pos < rows.size() &&
         (opts.max_samples == 0 || out.samples < opts.max_samples)) {
    const std::size_t need =
        opts.max_samples == 0 ? rows.size() : opts.max_samples - out.samples;

    // Serial scan in row order: quarantine gate (a NaN/Inf row would poison
    // gradients; a width mismatch would index out of bounds) and the
    // correctly-classified eligibility filter. The filter scores one batch
    // of candidates per logits_batch call, at most as many as the wave
    // still lacks: the wave fills only when every candidate of the last
    // batch is eligible, so the scan consumes exactly the rows that a
    // row-at-a-time predict() scan would.
    std::vector<std::size_t> wave;
    while (pos < rows.size() && wave.size() < need) {
      std::vector<std::size_t> candidates;
      while (pos < rows.size() && wave.size() + candidates.size() < need) {
        const std::size_t s = pos++;
        const auto& x = rows[s];
        if (x.size() != clf.input_dim() || !row_finite(x)) {
          if (opts.strict) {
            throw std::invalid_argument("run_attack: malformed input row " +
                                        std::to_string(s));
          }
          ++out.quarantined;
          util::log_warn("attack harness: quarantined malformed input row ",
                         s);
          continue;
        }
        candidates.push_back(s);
      }
      if (!opts.skip_already_misclassified || candidates.empty()) {
        wave.insert(wave.end(), candidates.begin(), candidates.end());
        continue;
      }
      std::vector<std::vector<double>> xs;
      xs.reserve(candidates.size());
      for (const std::size_t s : candidates) xs.push_back(rows[s]);
      const auto z = clf.logits_batch(xs);
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        if (ml::argmax(z[k]) == labels[candidates[k]]) {
          wave.push_back(candidates[k]);
        }
      }
    }
    if (wave.empty()) break;

    // Parallel craft into index-addressed slots. One chunk per lane so each
    // chunk owns one replica; per-sample reseeding makes every craft a pure
    // function of (row, opts.seed), so neither chunking nor thread count
    // can change the vectors. Failures are captured per slot, not lost.
    std::vector<Slot> slots(wave.size());
    const auto status = util::parallel_for_ranges(
        wave.size(), lanes,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          Attack& atk = chunk == 0 ? attack : *extra_attacks[chunk - 1];
          ml::DifferentiableClassifier& cc =
              chunk == 0 ? clf : *extra_clfs[chunk - 1];
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t s = wave[i];
            const auto& x = rows[s];
            const std::size_t target = labels[s] == 0 ? 1 : 0;
            atk.reseed(util::mix_seed(opts.seed, s));
            util::Stopwatch sw;
            try {
              auto adv = atk.craft(cc, x, target);
              if (adv.size() != x.size() || !row_finite(adv)) {
                throw std::runtime_error("attack produced a malformed vector");
              }
              slots[i].adv = std::move(adv);
            } catch (...) {
              slots[i].error = std::current_exception();
            }
            slots[i].ms = sw.elapsed_ms();
          }
          return util::Status::ok();
        },
        {.threads = lanes, .label = "attack harness"});
    if (!status.is_ok()) {
      // Per-sample failures live in slots; a Status here is a pool-level
      // failure (shutdown mid-run) and has no quarantine interpretation.
      throw std::runtime_error(status.to_string());
    }

    // The wave's crafted vectors are classified in one batched call (row k
    // bitwise equal to a per-row predict).
    std::vector<std::vector<double>> advs;
    for (Slot& slot : slots) {
      if (!slot.error) advs.push_back(std::move(slot.adv));
    }
    const auto z = clf.logits_batch(advs);

    // Merge in index order: quarantine accounting, prediction, validation,
    // and the floating-point reductions all happen serially in row order,
    // so the statistics are bitwise reproducible.
    std::size_t next = 0;  // index into advs and z
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const std::size_t s = wave[i];
      Slot& slot = slots[i];
      if (slot.error) {
        if (opts.strict) std::rethrow_exception(slot.error);
        ++out.quarantined;
        quarantined_total.inc();
        try {
          std::rethrow_exception(slot.error);
        } catch (const std::exception& e) {
          util::log_warn("attack harness: quarantined sample ", s, " (",
                         attack.name(), "): ", e.what());
        } catch (...) {
          util::log_warn("attack harness: quarantined sample ", s, " (",
                         attack.name(), "): non-standard exception");
        }
        continue;
      }
      const std::size_t k = next++;
      const auto& x = rows[s];
      const auto& adv = advs[k];
      total_ms += slot.ms;
      craft_ms_hist.observe(slot.ms);
      crafted_total.inc();
      ++out.samples;

      std::size_t changed = 0;
      double l2sq = 0.0;
      for (std::size_t j = 0; j < x.size(); ++j) {
        const double d = adv[j] - x[j];
        if (std::abs(d) > opts.change_tolerance) ++changed;
        l2sq += d * d;
      }
      total_changed += static_cast<double>(changed);
      total_l2 += std::sqrt(l2sq);

      if (ml::argmax(z[k]) != labels[s]) {
        ++out.misclassified;
        misclassified_total.inc();
      }
      if (validator != nullptr) {
        features::FeatureVector fv{};
        if (adv.size() != fv.size()) {
          throw std::invalid_argument("run_attack: validator dim mismatch");
        }
        for (std::size_t j = 0; j < fv.size(); ++j) fv[j] = adv[j];
        if (validator->validate(fv).admissible()) ++valid;
      }
    }
  }

  if (out.samples > 0) {
    const auto n = static_cast<double>(out.samples);
    out.avg_features_changed = total_changed / n;
    out.craft_ms_per_sample = total_ms / n;
    out.mean_l2 = total_l2 / n;
    out.valid_fraction = validator ? static_cast<double>(valid) / n : 0.0;
  }
  return out;
}

std::vector<AttackPtr> make_paper_attacks() {
  std::vector<AttackPtr> attacks;
  attacks.push_back(std::make_unique<CarliniWagnerL2>(
      CwConfig{.learning_rate = 0.1, .iterations = 200}));
  attacks.push_back(std::make_unique<DeepFool>(
      DeepFoolConfig{.overshoot = 0.02, .iterations = 100}));
  attacks.push_back(std::make_unique<ElasticNet>(
      ElasticNetConfig{.learning_rate = 0.1, .iterations = 250}));
  attacks.push_back(std::make_unique<Fgsm>(FgsmConfig{.epsilon = 0.3}));
  attacks.push_back(std::make_unique<Jsma>(JsmaConfig{.theta = 0.3, .gamma = 0.6}));
  attacks.push_back(std::make_unique<Mim>(
      MimConfig{.epsilon = 0.3, .iterations = 10}));
  attacks.push_back(std::make_unique<Pgd>(
      PgdConfig{.epsilon = 0.3, .iterations = 40}));
  attacks.push_back(std::make_unique<Vam>(
      VamConfig{.epsilon = 0.3, .power_iterations = 40}));
  return attacks;
}

}  // namespace gea::attacks
