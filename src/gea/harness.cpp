#include "gea/harness.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gea::aug {

struct GeaHarness::Sweep {
  /// (corpus index, predicted class) of every crafted sample.
  std::vector<std::pair<std::size_t, std::size_t>> predicted;
  std::size_t quarantined = 0;
  std::vector<std::string> diagnostics;
  std::size_t verified = 0;
  std::size_t equivalent = 0;
  double total_ms = 0.0;  // summed craft time of the crafted samples
};

namespace {

/// Batch scorer for select_by_size_confident_batch: the classifier's
/// probability of class `cls` for every candidate, from one batched call.
auto confidence_in(const features::FeatureScaler& scaler,
                   ml::DifferentiableClassifier& clf, std::uint8_t cls) {
  return [&scaler, &clf,
          cls](const std::vector<const dataset::Sample*>& cands) {
    std::vector<std::vector<double>> xs;
    xs.reserve(cands.size());
    for (const dataset::Sample* s : cands) {
      const auto scaled = scaler.transform(s->features);
      xs.emplace_back(scaled.begin(), scaled.end());
    }
    std::vector<double> scores;
    scores.reserve(cands.size());
    for (const auto& p : clf.probabilities_batch(xs)) scores.push_back(p[cls]);
    return scores;
  };
}

}  // namespace

GeaHarness::Sweep GeaHarness::sweep(
    std::size_t target_index, const GeaHarnessOptions& opts,
    std::size_t verify_every, const char* name,
    const std::function<bool(const dataset::Sample&)>& is_source) const {
  const auto& samples = corpus_->samples();
  const dataset::Sample& target = samples[target_index];

  // Per-sample splice+featurize times land in "gea.craft_ms" (the Tables
  // IV-VII CT column as a distribution).
  auto& registry = obs::MetricsRegistry::global();
  obs::Histogram& craft_ms_hist = registry.histogram("gea.craft_ms");
  obs::Counter& crafted_total = registry.counter("gea.crafted_total");
  obs::Counter& quarantined_total = registry.counter("gea.quarantined_total");
  obs::Counter& verified_total = registry.counter("gea.verified_total");
  obs::Counter& equivalent_total = registry.counter("gea.equivalent_total");

  struct Slot {
    isa::Program augmented;  // kept only when verifying
    features::FeatureVector fv{};
    double ms = 0.0;
    std::exception_ptr error;
  };

  Sweep out;
  // Wave loop (see run_attack): under a sample cap, quarantined crafts do
  // not count toward the cap, so candidates are collected in waves of
  // `cap - samples` until the cap is met — visiting exactly the samples the
  // serial loop would.
  std::size_t pos = 0;
  while (pos < samples.size() &&
         (opts.max_samples == 0 || out.predicted.size() < opts.max_samples)) {
    const std::size_t need = opts.max_samples == 0
                                 ? samples.size()
                                 : opts.max_samples - out.predicted.size();

    // Serial scan in corpus order: source filter plus the correctly-
    // classified eligibility check, which scores one batch of sources per
    // logits_batch call, at most as many as the wave still lacks, so the
    // scan consumes exactly the samples a one-at-a-time scan would (see
    // run_attack).
    std::vector<std::size_t> wave;
    while (pos < samples.size() && wave.size() < need) {
      std::vector<std::size_t> candidates;
      while (pos < samples.size() && wave.size() + candidates.size() < need) {
        const std::size_t i = pos++;
        if (i != target_index && is_source(samples[i])) candidates.push_back(i);
      }
      if (!opts.skip_already_misclassified || candidates.empty()) {
        wave.insert(wave.end(), candidates.begin(), candidates.end());
        continue;
      }
      std::vector<std::vector<double>> xs;
      xs.reserve(candidates.size());
      for (const std::size_t i : candidates) {
        const auto t = scaler_->transform(samples[i].features);
        xs.emplace_back(t.begin(), t.end());
      }
      const auto z = clf_->logits_batch(xs);
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        if (ml::argmax(z[k]) == samples[candidates[k]].label) {
          wave.push_back(candidates[k]);
        }
      }
    }
    if (wave.empty()) break;

    // Parallel craft: splice, re-disassemble, re-featurize (the timed
    // pipeline). Embedding is a pure function of (source, target, options),
    // so thread count cannot change the crafted programs. Per-sample
    // failures (embed exception, invalid merged CFG, non-finite crafted
    // features) are captured in the slot so one degenerate binary cannot
    // abort a whole sweep.
    std::vector<Slot> slots(wave.size());
    auto status = util::parallel_for(
        wave.size(),
        [&](std::size_t w) {
          const dataset::Sample& s = samples[wave[w]];
          util::Stopwatch sw;
          try {
            EmbedResult crafted =
                embed_with_cfg(s.program, target.program, opts.embed);
            // Per-worker engine, harness-wide cache: a combined graph seen
            // in an earlier row (same source spliced with the same graft)
            // skips the traversal entirely.
            slots[w].fv = features::FeatureEngine::local().extract(
                crafted.cfg.graph, feature_cache_.get());
            if (!features::all_finite(slots[w].fv)) {
              throw std::runtime_error(
                  "non-finite feature " +
                  features::feature_name(
                      features::first_non_finite(slots[w].fv)));
            }
            if (verify_every != 0) {
              slots[w].augmented = std::move(crafted.program);
            }
          } catch (...) {
            slots[w].error = std::current_exception();
          }
          slots[w].ms = sw.elapsed_ms();
          return util::Status::ok();
        },
        {.threads = opts.threads, .label = name});
    if (!status.is_ok()) {
      throw std::runtime_error(status.to_string());
    }

    // Serial merge in corpus order: quarantine accounting, one batched
    // classification of the crafted samples, and the verification stride
    // over crafted samples only, so which samples get verified does not
    // depend on the thread count.
    std::vector<std::size_t> crafted;  // wave positions that crafted cleanly
    std::vector<std::vector<double>> xs;
    for (std::size_t w = 0; w < wave.size(); ++w) {
      const dataset::Sample& s = samples[wave[w]];
      Slot& slot = slots[w];
      if (slot.error) {
        if (opts.strict) std::rethrow_exception(slot.error);
        std::string diag = "sample " + std::to_string(s.id) + ": ";
        try {
          std::rethrow_exception(slot.error);
        } catch (const std::exception& e) {
          diag += e.what();
        } catch (...) {
          diag += "non-standard exception";
        }
        ++out.quarantined;
        quarantined_total.inc();
        if (out.diagnostics.size() < opts.max_diagnostics) {
          out.diagnostics.push_back(diag);
        }
        util::log_warn(name, ": quarantined ", diag);
        continue;
      }
      out.total_ms += slot.ms;
      craft_ms_hist.observe(slot.ms);
      crafted_total.inc();
      const auto scaled = scaler_->transform(slot.fv);
      xs.emplace_back(scaled.begin(), scaled.end());
      crafted.push_back(w);
    }
    const auto z = clf_->logits_batch(xs);
    std::vector<std::size_t> picked;  // wave positions to verify
    for (std::size_t k = 0; k < crafted.size(); ++k) {
      out.predicted.emplace_back(wave[crafted[k]], ml::argmax(z[k]));
      if (verify_every != 0 && (out.predicted.size() - 1) % verify_every == 0) {
        picked.push_back(crafted[k]);
      }
    }

    // Parallel verification of the picked samples: each check executes two
    // programs and reads nothing shared, so only the counting is serial.
    std::vector<char> equivalent(picked.size(), 0);
    status = util::parallel_for(
        picked.size(),
        [&](std::size_t k) {
          const std::size_t w = picked[k];
          equivalent[k] = functionally_equivalent(samples[wave[w]].program,
                                                  slots[w].augmented);
          return util::Status::ok();
        },
        {.threads = opts.threads, .label = name});
    if (!status.is_ok()) {
      throw std::runtime_error(status.to_string());
    }
    for (const char eq : equivalent) {
      ++out.verified;
      verified_total.inc();
      if (eq) {
        ++out.equivalent;
        equivalent_total.inc();
      }
    }
  }
  return out;
}

GeaRow GeaHarness::attack_with_target(std::uint8_t source_label,
                                      std::size_t target_index,
                                      const GeaHarnessOptions& opts) const {
  const auto& samples = corpus_->samples();
  if (target_index >= samples.size()) {
    throw std::invalid_argument("attack_with_target: bad target index");
  }
  const dataset::Sample& target = samples[target_index];
  if (target.label == source_label) {
    throw std::invalid_argument(
        "attack_with_target: target must be from the opposite class");
  }

  GeaRow row;
  row.target_nodes = target.num_nodes();
  row.target_edges = target.num_edges();

  obs::TraceSpan run_span("gea.attack_with_target");
  Sweep sw = sweep(
      target_index, opts, opts.verify_every, "gea harness",
      [&](const dataset::Sample& s) { return s.label == source_label; });

  obs::Counter& misclassified_total =
      obs::MetricsRegistry::global().counter("gea.misclassified_total");
  for (const auto& [i, pred] : sw.predicted) {
    if (pred != samples[i].label) {
      ++row.misclassified;
      misclassified_total.inc();
    }
  }
  row.samples = sw.predicted.size();
  row.quarantined = sw.quarantined;
  row.diagnostics = std::move(sw.diagnostics);
  if (row.samples > 0) {
    row.craft_ms_per_sample = sw.total_ms / static_cast<double>(row.samples);
  }
  row.equivalence_rate = sw.verified == 0
                             ? 0.0
                             : static_cast<double>(sw.equivalent) /
                                   static_cast<double>(sw.verified);
  return row;
}

FamilyEvasionReport GeaHarness::family_attack(
    std::size_t target_index, const ml::LabelSchema& schema,
    const GeaHarnessOptions& opts) const {
  const auto& samples = corpus_->samples();
  if (target_index >= samples.size()) {
    throw std::invalid_argument("family_attack: bad target index");
  }
  if (clf_->num_classes() != schema.num_classes()) {
    throw std::invalid_argument(
        "family_attack: classifier head width " +
        std::to_string(clf_->num_classes()) + " != schema classes " +
        std::to_string(schema.num_classes()));
  }
  const dataset::Sample& target = samples[target_index];
  if (!schema.valid_label(target.label)) {
    throw std::invalid_argument("family_attack: target label outside schema");
  }
  const std::uint8_t target_class = target.label;

  FamilyEvasionReport rep;
  rep.matrix = ml::MultiConfusion(schema.num_classes());

  // Every other class is a source; no equivalence verification.
  obs::TraceSpan run_span("gea.family_attack");
  Sweep sw = sweep(target_index, opts, /*verify_every=*/0, "gea family",
                   [&](const dataset::Sample& s) {
                     if (s.label == target_class) return false;
                     if (!schema.valid_label(s.label)) {
                       throw std::invalid_argument(
                           "family_attack: sample " + std::to_string(s.id) +
                           " label outside schema (relabel the corpus first)");
                     }
                     return true;
                   });

  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& targeted_total = registry.counter("gea.family_targeted_total");
  obs::Counter& evaded_total = registry.counter("gea.family_evaded_total");
  for (const auto& [i, pred] : sw.predicted) {
    const std::uint8_t label = samples[i].label;
    rep.matrix.at(label, pred) += 1;
    if (pred == target_class) {
      ++rep.targeted_hits;
      targeted_total.inc();
    }
    if (pred != label) {
      ++rep.evaded;
      evaded_total.inc();
    }
  }
  rep.samples = sw.predicted.size();
  rep.quarantined = sw.quarantined;
  rep.diagnostics = std::move(sw.diagnostics);
  if (rep.samples > 0) {
    rep.craft_ms_per_sample = sw.total_ms / static_cast<double>(rep.samples);
  }
  return rep;
}

FamilyEvasionReport GeaHarness::family_evasion_matrix(
    const ml::LabelSchema& schema, const GeaHarnessOptions& opts) const {
  FamilyEvasionReport out;
  out.matrix = ml::MultiConfusion(schema.num_classes());
  double weighted_ms = 0.0;
  for (std::size_t c = 0; c < schema.num_classes(); ++c) {
    const auto cls = static_cast<std::uint8_t>(c);
    if (corpus_->count_label(cls) == 0) continue;
    const std::size_t donor = select_by_size_confident_batch(
        *corpus_, cls, SizeRank::kMedian, confidence_in(*scaler_, *clf_, cls));
    FamilyEvasionReport rep = family_attack(donor, schema, opts);
    out.samples += rep.samples;
    out.targeted_hits += rep.targeted_hits;
    out.evaded += rep.evaded;
    out.quarantined += rep.quarantined;
    weighted_ms += rep.craft_ms_per_sample * static_cast<double>(rep.samples);
    for (std::size_t i = 0; i < rep.matrix.counts.size(); ++i) {
      out.matrix.counts[i] += rep.matrix.counts[i];
    }
    for (auto& d : rep.diagnostics) {
      if (out.diagnostics.size() < opts.max_diagnostics) {
        out.diagnostics.push_back(std::move(d));
      }
    }
  }
  if (out.samples > 0) {
    out.craft_ms_per_sample = weighted_ms / static_cast<double>(out.samples);
  }
  return out;
}

std::vector<GeaRow> GeaHarness::size_sweep(std::uint8_t source_label,
                                           const GeaHarnessOptions& opts) const {
  const std::uint8_t target_label =
      source_label == dataset::kBenign ? dataset::kMalicious : dataset::kBenign;
  // Among similarly-sized candidates, graft the one the detector classifies
  // most confidently as the target class (see select_by_size_confident).
  const auto confidence = confidence_in(*scaler_, *clf_, target_label);
  std::vector<GeaRow> rows;
  for (SizeRank rank :
       {SizeRank::kMinimum, SizeRank::kMedian, SizeRank::kMaximum}) {
    const std::size_t t = select_by_size_confident_batch(*corpus_, target_label,
                                                         rank, confidence);
    GeaRow row = attack_with_target(source_label, t, opts);
    row.label = size_rank_name(rank);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<GeaRow> GeaHarness::density_sweep(std::uint8_t source_label,
                                              std::size_t groups,
                                              std::size_t variants,
                                              const GeaHarnessOptions& opts) const {
  const std::uint8_t target_label =
      source_label == dataset::kBenign ? dataset::kMalicious : dataset::kBenign;
  std::vector<GeaRow> rows;
  for (const auto& g :
       pick_density_targets(*corpus_, target_label, groups, variants)) {
    for (std::size_t t : g.sample_indices) {
      GeaRow row = attack_with_target(source_label, t, opts);
      row.label = std::to_string(g.num_nodes) + " nodes";
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace gea::aug
