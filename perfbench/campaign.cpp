// Attack campaign phases: GEA size sweeps in both directions (GeaHarness)
// and PGD with the paper's settings (run_attack), both at the configured
// thread count; plus the traced round that times each layer from outside.
#include <cmath>
#include <cstdio>

#include "attacks/harness.hpp"
#include "common.hpp"
#include "features/engine.hpp"
#include "gea/embed.hpp"
#include "gea/harness.hpp"
#include "gea/selection.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kPgdSeed = 0x5eed;

/// Forwards to a private classifier replica and sums, per thread, the time
/// spent in logits (forward) and grad_weighted (forward + backward).
class TimedClassifier : public ml::DifferentiableClassifier {
 public:
  explicit TimedClassifier(std::unique_ptr<ml::DifferentiableClassifier> inner)
      : inner_(std::move(inner)) {}
  std::size_t input_dim() const override { return inner_->input_dim(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  std::vector<double> logits(const std::vector<double>& x) override {
    const double t0 = now_us();
    auto z = inner_->logits(x);
    predict_ms += (now_us() - t0) / 1e3;
    ++predict_calls;
    return z;
  }
  std::vector<double> grad_logit(const std::vector<double>& x,
                                 std::size_t k) override {
    return inner_->grad_logit(x, k);
  }
  std::vector<double> grad_weighted(const std::vector<double>& x,
                                    const std::vector<double>& w) override {
    const double t0 = now_us();
    auto g = inner_->grad_weighted(x, w);
    grad_ms += (now_us() - t0) / 1e3;
    ++grad_calls;
    return g;
  }
  double predict_ms = 0, grad_ms = 0;
  std::size_t predict_calls = 0, grad_calls = 0;

 private:
  std::unique_ptr<ml::DifferentiableClassifier> inner_;
};

struct PgdSet {
  std::vector<std::vector<double>> rows;  // scaled
  std::vector<std::uint8_t> labels;
};

PgdSet pgd_set(const World& w, const dataset::Corpus& corpus, std::size_t n) {
  PgdSet s;
  const std::size_t size = corpus.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& sample = corpus.samples()[i * size / n];
    s.rows.push_back(w.scale({sample.features.begin(), sample.features.end()}));
    s.labels.push_back(sample.label);
  }
  return s;
}

/// Lay `durations` (ms) end to end from `start` as children of `parent`.
void sequence(SpanLog& log, std::vector<Span>& out, std::uint64_t parent,
              double start_us,
              const std::vector<std::pair<std::string, double>>& durations) {
  double cur = start_us;
  for (const auto& [name, ms] : durations) {
    log.add(out, parent, name.c_str(), cur, cur + ms * 1e3);
    cur += ms * 1e3;
  }
}

}  // namespace

void run_campaign(const Options& opt, World& w, double share,
                  Report& report) {
  const std::size_t threads = kThreads;
  aug::GeaHarnessOptions gopts;
  gopts.verify_every = 1;
  gopts.skip_already_misclassified = false;
  gopts.max_samples = kGeaMaxSamples;
  gopts.threads = threads;
  // GEA sweeps the fixed training corpus (the first kGeaMaxSamples of each
  // class against targets picked by size, as in the paper), and PGD attacks
  // a fixed sample set from fixed random starts. PGD stops a sample early
  // once it is misclassified, so starts drawn from the workload seed would
  // change the amount of work per round from seed to seed.
  const dataset::Corpus& corpus = w.corpus;
  const PgdSet pgd = pgd_set(w, corpus, kPgdSamples);
  attacks::HarnessOptions hopts;
  hopts.skip_already_misclassified = false;
  hopts.threads = threads;
  hopts.seed = kPgdSeed;
  const auto& scaler = *w.offline->scaler();

  // Untraced rounds, GEA and PGD alternating until the share of the run is
  // spent. Every round repeats the same work (a fresh harness, so its
  // feature cache starts empty), and each rate is the median over rounds,
  // so a slow spell of the machine moves one round, not the result.
  std::vector<double> gea_rates, pgd_rates, gea_round_s, pgd_round_s;
  const double phase_s = share * opt.seconds;
  const double start = now_s();
  for (std::size_t round = 0; round < kMinRounds || now_s() - start < phase_s; ++round) {
    double t0 = now_s();
    std::size_t crafted = 0;
    aug::GeaHarness harness(corpus, scaler, *w.oracle);
    for (std::uint8_t src : {dataset::kMalicious, dataset::kBenign}) {
      for (const auto& row : harness.size_sweep(src, gopts)) {
        crafted += row.samples;
        report.attempted += row.samples + row.quarantined;
        report.failed += row.quarantined;
        report.check(row.quarantined == 0, "GEA: quarantined crafts");
        report.check(row.equivalence_rate == 1.0, "GEA: equivalence_rate below 1");
        if (round == 0) {
          report.mix(row.samples);
          report.mix(row.misclassified);
          report.mix(row.target_nodes);
        }
      }
    }
    gea_round_s.push_back(now_s() - t0);
    gea_rates.push_back(static_cast<double>(crafted) / gea_round_s.back());

    t0 = now_s();
    attacks::Pgd attack;
    const auto row = attacks::run_attack(attack, *w.oracle, pgd.rows, pgd.labels,
                                         nullptr, hopts);
    pgd_round_s.push_back(now_s() - t0);
    pgd_rates.push_back(static_cast<double>(row.samples) / pgd_round_s.back());
    report.attempted += row.samples + row.quarantined;
    report.failed += row.quarantined;
    report.check(row.quarantined == 0, "PGD: quarantined crafts");
    if (round == 0) {
      report.mix(row.misclassified);
      report.mix(std::vector<double>{row.mean_l2, row.avg_features_changed});
    }
  }

  // Fingerprint probe: crafted GEA features and PGD vectors, recomputed
  // directly through the public entry points.
  {
    const std::size_t target = aug::select_by_size(corpus, dataset::kBenign,
                                                   aug::SizeRank::kMedian);
    std::size_t done = 0;
    for (const auto& s : corpus.samples()) {
      if (done == 16) break;
      if (s.label != dataset::kMalicious) continue;
      const auto crafted = aug::embed_with_cfg(s.program, corpus.samples()[target].program);
      features::FeatureEngine engine;
      const auto fv = engine.extract(crafted.cfg.graph, nullptr);
      report.mix(std::vector<double>(fv.begin(), fv.end()));
      ++done;
    }
    attacks::Pgd attack;
    for (std::size_t i = 0; i < 8 && i < pgd.rows.size(); ++i) {
      attack.reseed(util::mix_seed(hopts.seed, i));
      report.mix(attack.craft(*w.oracle, pgd.rows[i], 1 - pgd.labels[i]));
    }
  }

  for (std::size_t r = 0; r < gea_rates.size(); ++r) {
    char line[128];
    std::snprintf(line, sizeof(line), "attack round %zu: GEA %.1f crafts/s (%.3f s), PGD %.2f crafts/s (%.3f s)",
                  r, gea_rates[r], gea_round_s[r], pgd_rates[r], pgd_round_s[r]);
    report.notes.push_back(line);
  }
  if (!opt.trace) {
    report.e2e("gea_crafts_per_s", util::median(gea_rates), "1/s");
    report.e2e("attack_crafts_per_s", util::median(pgd_rates), "1/s");
    return;
  }

  // Traced round: the harness's steps (target selection, parallel splice +
  // featurize, serial classify + verify) and PGD's forward/backward calls,
  // each timed from outside. A parallel region's wall time is split into
  // its steps by their summed thread time / threads; the rest of the region
  // is the pool's idle share (row util.parallel_for).
  const double T = static_cast<double>(threads);
  SpanLog log;
  std::vector<Span> spans;
  double busy_ms = 0, region_ms = 0;
  double embed_sum = 0, feat_sum = 0, classify_sum = 0, verify_sum = 0;
  std::size_t traced_gea = 0;
  std::uint64_t hits = 0, misses = 0;
  const double gea_t0 = now_us();
  const std::uint64_t gea_root = log.next_id();
  auto cache = std::make_shared<features::FeatureCache>(4096);
  for (std::uint8_t src : {dataset::kMalicious, dataset::kBenign}) {
    const std::uint8_t target_label = 1 - src;
    auto confidence = [&](const dataset::Sample& s) {
      const auto scaled = scaler.transform(s.features);
      return w.oracle->probabilities({scaled.begin(), scaled.end()})[target_label];
    };
    for (auto rank : {aug::SizeRank::kMinimum, aug::SizeRank::kMedian,
                      aug::SizeRank::kMaximum}) {
      const double s0 = now_us();
      const std::size_t t = aug::select_by_size_confident(corpus, target_label, rank, confidence);
      log.add(spans, gea_root, "gea.select", s0, now_us());
      std::vector<std::size_t> wave;
      for (std::size_t i = 0; i < corpus.size() && wave.size() < gopts.max_samples; ++i) {
        if (corpus.samples()[i].label == src && i != t) wave.push_back(i);
      }
      struct Slot {
        isa::Program program;
        features::FeatureVector fv{};
        double embed_ms = 0, feat_ms = 0;
      };
      std::vector<Slot> slots(wave.size());
      const std::uint64_t h0 = cache->hits(), m0 = cache->misses();
      const double r0 = now_us();
      auto st = util::parallel_for(
          wave.size(),
          [&](std::size_t k) {
            const double a = now_us();
            auto crafted = aug::embed_with_cfg(corpus.samples()[wave[k]].program,
                                               corpus.samples()[t].program);
            const double b = now_us();
            slots[k].fv = features::FeatureEngine::local().extract(crafted.cfg.graph, cache.get());
            slots[k].embed_ms = (b - a) / 1e3;
            slots[k].feat_ms = (now_us() - b) / 1e3;
            slots[k].program = std::move(crafted.program);
            return util::Status::ok();
          },
          {.threads = threads, .label = "perfbench gea"});
      const double r1 = now_us();
      if (!st.is_ok()) throw std::runtime_error(st.to_string());
      hits += cache->hits() - h0;
      misses += cache->misses() - m0;
      double e = 0, f = 0;
      for (const auto& s : slots) {
        e += s.embed_ms;
        f += s.feat_ms;
      }
      embed_sum += e;
      feat_sum += f;
      busy_ms += e + f;
      region_ms += (r1 - r0) / 1e3;
      const std::uint64_t region = log.add(spans, gea_root, "util.parallel_for", r0, r1);
      sequence(log, spans, region, r0, {{"gea.embed", e / T}, {"gea.features", f / T}});
      for (std::size_t k = 0; k < slots.size(); ++k) {
        const double c0 = now_us();
        const auto scaled = scaler.transform(slots[k].fv);
        (void)w.oracle->predict({scaled.begin(), scaled.end()});
        const double c1 = now_us();
        const bool eq = aug::functionally_equivalent(corpus.samples()[wave[k]].program,
                                                     slots[k].program);
        const double c2 = now_us();
        report.check(eq, "GEA (traced): crafted program not equivalent");
        log.add(spans, gea_root, "gea.classify", c0, c1);
        log.add(spans, gea_root, "isa.verify", c1, c2);
        classify_sum += (c1 - c0) / 1e3;
        verify_sum += (c2 - c1) / 1e3;
      }
      traced_gea += slots.size();
    }
  }
  const double gea_t1 = now_us();
  spans.push_back(Span{gea_root, 0, "gea.round", gea_t0, gea_t1});
  log.merge(spans);
  const Ledger gea_ledger = build_ledger(log.spans());

  // PGD: per-chunk classifier and attack replicas, as run_attack uses.
  PrivateStack stack(w.ckpt_dir + "/" + serve::Checkpoint::kModelFile, w,
                     std::vector<std::vector<double>>(pgd.rows.begin(),
                                                      pgd.rows.begin() + std::min<std::size_t>(16, pgd.rows.size())),
                     report);
  const auto fwd = stack.infer_times(pgd.rows, 1, kMlReps);
  const auto bwd = stack.backward_times(pgd.rows, kMlReps);
  for (std::size_t g = 0; g < LayerTimes::kGroups; ++g) {
    report.layer(std::string("ml.") + LayerTimes::group_name(g) + "_bwd_ms", bwd.ms[g], "ms");
  }
  const std::size_t chunks = threads;
  std::vector<double> c_ms(chunks, 0), g_ms(chunks, 0), p_ms(chunks, 0);
  std::vector<std::size_t> g_calls(chunks, 0), p_calls(chunks, 0);
  const std::uint64_t gemm0 =
      obs::MetricsRegistry::global().counter("kernels.gemm_calls").value();
  const double pgd_t0 = now_us();
  auto st = util::parallel_for_ranges(
      pgd.rows.size(), chunks,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        TimedClassifier clf(w.oracle->clone());
        attacks::Pgd attack;
        for (std::size_t i = begin; i < end; ++i) {
          attack.reseed(util::mix_seed(hopts.seed, i));
          const double a = now_us();
          (void)attack.craft(clf, pgd.rows[i], 1 - pgd.labels[i]);
          c_ms[chunk] += (now_us() - a) / 1e3;
        }
        g_ms[chunk] = clf.grad_ms;
        p_ms[chunk] = clf.predict_ms;
        g_calls[chunk] = clf.grad_calls;
        p_calls[chunk] = clf.predict_calls;
        return util::Status::ok();
      },
      {.threads = threads, .label = "perfbench pgd"});
  const double pgd_t1 = now_us();
  if (!st.is_ok()) throw std::runtime_error(st.to_string());
  const std::uint64_t gemm1 =
      obs::MetricsRegistry::global().counter("kernels.gemm_calls").value();
  double C = 0, G = 0, P = 0;
  std::size_t GN = 0, PN = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    C += c_ms[c];
    G += g_ms[c];
    P += p_ms[c];
    GN += g_calls[c];
    PN += p_calls[c];
  }
  busy_ms += C;
  region_ms += (pgd_t1 - pgd_t0) / 1e3;
  SpanLog pgd_log;
  std::vector<Span> pspans;
  const std::uint64_t proot = pgd_log.next_id();
  pspans.push_back(Span{proot, 0, "attacks.run", pgd_t0, pgd_t1});
  const std::uint64_t region = pgd_log.add(pspans, proot, "util.parallel_for", pgd_t0, pgd_t1);
  // attacks.grad is split into ml layers by the private stack's forward +
  // backward shares at batch 1.
  double ml_total = 0;
  for (std::size_t g = 0; g < LayerTimes::kGroups; ++g) ml_total += fwd.ms[g] + bwd.ms[g];
  std::vector<std::pair<std::string, double>> parts;
  for (std::size_t g = 0; g < LayerTimes::kGroups; ++g) {
    const std::string name = std::string("ml.") + LayerTimes::group_name(g);
    parts.push_back({name, G / T * fwd.ms[g] / ml_total});
    parts.push_back({name + "_bwd", G / T * bwd.ms[g] / ml_total});
  }
  parts.push_back({"attacks.predict", P / T});
  parts.push_back({"attacks.craft", (C - G - P) / T});
  sequence(pgd_log, pspans, region, pgd_t0, parts);
  pgd_log.merge(pspans);
  const Ledger pgd_ledger = build_ledger(pgd_log.spans());
  const double pgd_n = static_cast<double>(std::max<std::size_t>(1, pgd.rows.size()));
  const double gea_n = static_cast<double>(std::max<std::size_t>(1, traced_gea));

  const double traced_s = (gea_t1 - gea_t0 + pgd_t1 - pgd_t0) / 1e6;
  const double untraced_s = util::median(gea_round_s) + util::median(pgd_round_s);
  report.layer("craft.trace_overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s, "pct");
  report.layer("craft.leftover_pct",
               100.0 * (gea_ledger.leftover_ms + pgd_ledger.leftover_ms) /
                   std::max(1e-9, gea_ledger.wall_ms + pgd_ledger.wall_ms),
               "pct");
  report.layer("gea.embed_ms", embed_sum / gea_n, "ms");
  report.layer("gea.features_ms", feat_sum / gea_n, "ms");
  report.layer("gea.classify_ms", classify_sum / gea_n, "ms");
  report.layer("gea.cache_hit_ratio",
               hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
               "ratio");
  report.layer("isa.verify_ms", verify_sum / gea_n, "ms");
  report.layer("attacks.grad_ms", GN ? G / static_cast<double>(GN) : 0.0, "ms");
  report.layer("attacks.craft_ms", C / pgd_n, "ms");
  report.layer("util.parallel_efficiency", busy_ms / (T * std::max(1e-9, region_ms)), "ratio");
  report.layer("kernels.gemm_calls_per_craft", static_cast<double>(gemm1 - gemm0) / pgd_n, "count");
  // Forward + backward costs about three forwards (input and weight
  // gradients); computed from the layer shapes, not counted.
  report.layer("kernels.flops_per_craft",
               (3.0 * static_cast<double>(GN) + static_cast<double>(PN)) *
                   PrivateStack::forward_flops(features::kNumFeatures, 2) / pgd_n,
               "flop");
  print_ledger("GEA size sweeps (per craft)", gea_ledger, gea_n, report);
  print_ledger("PGD (per craft)", pgd_ledger, pgd_n, report);
}

}  // namespace perfbench
