// Parallel execution layer suite (ctest labels: tier1, parallel).
//
// Exercises the two hard guarantees of util::ThreadPool / parallel_for —
// determinism (bitwise-identical results at any thread count) and error
// propagation (worker Status failures and exceptions surface, nothing
// deadlocks) — plus the parallel paths threaded through corpus synthesis,
// the attack harness, the GEA harness, and the chunked trainer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attacks/fgsm.hpp"
#include "attacks/harness.hpp"
#include "attacks/pgd.hpp"
#include "dataset/corpus.hpp"
#include "features/features.hpp"
#include "features/scaler.hpp"
#include "gea/embed.hpp"
#include "gea/harness.hpp"
#include "graph/digraph.hpp"
#include "isa/assembler.hpp"
#include "ml/label_schema.hpp"
#include "ml/model.hpp"
#include "ml/trainer.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/threadpool.hpp"

namespace gea {
namespace {

using util::ErrorCode;
using util::FaultInjector;
using util::ParallelOptions;
using util::ScopedFault;
using util::Status;

ParallelOptions with_threads(std::size_t threads, const char* label = "test") {
  ParallelOptions po;
  po.threads = threads;
  po.label = label;
  return po;
}

// ---------------------------------------------------------------------------
// Seed splitting and thread-count resolution

TEST(MixSeed, IsDeterministicAndSeparatesStreams) {
  EXPECT_EQ(util::mix_seed(1, 2), util::mix_seed(1, 2));
  EXPECT_NE(util::mix_seed(1, 2), util::mix_seed(1, 3));
  EXPECT_NE(util::mix_seed(1, 2), util::mix_seed(2, 2));
  // Consecutive indices must not produce correlated Rngs.
  util::Rng a(util::mix_seed(7, 0));
  util::Rng b(util::mix_seed(7, 1));
  EXPECT_NE(a.uniform(), b.uniform());
}

TEST(ResolveThreads, ExplicitCountWinsAndAutoIsStable) {
  EXPECT_EQ(util::resolve_threads(with_threads(1)), 1u);
  EXPECT_EQ(util::resolve_threads(with_threads(5)), 5u);
  const std::size_t auto1 = util::resolve_threads(with_threads(0));
  const std::size_t auto2 = util::resolve_threads(with_threads(0));
  EXPECT_GE(auto1, 1u);
  EXPECT_EQ(auto1, auto2);
}

TEST(ResolveThreads, AutoDegradesToSerialWhileFaultsArmed) {
  FaultInjector::instance().reset();
  const std::size_t unarmed = util::resolve_threads(with_threads(0));
  {
    ScopedFault fault(util::faults::kFeatureNaN);
    EXPECT_EQ(util::resolve_threads(with_threads(0)), 1u);
    // An explicit request overrides the degradation (used below to drive
    // fault points inside workers).
    EXPECT_EQ(util::resolve_threads(with_threads(4)), 4u);
  }
  EXPECT_EQ(util::resolve_threads(with_threads(0)), unarmed);
}

// ---------------------------------------------------------------------------
// ThreadPool lifecycle

TEST(ThreadPool, RunsSubmittedTasksAndWaitsIdle) {
  util::ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, DestructionDrainsPendingTasksWithoutHanging) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      });
    }
    // Destructor runs here with most of the queue still pending.
  }
  EXPECT_EQ(ran.load(), 32);
}

// ---------------------------------------------------------------------------
// parallel_for: determinism and error propagation

TEST(ParallelFor, PerIndexRngResultsAreBitwiseIdenticalAtAnyThreadCount) {
  auto run = [](std::size_t threads) {
    std::vector<double> out(257, 0.0);
    const Status st = util::parallel_for(
        out.size(),
        [&](std::size_t i) {
          util::Rng rng(util::mix_seed(42, i));
          out[i] = rng.uniform() + rng.normal(0.0, 1.0);
          return Status::ok();
        },
        with_threads(threads, "det"));
    EXPECT_TRUE(st.is_ok()) << st.to_string();
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelFor, LowestFailingChunkStatusWinsWithLabelContext) {
  const Status st = util::parallel_for_ranges(
      100, 10,
      [&](std::size_t, std::size_t, std::size_t chunk) {
        if (chunk % 2 == 1) {
          return Status::error(ErrorCode::kInternal,
                               "injected failure " + std::to_string(chunk));
        }
        return Status::ok();
      },
      with_threads(4, "test loop"));
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.to_string().find("injected failure 1"), std::string::npos)
      << st.to_string();
  EXPECT_NE(st.to_string().find("test loop"), std::string::npos);
}

TEST(ParallelFor, WorkerExceptionBecomesInternalStatus) {
  const Status st = util::parallel_for(
      50,
      [](std::size_t i) -> Status {
        if (i == 17) throw std::runtime_error("kaput at 17");
        return Status::ok();
      },
      with_threads(4));
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kInternal);
  EXPECT_NE(st.to_string().find("kaput at 17"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared fixture: a 64-sample corpus and a small trained detector

dataset::CorpusConfig corpus_config(std::size_t threads) {
  dataset::CorpusConfig cc;
  cc.num_malicious = 40;
  cc.num_benign = 24;
  cc.seed = 99;
  cc.threads = threads;
  return cc;
}

struct Detector {
  features::FeatureScaler scaler;
  ml::Model model;
  std::unique_ptr<ml::ModelClassifier> clf;
  ml::LabeledData data;
};

Detector make_detector(const dataset::Corpus& corpus) {
  Detector d;
  d.scaler.fit(corpus.feature_rows());
  for (const auto& s : corpus.samples()) {
    const auto t = d.scaler.transform(s.features);
    d.data.rows.emplace_back(t.begin(), t.end());
    d.data.labels.push_back(s.label);
  }
  d.model = ml::make_mlp_baseline(features::kNumFeatures, 2);
  util::Rng rng(3);
  d.model.init(rng);
  ml::TrainConfig tc;
  tc.epochs = 30;
  tc.batch_size = 16;
  tc.seed = 4;
  ml::train(d.model, d.data, tc);
  d.clf = std::make_unique<ml::ModelClassifier>(d.model, features::kNumFeatures, 2);
  return d;
}

// ---------------------------------------------------------------------------
// Corpus synthesis

TEST(ParallelCorpus, SamplesAreBitwiseIdenticalAtAnyThreadCount) {
  const auto c1 = dataset::Corpus::generate(corpus_config(1));
  const auto c2 = dataset::Corpus::generate(corpus_config(2));
  const auto c8 = dataset::Corpus::generate(corpus_config(8));
  ASSERT_EQ(c1.size(), 64u);
  ASSERT_EQ(c2.size(), c1.size());
  ASSERT_EQ(c8.size(), c1.size());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    const auto& a = c1.samples()[i];
    for (const auto* other : {&c2.samples()[i], &c8.samples()[i]}) {
      EXPECT_EQ(a.id, other->id);
      EXPECT_EQ(a.label, other->label);
      EXPECT_EQ(a.program.size(), other->program.size());
      EXPECT_EQ(a.num_nodes(), other->num_nodes());
      EXPECT_EQ(a.num_edges(), other->num_edges());
      // Bitwise: the features must match exactly, not approximately.
      for (std::size_t f = 0; f < features::kNumFeatures; ++f) {
        EXPECT_EQ(a.features[f], other->features[f]) << "sample " << i
                                                     << " feature " << f;
      }
    }
  }
}

TEST(ParallelCorpus, ReportsFeaturizeTimingAndThreadCount) {
  dataset::SynthesisReport rep;
  auto res = dataset::Corpus::generate_checked(corpus_config(2), &rep);
  ASSERT_TRUE(res.is_ok());
  EXPECT_EQ(rep.threads_used, 2u);
  EXPECT_GT(rep.featurize_wall_ms, 0.0);
  // Summed worker time is exact under concurrency (merged at the join), so
  // it can never undercut the busiest worker's share of the wall clock.
  EXPECT_GT(rep.featurize_worker_ms, 0.0);
}

TEST(ParallelCorpus, FaultFiringInsideAWorkerQuarantinesOnlyThatSample) {
  FaultInjector::instance().reset();
  ScopedFault fault(util::faults::kFeatureNaN, /*skip=*/5, /*count=*/1);
  dataset::SynthesisReport rep;
  // Explicit threads=4 overrides the armed->serial auto policy, so the
  // fault fires inside a pool worker.
  auto res = dataset::Corpus::generate_checked(corpus_config(4), &rep);
  ASSERT_TRUE(res.is_ok());
  EXPECT_EQ(fault.fired(), 1u);
  EXPECT_EQ(rep.quarantined, 1u);
  EXPECT_EQ(res.value().size(), 63u);
  ASSERT_EQ(rep.diagnostics.size(), 1u);
  EXPECT_NE(rep.diagnostics[0].find("non-finite feature"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Batch feature extraction

TEST(ParallelFeatures, BatchExtractionMatchesSerialPerGraphExtraction) {
  const auto corpus = dataset::Corpus::generate(corpus_config(1));
  std::vector<const graph::DiGraph*> graphs;
  graphs.reserve(corpus.size());
  for (const auto& s : corpus.samples()) graphs.push_back(&s.cfg.graph);

  std::vector<features::FeatureVector> out1, out8;
  ASSERT_TRUE(
      features::extract_features_batch(graphs, out1, with_threads(1)).is_ok());
  ASSERT_TRUE(
      features::extract_features_batch(graphs, out8, with_threads(8)).is_ok());
  ASSERT_EQ(out1.size(), graphs.size());
  ASSERT_EQ(out8.size(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto expect = features::extract_features(*graphs[i]);
    EXPECT_EQ(out1[i], expect) << "graph " << i;
    EXPECT_EQ(out8[i], expect) << "graph " << i;
  }
}

// ---------------------------------------------------------------------------
// Attack harness

TEST(ParallelAttackHarness, RowIsBitwiseIdenticalAtAnyThreadCount) {
  const auto corpus = dataset::Corpus::generate(corpus_config(1));
  auto det = make_detector(corpus);

  auto run = [&](auto& attack, std::size_t threads) {
    attacks::HarnessOptions o;
    o.threads = threads;
    return attacks::run_attack(attack, *det.clf, det.data.rows, det.data.labels,
                               nullptr, o);
  };
  // FGSM is deterministic; PGD random-restarts from its per-sample stream.
  attacks::Fgsm fgsm;
  attacks::PgdConfig pgd_cfg;
  pgd_cfg.iterations = 10;
  attacks::Pgd pgd(pgd_cfg);
  for (attacks::Attack* atk :
       std::vector<attacks::Attack*>{&fgsm, &pgd}) {
    const auto serial = run(*atk, 1);
    EXPECT_GT(serial.samples, 0u) << atk->name();
    for (std::size_t threads : {2u, 8u}) {
      const auto parallel = run(*atk, threads);
      EXPECT_EQ(serial.samples, parallel.samples) << atk->name();
      EXPECT_EQ(serial.misclassified, parallel.misclassified) << atk->name();
      EXPECT_EQ(serial.quarantined, parallel.quarantined) << atk->name();
      // Bitwise double equality: the merge reduces in index order.
      EXPECT_EQ(serial.avg_features_changed, parallel.avg_features_changed)
          << atk->name();
      EXPECT_EQ(serial.mean_l2, parallel.mean_l2) << atk->name();
    }
  }
}

/// Throws on exactly one marked input row; order- and thread-independent.
class FailingAttack : public attacks::Attack {
 public:
  explicit FailingAttack(double marker) : marker_(marker) {}
  std::string name() const override { return "failing"; }
  std::vector<double> craft(ml::DifferentiableClassifier&,
                            const std::vector<double>& x,
                            std::size_t) override {
    if (!x.empty() && x[0] == marker_) {
      throw std::runtime_error("marked sample rejected");
    }
    return x;
  }
  attacks::AttackPtr clone() const override {
    return std::make_unique<FailingAttack>(marker_);
  }

 private:
  double marker_;
};

TEST(ParallelAttackHarness, WorkerFailureQuarantinesOnlyThatSample) {
  const auto corpus = dataset::Corpus::generate(corpus_config(1));
  auto det = make_detector(corpus);
  constexpr double kMarker = 0.123456789;
  auto rows = det.data.rows;
  rows[5][0] = kMarker;

  FailingAttack attack(kMarker);
  attacks::HarnessOptions o;
  o.threads = 4;
  o.skip_already_misclassified = false;
  util::LogCapture capture;
  const auto row =
      attacks::run_attack(attack, *det.clf, rows, det.data.labels, nullptr, o);
  EXPECT_EQ(row.quarantined, 1u);
  EXPECT_EQ(row.samples, rows.size() - 1);
  EXPECT_EQ(capture.count_containing("marked sample rejected"), 1u);

  // The attack returns every other row unchanged, so the batched merge must
  // count exactly the rows a per-row predict() gets wrong. Every third
  // label is flipped so that the count depends on matching each verdict
  // with its own row past the quarantined one.
  auto labels = det.data.labels;
  for (std::size_t s = 0; s < labels.size(); s += 3) labels[s] ^= 1;
  std::size_t misclassified = 0;
  for (std::size_t s = 0; s < rows.size(); ++s) {
    if (s != 5 && det.clf->predict(rows[s]) != labels[s]) ++misclassified;
  }
  EXPECT_EQ(attacks::run_attack(attack, *det.clf, rows, labels, nullptr, o)
                .misclassified,
            misclassified);

  // Strict mode rethrows the worker's original exception.
  o.strict = true;
  EXPECT_THROW(
      attacks::run_attack(attack, *det.clf, rows, det.data.labels, nullptr, o),
      std::runtime_error);
}

/// Test-local reference for run_attack: the per-row loop, with one
/// predict() per eligibility check and per crafted vector, serial.
namespace per_row {

attacks::AttackRow run_attack(attacks::Attack& attack,
                              ml::DifferentiableClassifier& clf,
                              const std::vector<std::vector<double>>& rows,
                              const std::vector<std::uint8_t>& labels,
                              const attacks::HarnessOptions& opts) {
  auto finite = [](const std::vector<double>& v) {
    return std::all_of(v.begin(), v.end(),
                       [](double d) { return std::isfinite(d); });
  };
  attacks::AttackRow out;
  out.attack = attack.name();
  double total_changed = 0.0, total_l2 = 0.0;
  for (std::size_t s = 0; s < rows.size(); ++s) {
    if (opts.max_samples != 0 && out.samples >= opts.max_samples) break;
    const auto& x = rows[s];
    if (x.size() != clf.input_dim() || !finite(x)) {
      ++out.quarantined;
      continue;
    }
    if (opts.skip_already_misclassified && clf.predict(x) != labels[s]) {
      continue;
    }
    attack.reseed(util::mix_seed(opts.seed, s));
    std::vector<double> adv;
    try {
      adv = attack.craft(clf, x, labels[s] == 0 ? 1 : 0);
    } catch (const std::exception&) {
      ++out.quarantined;
      continue;
    }
    if (adv.size() != x.size() || !finite(adv)) {
      ++out.quarantined;
      continue;
    }
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
    if (clf.predict(adv) != labels[s]) ++out.misclassified;
  }
  if (out.samples > 0) {
    const auto n = static_cast<double>(out.samples);
    out.avg_features_changed = total_changed / n;
    out.mean_l2 = total_l2 / n;
  }
  return out;
}

}  // namespace per_row

// The eligibility scan scores its candidates in batches; the rows it
// consumes, and so every field of the row but the timing, must match the
// per-row scan: with misclassified rows to skip, malformed rows to
// quarantine during the scan, a craft that fails (so a capped run needs
// another wave), with and without a cap, serial and parallel.
TEST(ParallelAttackHarness, BatchedEligibilityScanMatchesPerRowScan) {
  const auto corpus = dataset::Corpus::generate(corpus_config(1));
  auto det = make_detector(corpus);
  auto rows = det.data.rows;
  auto labels = det.data.labels;
  for (std::size_t s = 1; s < labels.size(); s += 4) labels[s] ^= 1;
  rows[6][3] = std::numeric_limits<double>::quiet_NaN();
  rows[17].pop_back();
  constexpr double kMarker = 0.123456789;
  std::size_t marked = 8;
  for (; marked < rows.size(); ++marked) {
    if (marked % 4 == 1 || marked == 6 || marked == 17) continue;
    auto x = rows[marked];
    x[0] = kMarker;
    if (det.clf->predict(x) == labels[marked]) break;
  }
  ASSERT_LT(marked, 20u) << "no eligible row to mark";
  rows[marked][0] = kMarker;

  attacks::PgdConfig pgd_cfg;
  pgd_cfg.iterations = 5;
  attacks::Pgd pgd(pgd_cfg);
  FailingAttack failing(kMarker);
  for (attacks::Attack* atk : std::vector<attacks::Attack*>{&pgd, &failing}) {
    for (const std::size_t cap : {0u, 7u, 20u}) {
      attacks::HarnessOptions o;
      o.max_samples = cap;
      util::LogCapture capture;  // the quarantine warnings
      const auto want = per_row::run_attack(*atk, *det.clf, rows, labels, o);
      EXPECT_GT(want.samples, 0u);
      EXPECT_GE(want.quarantined, 1u);
      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(atk->name() + " cap " + std::to_string(cap) +
                     " threads " + std::to_string(threads));
        o.threads = threads;
        const auto got =
            attacks::run_attack(*atk, *det.clf, rows, labels, nullptr, o);
        EXPECT_EQ(got.attack, want.attack);
        EXPECT_EQ(got.samples, want.samples);
        EXPECT_EQ(got.misclassified, want.misclassified);
        EXPECT_EQ(got.quarantined, want.quarantined);
        EXPECT_EQ(got.avg_features_changed, want.avg_features_changed);
        EXPECT_EQ(got.mean_l2, want.mean_l2);
        EXPECT_EQ(got.valid_fraction, want.valid_fraction);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// GEA harness

TEST(ParallelGeaHarness, RowIsBitwiseIdenticalAtAnyThreadCount) {
  const auto corpus = dataset::Corpus::generate(corpus_config(1));
  auto det = make_detector(corpus);
  const aug::GeaHarness harness(corpus, det.scaler, *det.clf);
  const std::size_t target = corpus.indices_of(dataset::kBenign).front();

  auto run = [&](std::size_t threads) {
    aug::GeaHarnessOptions o;
    o.threads = threads;
    o.max_samples = 12;
    o.verify_every = 2;  // stride semantics must survive parallelization
    return harness.attack_with_target(dataset::kMalicious, target, o);
  };
  const auto serial = run(1);
  EXPECT_GT(serial.samples, 0u);
  for (std::size_t threads : {2u, 4u}) {
    const auto parallel = run(threads);
    EXPECT_EQ(serial.samples, parallel.samples);
    EXPECT_EQ(serial.misclassified, parallel.misclassified);
    EXPECT_EQ(serial.quarantined, parallel.quarantined);
    EXPECT_EQ(serial.equivalence_rate, parallel.equivalence_rate);
    EXPECT_EQ(serial.target_nodes, parallel.target_nodes);
    EXPECT_EQ(serial.target_edges, parallel.target_edges);
  }
}

/// Test-local reference for the GEA harness: the per-sample path, with one
/// probabilities() or predict() call per sample and serial verification,
/// so the batched merge and the parallel verification pass are pinned to
/// it bit for bit.
namespace per_sample {

/// select_by_size_confident with one probabilities() call per candidate,
/// the anchor scored twice.
std::size_t select(const dataset::Corpus& corpus, std::uint8_t label,
                   aug::SizeRank rank, Detector& det, std::uint8_t cls) {
  auto score = [&](const dataset::Sample& s) {
    const auto t = det.scaler.transform(s.features);
    return det.clf->probabilities({t.begin(), t.end()})[cls];
  };
  auto idx = corpus.indices_of(label);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return corpus.samples()[a].num_nodes() < corpus.samples()[b].num_nodes();
  });
  const std::size_t window = 9;
  std::size_t anchor = 0;
  if (rank == aug::SizeRank::kMedian) anchor = idx.size() / 2;
  if (rank == aug::SizeRank::kMaximum) anchor = idx.size() - 1;
  const std::size_t lo = anchor >= window / 2 ? anchor - window / 2 : 0;
  const std::size_t hi = std::min(idx.size(), lo + window);
  std::size_t best = idx[anchor];
  double best_score = score(corpus.samples()[best]);
  for (std::size_t k = lo; k < hi; ++k) {
    const double sc = score(corpus.samples()[idx[k]]);
    if (sc > best_score) {
      best_score = sc;
      best = idx[k];
    }
  }
  return best;
}

std::vector<double> scaled(const Detector& det,
                           const features::FeatureVector& fv) {
  const auto t = det.scaler.transform(fv);
  return {t.begin(), t.end()};
}

/// The serial loop over the sources of one target: eligibility, craft and
/// predict(), one sample at a time. `on_crafted(sample, prediction,
/// crafted program, crafted so far)` sees every crafted sample in corpus
/// order. Returns the quarantined count.
template <typename IsSource, typename OnCrafted>
std::size_t sweep(const dataset::Corpus& corpus, Detector& det,
                  std::size_t target_index, const aug::GeaHarnessOptions& opts,
                  IsSource is_source, OnCrafted on_crafted) {
  const auto& samples = corpus.samples();
  std::size_t crafted_count = 0, quarantined = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (opts.max_samples != 0 && crafted_count >= opts.max_samples) break;
    const dataset::Sample& s = samples[i];
    if (i == target_index || !is_source(s)) continue;
    if (opts.skip_already_misclassified &&
        det.clf->predict(scaled(det, s.features)) != s.label) {
      continue;
    }
    aug::EmbedResult crafted;
    features::FeatureVector fv{};
    try {
      crafted = aug::embed_with_cfg(s.program, samples[target_index].program,
                                    opts.embed);
      fv = features::extract_features(crafted.cfg.graph);
      if (!features::all_finite(fv)) throw std::runtime_error("non-finite");
    } catch (const std::exception&) {
      ++quarantined;
      continue;
    }
    ++crafted_count;
    on_crafted(s, det.clf->predict(scaled(det, fv)), crafted.program,
               crafted_count);
  }
  return quarantined;
}

struct Row {
  aug::GeaRow row;
  std::size_t verified = 0;
};

Row attack(const dataset::Corpus& corpus, Detector& det,
           std::uint8_t source_label, std::size_t target_index,
           const aug::GeaHarnessOptions& opts) {
  Row out;
  const auto& target = corpus.samples()[target_index];
  out.row.target_nodes = target.num_nodes();
  out.row.target_edges = target.num_edges();
  std::size_t equivalent = 0;
  out.row.quarantined = sweep(
      corpus, det, target_index, opts,
      [&](const dataset::Sample& s) { return s.label == source_label; },
      [&](const dataset::Sample& s, std::size_t pred,
          const isa::Program& program, std::size_t crafted_count) {
        ++out.row.samples;
        if (pred != s.label) ++out.row.misclassified;
        if (opts.verify_every != 0 &&
            (crafted_count - 1) % opts.verify_every == 0) {
          ++out.verified;
          if (aug::functionally_equivalent(s.program, program)) ++equivalent;
        }
      });
  out.row.equivalence_rate =
      out.verified == 0 ? 0.0
                        : static_cast<double>(equivalent) /
                              static_cast<double>(out.verified);
  return out;
}

std::vector<Row> size_sweep(const dataset::Corpus& corpus, Detector& det,
                            std::uint8_t source_label,
                            const aug::GeaHarnessOptions& opts) {
  const std::uint8_t target_label = 1 - source_label;
  std::vector<Row> rows;
  for (auto rank : {aug::SizeRank::kMinimum, aug::SizeRank::kMedian,
                    aug::SizeRank::kMaximum}) {
    rows.push_back(attack(corpus, det, source_label,
                          select(corpus, target_label, rank, det, target_label),
                          opts));
  }
  return rows;
}

aug::FamilyEvasionReport family_matrix(const dataset::Corpus& corpus,
                                       Detector& det, std::size_t classes,
                                       const aug::GeaHarnessOptions& opts) {
  aug::FamilyEvasionReport out;
  out.matrix = ml::MultiConfusion(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    const auto cls = static_cast<std::uint8_t>(c);
    if (corpus.count_label(cls) == 0) continue;
    const std::size_t donor =
        select(corpus, cls, aug::SizeRank::kMedian, det, cls);
    out.quarantined += sweep(
        corpus, det, donor, opts,
        [&](const dataset::Sample& s) { return s.label != cls; },
        [&](const dataset::Sample& s, std::size_t pred, const isa::Program&,
            std::size_t) {
          ++out.samples;
          out.matrix.at(s.label, pred) += 1;
          if (pred == cls) ++out.targeted_hits;
          if (pred != s.label) ++out.evaded;
        });
  }
  return out;
}

}  // namespace per_sample

std::uint64_t verified_total() {
  return obs::MetricsRegistry::global().counter("gea.verified_total").value();
}

TEST(ParallelGeaHarness, SweepsMatchPerSamplePredictAndSerialVerify) {
  auto corpus = dataset::Corpus::generate(corpus_config(1));
  auto det = make_detector(corpus);

  // Every graft target either sweep can pick, and the family donors among
  // them, stay intact; two malicious sources are altered instead.
  std::set<std::size_t> targets;
  for (std::uint8_t label : {dataset::kBenign, dataset::kMalicious}) {
    for (auto rank : {aug::SizeRank::kMinimum, aug::SizeRank::kMedian,
                      aug::SizeRank::kMaximum}) {
      targets.insert(per_sample::select(corpus, label, rank, det, label));
    }
  }
  // The malicious-to-benign sweeps attack these, in this order.
  std::vector<std::size_t> sources;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& s = corpus.samples()[i];
    if (s.label == dataset::kMalicious &&
        det.clf->predict(per_sample::scaled(det, s.features)) == s.label) {
      sources.push_back(i);
    }
  }
  // Alter sources p and p + 2, neither a target. Then source p + 2 is the
  // (p + 1)-th crafted sample, which verify_every 3 picks when p = 2 mod 3.
  std::size_t p = 2;
  while (p + 2 < sources.size() && (targets.count(sources[p]) != 0 ||
                                     targets.count(sources[p + 2]) != 0)) {
    p += 3;
  }
  ASSERT_LT(p + 2, 12u);
  ASSERT_LT(p + 2, sources.size());
  // A program embed_program rejects: its craft fails identically at any
  // thread count, and the verify stride must skip it.
  corpus.samples()[sources[p]].program.functions().clear();
  // A loop that halts two steps inside the interpreter's step budget; the
  // graft's guard and exit blocks push its crafted copy past the budget,
  // so this one sample verifies as not equivalent and the stride's picks
  // show in equivalence_rate.
  corpus.samples()[sources[p + 2]].program = isa::assemble(R"(
    func main
      movi r1, 333332
    loop:
      subi r1, 1
      cmpi r1, 0
      jg loop
      halt
    endfunc
  )");

  util::LogCapture capture;
  const auto schema = ml::LabelSchema::binary();
  // One wave over every source, and a capped sweep that needs a second
  // wave to replace the failed craft.
  using Config = std::pair<std::size_t, std::size_t>;  // verify_every, cap
  for (const auto& [verify_every, cap] : {Config{1, 0}, Config{3, 13}}) {
    aug::GeaHarnessOptions o;
    o.verify_every = verify_every;
    o.max_samples = cap;
    const auto expect_m2b =
        per_sample::size_sweep(corpus, det, dataset::kMalicious, o);
    const auto expect_b2m =
        per_sample::size_sweep(corpus, det, dataset::kBenign, o);
    const auto expect_family = per_sample::family_matrix(corpus, det, 2, o);
    for (const auto& e : expect_m2b) {
      EXPECT_EQ(e.row.quarantined, 1u);
      EXPECT_LT(e.row.equivalence_rate, 1.0);
    }
    EXPECT_EQ(expect_family.quarantined, 1u);

    for (std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("verify_every " + std::to_string(verify_every) +
                   ", threads " + std::to_string(threads));
      o.threads = threads;
      const aug::GeaHarness harness(corpus, det.scaler, *det.clf);
      for (const auto& [source, expect] :
           {std::pair{dataset::kMalicious, &expect_m2b},
            std::pair{dataset::kBenign, &expect_b2m}}) {
        const std::uint64_t verified_before = verified_total();
        const auto rows = harness.size_sweep(source, o);
        ASSERT_EQ(rows.size(), expect->size());
        std::uint64_t verified = 0;
        for (std::size_t r = 0; r < rows.size(); ++r) {
          const auto& want = (*expect)[r].row;
          EXPECT_EQ(rows[r].target_nodes, want.target_nodes) << "row " << r;
          EXPECT_EQ(rows[r].target_edges, want.target_edges) << "row " << r;
          EXPECT_EQ(rows[r].samples, want.samples) << "row " << r;
          EXPECT_EQ(rows[r].misclassified, want.misclassified) << "row " << r;
          EXPECT_EQ(rows[r].quarantined, want.quarantined) << "row " << r;
          EXPECT_EQ(rows[r].equivalence_rate, want.equivalence_rate)
              << "row " << r;
          verified += (*expect)[r].verified;
        }
#if !defined(GEA_OBS_NOOP)
        EXPECT_EQ(verified_total() - verified_before, verified);
#endif
      }
      const auto family = harness.family_evasion_matrix(schema, o);
      EXPECT_EQ(family.matrix.counts, expect_family.matrix.counts);
      EXPECT_EQ(family.samples, expect_family.samples);
      EXPECT_EQ(family.targeted_hits, expect_family.targeted_hits);
      EXPECT_EQ(family.evaded, expect_family.evaded);
      EXPECT_EQ(family.quarantined, expect_family.quarantined);
    }
  }
}

// ---------------------------------------------------------------------------
// Chunked trainer

TEST(ParallelTrainer, ChunkedPathIsBitwiseInvariantAcrossWorkerCounts) {
  const auto corpus = dataset::Corpus::generate(corpus_config(1));
  features::FeatureScaler scaler;
  scaler.fit(corpus.feature_rows());
  ml::LabeledData data;
  for (const auto& s : corpus.samples()) {
    const auto t = scaler.transform(s.features);
    data.rows.emplace_back(t.begin(), t.end());
    data.labels.push_back(s.label);
  }

  auto run = [&](std::size_t threads) {
    util::Rng dropout_rng(77);
    ml::Model m = ml::make_paper_cnn(features::kNumFeatures, 2, dropout_rng);
    util::Rng weight_rng(5);
    m.init(weight_rng);
    ml::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_size = 16;
    tc.seed = 9;
    tc.threads = threads;
    const auto stats = ml::train(m, data, tc);
    std::pair<std::vector<double>, std::vector<float>> fingerprint;
    fingerprint.first = stats.epoch_losses;
    fingerprint.second = *m.params().front().value;
    return fingerprint;
  };
  const auto two = run(2);
  const auto eight = run(8);
  ASSERT_EQ(two.first.size(), 3u);
  EXPECT_EQ(two.first, eight.first);    // bitwise epoch losses
  EXPECT_EQ(two.second, eight.second);  // bitwise first-layer weights
}

TEST(ParallelTrainer, CloneCopiesWeightsAndIsolatesCaches) {
  ml::Model m = ml::make_mlp_baseline(features::kNumFeatures, 2);
  util::Rng rng(11);
  m.init(rng);
  ml::Model copy = m.clone();
  ASSERT_EQ(copy.num_parameters(), m.num_parameters());
  EXPECT_EQ(*copy.params().front().value, *m.params().front().value);

  // Same input -> same logits, computed independently.
  ml::Tensor x({1, 1, features::kNumFeatures});
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    x[i] = static_cast<float>(i) / features::kNumFeatures;
  }
  const ml::Tensor a = m.forward(x, false);
  const ml::Tensor b = copy.forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);

  // Diverge the copy: the original must be untouched.
  (*copy.params().front().value)[0] += 1.0f;
  EXPECT_NE(*copy.params().front().value, *m.params().front().value);
}

// ---------------------------------------------------------------------------
// threads_from_cli (shared --threads parsing for benches / examples / demos)

TEST(ThreadsFromCli, ParsesValueAndFallsBack) {
  const char* argv_with[] = {"prog", "--threads", "3", "--other", "x"};
  EXPECT_EQ(util::threads_from_cli(5, const_cast<char**>(argv_with), 7), 3u);

  const char* argv_without[] = {"prog", "--other", "x"};
  EXPECT_EQ(util::threads_from_cli(3, const_cast<char**>(argv_without), 7), 7u);
}

TEST(ThreadsFromCli, MalformedOrMissingValueUsesFallback) {
  const char* argv_bad[] = {"prog", "--threads", "zebra"};
  EXPECT_EQ(util::threads_from_cli(3, const_cast<char**>(argv_bad), 4), 4u);

  const char* argv_trailing[] = {"prog", "--threads"};
  EXPECT_EQ(util::threads_from_cli(2, const_cast<char**>(argv_trailing), 4), 4u);
}

}  // namespace
}  // namespace gea
