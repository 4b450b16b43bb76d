// Quickstart: train the CFG-feature CNN detector on a reduced synthetic
// corpus, attack it with one gradient attack and one GEA splice, serve the
// trained model through the batched detection server, and finish with the
// run's unified observability: one metrics dump (every subsystem reports
// into obs::MetricsRegistry::global()) plus a Chrome trace of the spans.
//
//   $ ./examples/quickstart [--threads N]
//
// --threads N (or GEA_THREADS=N) parallelizes corpus featurization; the
// trained detector and every number printed are identical at any N.
// Artifacts: quickstart_metrics.prom (Prometheus exposition) and
// quickstart_trace.json (open in chrome://tracing or Perfetto).
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "attacks/fgsm.hpp"
#include "attacks/harness.hpp"
#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "gea/embed.hpp"
#include "gea/selection.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/checkpoint.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace core = gea::core;
namespace dataset = gea::dataset;
namespace attacks = gea::attacks;
namespace gealib = gea::aug;
namespace cfg = gea::cfg;
namespace features = gea::features;
namespace serve = gea::serve;
namespace obs = gea::obs;

int main(int argc, char** argv) {

  // 1. Train the detector on a reduced corpus (fast; the full Table I
  //    corpus lives in the benches).
  std::printf("== training detector on synthetic IoT corpus ==\n");
  auto config = core::quick_config();
  config.threads = gea::util::threads_from_cli(argc, argv, config.threads);
  auto pipeline = core::DetectionPipeline::run(config);

  const auto& tm = pipeline.test_metrics();
  std::printf("corpus: %zu samples (%zu benign / %zu malicious)\n",
              pipeline.corpus().size(),
              pipeline.corpus().count_label(dataset::kBenign),
              pipeline.corpus().count_label(dataset::kMalicious));
  std::printf("test accuracy %.2f%%  FNR %.2f%%  FPR %.2f%%  (%s)\n",
              tm.accuracy() * 100, tm.fnr(1) * 100, tm.fpr(1) * 100,
              tm.to_string().c_str());
  std::printf("%s\n\n", pipeline.report().summary().c_str());

  // 2. One off-the-shelf attack: FGSM on the first correctly-classified
  //    malicious test sample.
  std::printf("== FGSM on one malicious sample ==\n");
  auto& clf = pipeline.classifier();
  const auto test = pipeline.scaled_data(pipeline.split().test);
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (test.labels[i] != dataset::kMalicious) continue;
    if (clf.predict(test.rows[i]) != dataset::kMalicious) continue;
    attacks::Fgsm fgsm;
    const auto adv = fgsm.craft(clf, test.rows[i], dataset::kBenign);
    std::printf("original predicted: %zu, adversarial predicted: %zu\n",
                clf.predict(test.rows[i]), clf.predict(adv));
    break;
  }

  // The harness run (the Table III driver) is what feeds the attacks.*
  // metrics the observability step dumps below.
  {
    attacks::Fgsm fgsm;
    const auto row = attacks::run_attack(fgsm, clf, test.rows, test.labels,
                                         nullptr, {.max_samples = 16});
    std::printf("FGSM harness: %zu/%zu samples misclassified "
                "(%.2f ms/sample crafting)\n\n",
                row.misclassified, row.samples, row.craft_ms_per_sample);
  }

  // 3. One GEA splice: largest benign CFG into the first malicious sample.
  std::printf("== GEA: embed largest benign CFG into a malicious sample ==\n");
  const auto& corpus = pipeline.corpus();
  const std::size_t target_idx = gealib::select_by_size(
      corpus, dataset::kBenign, gealib::SizeRank::kMaximum);
  const auto& target = corpus.samples()[target_idx];

  for (const auto& s : corpus.samples()) {
    if (s.label != dataset::kMalicious) continue;
    const auto merged = gealib::embed_program(s.program, target.program);
    const auto merged_cfg = cfg::extract_cfg(merged, {.main_only = true});
    const auto fv = features::extract_features(merged_cfg.graph);
    const auto scaled = pipeline.scaler().transform(fv);
    const std::vector<double> x(scaled.begin(), scaled.end());

    std::printf("original: %zu nodes; target: %zu nodes; merged: %zu nodes\n",
                s.num_nodes(), target.num_nodes(), merged_cfg.num_nodes());
    std::printf("merged predicted class: %zu (0=benign, 1=malicious)\n",
                clf.predict(x));
    std::printf("functionality preserved: %s\n",
                gealib::functionally_equivalent(s.program, merged) ? "yes" : "NO");
    break;
  }

  // 4. Serve the trained detector: persist a checkpoint, load it into a
  //    registry, and push a few test rows through the batched server.
  std::printf("\n== serving the trained detector ==\n");
  {
    const auto ckpt_dir =
        (std::filesystem::temp_directory_path() / "gea_quickstart_ckpt")
            .string();
    auto scaler = pipeline.scaler();  // copy; write takes a const pointer
    if (auto st = serve::Checkpoint::write(ckpt_dir, pipeline.model(), &scaler);
        !st.is_ok()) {
      std::printf("checkpoint write failed: %s\n", st.to_string().c_str());
    } else {
      serve::ModelRegistry registry;
      if (auto st = registry.load("v1", ckpt_dir); !st.is_ok()) {
        std::printf("checkpoint load failed: %s\n", st.to_string().c_str());
      } else {
        serve::DetectionServer server(registry, {.workers = 1});
        std::size_t served = 0;
        for (std::size_t i = 0; i < test.size() && served < 8; ++i, ++served) {
          // The server scales raw features itself; hand it unscaled rows.
          const auto& fv =
              pipeline.corpus().samples()[pipeline.split().test[i]].features;
          auto verdict = server.detect({fv.begin(), fv.end()});
          if (!verdict.is_ok()) {
            std::printf("detect failed: %s\n",
                        verdict.status().to_string().c_str());
            break;
          }
        }
        std::printf("%s\n", server.stats().summary().c_str());
      }
    }
    std::filesystem::remove_all(ckpt_dir);
  }

  // 5. The run's observability: every subsystem above (pipeline stages,
  //    training epochs, the attack, serving) reported into the same
  //    process-wide registry and trace recorder.
  std::printf("\n== observability: unified metrics + trace ==\n");
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  std::printf("%s\n", obs::summary(snapshot).c_str());
  std::printf("\n%s\n", obs::span_summary(obs::TraceRecorder::global()).c_str());

  std::ofstream prom("quickstart_metrics.prom");
  prom << obs::to_prometheus(snapshot);
  std::printf("\nwrote quickstart_metrics.prom\n");
  if (obs::write_chrome_trace("quickstart_trace.json")) {
    std::printf("wrote quickstart_trace.json (open in chrome://tracing)\n");
  }
  return 0;
}
