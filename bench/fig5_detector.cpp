// Reproduces Fig. 5 and SIV-C.1 — the CNN detector: architecture summary,
// parameter shapes, and the headline detection metrics.
//
// Paper: 97.13% accuracy, 11.26% FNR, 1.55% FPR, with the note that "the
// high value of FNR is due to the imbalanced number of malware and benign
// samples". With positive=malicious (our convention), malware is the
// *majority* class, so imbalance inflates errors on the benign minority —
// i.e. the paper's quoted FNR behaves like an error rate on the minority
// class. We therefore print both conventions.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace gea;
  bench::banner("Fig. 5 + SIV-C.1 — CNN-based IoT malware detector",
                "accuracy 97.13%, FNR 11.26%, FPR 1.55% (200 epochs, batch 100)");

  auto& p = bench::paper_pipeline();

  std::printf("Architecture (Fig. 5):\n%s\n", p.model().summary().c_str());

  const auto& train = p.train_metrics();
  const auto& test = p.test_metrics();

  util::AsciiTable t({"Split", "Accuracy", "FNR(mal)", "FPR(mal)",
                      "minority-class error", "Confusion"});
  auto add = [&](const char* name, const ml::MultiConfusion& m) {
    t.add_row({name, bench::pct(m.accuracy()) + "%",
               bench::pct(m.fnr(1)) + "%", bench::pct(m.fpr(1)) + "%",
               bench::pct(m.fpr(1)) + "%", m.to_string()});
  };
  add("train", train);
  add("test", test);
  std::printf("%s\n", t.to_string().c_str());

  std::printf(
      "Note: FNR/FPR above use positive=malicious. The paper's 11.26%% FNR /\n"
      "1.55%% FPR pattern (high error on the class the imbalance starves) maps\n"
      "to our minority-class (benign) error of %s%% vs majority error of %s%%.\n",
      bench::pct(test.fpr(1)).c_str(), bench::pct(test.fnr(1)).c_str());

  std::printf("\nTraining: %zu epochs run, final loss %.4f\n",
              p.train_stats().epoch_losses.size(), p.train_stats().final_loss);
  return 0;
}
