// Extension — non-differentiable victim: a random forest trained on the
// same 23 CFG features. White-box gradient attacks cannot run against it
// directly, so this measures (a) how CNN-crafted AEs *transfer* to the
// forest (the black-box surrogate play) and (b) how GEA — which needs no
// gradients at all — fares. If GEA beats the forest too, the weakness is
// provably the feature space, not the CNN: the paper's thesis at full
// strength.
#include <cstdio>

#include "bench_common.hpp"
#include "cfg/cfg.hpp"
#include "gea/selection.hpp"
#include "ml/forest.hpp"

int main() {
  using namespace gea;
  bench::banner("Extension — random-forest victim (no gradients to follow)",
                "CFG features are the weakness: attacks must also beat a "
                "model family immune to white-box gradient descent");

  auto& p = bench::paper_pipeline();
  const auto train = p.scaled_data(p.split().train);
  const auto test = p.scaled_data(p.split().test);

  ml::RandomForest forest;
  forest.fit(train.rows, train.labels);
  const auto cm =
      ml::confusion_k(2, forest.predict_all(test.rows), test.labels);
  std::printf("forest: %zu trees, test accuracy %s%%  FNR %s%%  FPR %s%%\n\n",
              forest.num_trees(), bench::pct(cm.accuracy()).c_str(),
              bench::pct(cm.fnr(1)).c_str(), bench::pct(cm.fpr(1)).c_str());

  // (a) transfer: craft on the CNN, replay on the forest.
  util::AsciiTable t({"Attack on CNN", "CNN MR (%)", "forest transfer MR (%)",
                      "# samples"});
  auto transfer = [&](attacks::Attack& attack) {
    std::size_t n = 0, cnn_flips = 0, forest_flips = 0;
    for (std::size_t i = 0; i < test.size() && n < 150; ++i) {
      const auto& x = test.rows[i];
      const auto label = test.labels[i];
      if (p.classifier().predict(x) != label || forest.predict(x) != label) {
        continue;
      }
      ++n;
      const auto adv = attack.craft(p.classifier(), x, label == 0 ? 1 : 0);
      if (p.classifier().predict(adv) != label) ++cnn_flips;
      if (forest.predict(adv) != label) ++forest_flips;
    }
    t.add_row({attack.name(),
               bench::pct(n ? static_cast<double>(cnn_flips) / n : 0),
               bench::pct(n ? static_cast<double>(forest_flips) / n : 0),
               util::AsciiTable::fmt_int(static_cast<long long>(n))});
  };
  attacks::Pgd pgd;
  attacks::Jsma jsma;
  transfer(pgd);
  transfer(jsma);
  std::printf("%s\n", t.to_string().c_str());

  // (b) GEA against the forest directly (no gradients involved).
  util::AsciiTable g({"GEA target (benign)", "# Nodes", "forest MR (%)"});
  for (auto rank : {aug::SizeRank::kMedian, aug::SizeRank::kMaximum}) {
    const auto ti = aug::select_by_size_confident(
        p.corpus(), dataset::kBenign, rank, [&](const dataset::Sample& s) {
          const auto sc = p.scaler().transform(s.features);
          return 1.0 - forest.prob1({sc.begin(), sc.end()});
        });
    const auto& target = p.corpus().samples()[ti];
    std::size_t attacked = 0, flipped = 0;
    for (const auto& s : p.corpus().samples()) {
      if (s.label != dataset::kMalicious || attacked >= 300) continue;
      const auto sc = p.scaler().transform(s.features);
      if (forest.predict({sc.begin(), sc.end()}) != dataset::kMalicious) {
        continue;
      }
      const auto merged = aug::embed_program(s.program, target.program);
      const auto fv = features::extract_features(
          cfg::extract_cfg(merged, {.main_only = true}).graph);
      const auto msc = p.scaler().transform(fv);
      ++attacked;
      if (forest.predict({msc.begin(), msc.end()}) != dataset::kMalicious) {
        ++flipped;
      }
    }
    g.add_row({aug::size_rank_name(rank),
               util::AsciiTable::fmt_int(static_cast<long long>(target.num_nodes())),
               bench::pct(attacked ? static_cast<double>(flipped) / attacked : 0)});
  }
  std::printf("%s", g.to_string().c_str());
  return 0;
}
