// Example: a GEA evasion "campaign". Take one malicious program and walk
// benign targets of increasing CFG size until the spliced binary is
// classified benign; then prove, by execution, that the evasive binary
// still behaves exactly like the malware it hides.
//
//   $ ./examples/gea_campaign
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "cfg/cfg.hpp"
#include "core/pipeline.hpp"
#include "gea/embed.hpp"
#include "graph/dot.hpp"
#include "isa/interpreter.hpp"
#include "util/table.hpp"

namespace core = gea::core;
namespace dataset = gea::dataset;
namespace aug = gea::aug;
namespace cfg = gea::cfg;
namespace features = gea::features;
namespace isa = gea::isa;
namespace util = gea::util;

int main() {
  std::printf("training detector (reduced corpus)...\n");
  auto pipeline = core::DetectionPipeline::run(core::quick_config());
  auto& clf = pipeline.classifier();
  const auto& corpus = pipeline.corpus();

  // Victim: the first malicious sample the detector classifies correctly.
  const dataset::Sample* victim = nullptr;
  for (const auto& s : corpus.samples()) {
    if (s.label != dataset::kMalicious) continue;
    const auto scaled = pipeline.scaler().transform(s.features);
    if (clf.predict({scaled.begin(), scaled.end()}) == dataset::kMalicious) {
      victim = &s;
      break;
    }
  }
  if (victim == nullptr) return 1;
  std::printf("victim: sample #%u (%s), %zu CFG nodes\n\n", victim->id,
              gea::bingen::family_name(victim->family), victim->num_nodes());

  // Benign targets sorted by CFG size.
  std::vector<std::size_t> targets = corpus.indices_of(dataset::kBenign);
  std::sort(targets.begin(), targets.end(), [&](std::size_t a, std::size_t b) {
    return corpus.samples()[a].num_nodes() < corpus.samples()[b].num_nodes();
  });

  util::AsciiTable t({"target nodes", "merged nodes", "P(malicious)",
                      "verdict", "func-equiv"});
  bool evaded = false;
  // Walk a spread of target sizes from smallest to largest.
  for (std::size_t k = 0; k < 8 && !evaded; ++k) {
    const std::size_t ti = targets[k * (targets.size() - 1) / 7];
    const auto& target = corpus.samples()[ti];

    const auto merged = aug::embed_program(victim->program, target.program);
    // Labelled: an evading graft is written out as DOT below.
    const auto merged_cfg =
        cfg::extract_cfg(merged, {.main_only = true, .label_blocks = true});
    const auto fv = features::extract_features(merged_cfg.graph);
    const auto scaled = pipeline.scaler().transform(fv);
    const std::vector<double> x(scaled.begin(), scaled.end());

    const double p_mal = clf.probabilities(x)[dataset::kMalicious];
    const bool flipped = clf.predict(x) == dataset::kBenign;
    const bool equiv = aug::functionally_equivalent(victim->program, merged);
    t.add_row({util::AsciiTable::fmt_int(static_cast<long long>(target.num_nodes())),
               util::AsciiTable::fmt_int(static_cast<long long>(merged_cfg.num_nodes())),
               util::AsciiTable::fmt(p_mal, 4),
               flipped ? "BENIGN (evaded)" : "malicious",
               equiv ? "yes" : "NO"});
    if (flipped) {
      evaded = true;
      std::filesystem::create_directories("artifacts");
      gea::graph::write_dot(merged_cfg.graph, "artifacts/gea_evasive_sample.dot");
      std::printf("%s\n", t.to_string().c_str());
      std::printf("evasion succeeded with a %zu-node benign graft; combined CFG "
                  "written to artifacts/gea_evasive_sample.dot\n",
                  target.num_nodes());
      std::printf("the evasive binary still executes the malware: %s\n",
                  equiv ? "verified" : "VERIFICATION FAILED");
      return 0;
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("no target in the sweep flipped this victim — rerun with a "
              "larger corpus (more / larger benign targets).\n");
  return 0;
}
