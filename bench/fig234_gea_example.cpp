// Reproduces Figures 2, 3 and 4 — the worked GEA example: the CFG of a
// counting-loop program (Fig. 2), the CFG of a straight-line assignment
// program (Fig. 3), and the combined graph with shared entry and exit
// (Fig. 4). Emits Graphviz DOT for all three and verifies, by execution,
// that the combined program behaves exactly like the original.
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "cfg/cfg.hpp"
#include "gea/embed.hpp"
#include "graph/dot.hpp"
#include "isa/assembler.hpp"
#include "isa/interpreter.hpp"

int main() {
  using namespace gea;

  bench::banner("Figures 2/3/4 — the worked GEA example",
                "a 3-node loop CFG + a 1-node straight-line CFG merge into a "
                "combined CFG sharing entry and exit; functionality preserved");

  // Fig. 2: the counting loop (x_org). Mirrors the paper's
  //   local = 0; while (local <= 9) local += 1;
  const auto original = isa::assemble(R"(
    func main
      movi r1, 0
    loop:
      addi r1, 1
      cmpi r1, 9
      jle loop
      mov r0, r1
      halt
    endfunc
  )");

  // Fig. 3: straight-line assignments (x_sel).
  const auto selected = isa::assemble(R"(
    func main
      movi r1, 1
      movi r2, 2
      movi r3, 10
      nop
      nop
      halt
    endfunc
  )");

  // Labelled blocks: the DOT figures show each block's disassembly.
  const cfg::CfgOptions dot_opts{.main_only = true, .label_blocks = true};
  const auto cfg_org = cfg::extract_cfg(original, dot_opts);
  const auto cfg_sel = cfg::extract_cfg(selected, dot_opts);
  const auto merged = aug::embed_program(original, selected);
  const auto cfg_merged = cfg::extract_cfg(merged, dot_opts);

  std::printf("Fig. 2 (original):  %zu nodes, %zu edges\n",
              cfg_org.num_nodes(), cfg_org.num_edges());
  std::printf("Fig. 3 (selected):  %zu nodes, %zu edges\n",
              cfg_sel.num_nodes(), cfg_sel.num_edges());
  std::printf("Fig. 4 (combined):  %zu nodes, %zu edges "
              "(shared entry out-degree %zu, shared exit in-degree %zu)\n\n",
              cfg_merged.num_nodes(), cfg_merged.num_edges(),
              cfg_merged.graph.out_degree(cfg_merged.entry),
              cfg_merged.graph.in_degree(cfg_merged.exit_nodes.at(0)));

  std::filesystem::create_directories("artifacts");
  graph::write_dot(cfg_org.graph, "artifacts/fig2_original_cfg.dot",
                   {.graph_name = "fig2"});
  graph::write_dot(cfg_sel.graph, "artifacts/fig3_selected_cfg.dot",
                   {.graph_name = "fig3"});
  graph::write_dot(cfg_merged.graph, "artifacts/fig4_combined_cfg.dot",
                   {.graph_name = "fig4"});
  std::printf("DOT written to artifacts/: fig2_original_cfg.dot "
              "fig3_selected_cfg.dot fig4_combined_cfg.dot "
              "(render with `dot -Tpng`)\n\n");

  std::printf("Combined program disassembly:\n%s\n",
              merged.disassemble().c_str());

  const auto r_org = isa::execute(original);
  const auto r_merged = isa::execute(merged);
  std::printf("original run:  result=%lld steps=%llu\n",
              static_cast<long long>(r_org.result),
              static_cast<unsigned long long>(r_org.steps));
  std::printf("combined run:  result=%lld steps=%llu\n",
              static_cast<long long>(r_merged.result),
              static_cast<unsigned long long>(r_merged.steps));
  std::printf("functionality preserved: %s\n",
              r_org.equivalent(r_merged) ? "YES (verified by execution)"
                                         : "NO — BUG");
  return r_org.equivalent(r_merged) ? 0 : 1;
}
