// Example: the binary-analysis substrate on its own — assemble a program
// (from a file, or a built-in demo), extract its CFG the way the paper's
// Radare2 stage does, print the 23 Table II features, run it in the
// interpreter, and emit a DOT rendering.
//
//   $ ./examples/binary_analysis [program.asm]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cfg/cfg.hpp"
#include "features/features.hpp"
#include "graph/dot.hpp"
#include "isa/assembler.hpp"
#include "isa/interpreter.hpp"
#include "util/table.hpp"

namespace cfg = gea::cfg;
namespace features = gea::features;
namespace isa = gea::isa;
namespace util = gea::util;

namespace {

const char* kDemoProgram = R"(
; a toy "scanner": read targets until EOF, probe each, tally successes
func main
  movi r1, 0          ; success counter
scan:
  syscall 2, r0       ; read next target (0 = EOF)
  cmpi r0, 0
  je report
  mov r2, r0
  call probe
  cmpi r0, 0
  je scan
  addi r1, 1
  jmp scan
report:
  syscall 3, r1       ; write tally
  mov r0, r1
  halt
endfunc

func probe
  syscall 5, r2       ; connect
  syscall 7, r0       ; recv banner
  and r0, r2
  ret
endfunc
)";

}  // namespace

int main(int argc, char** argv) {
  std::string source = kDemoProgram;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  }

  const auto program = isa::assemble(source);
  std::printf("assembled %zu instructions in %zu functions\n\n",
              program.size(), program.functions().size());
  std::printf("%s\n", program.disassemble().c_str());

  const auto c = cfg::extract_cfg(program, {.label_blocks = true});  // for DOT
  std::printf("CFG: %zu basic blocks, %zu edges, entry block %u, %zu exit "
              "block(s)\n\n",
              c.num_nodes(), c.num_edges(), c.entry, c.exit_nodes.size());

  const auto fv = features::extract_features(c.graph);
  util::AsciiTable t({"feature", "value"});
  for (std::size_t i = 0; i < features::kNumFeatures; ++i) {
    t.add_row({features::feature_name(i), util::AsciiTable::fmt(fv[i], 5)});
  }
  std::printf("%s\n", t.to_string().c_str());

  const auto result = isa::execute(program);
  std::printf("execution: result=%lld, %llu steps, %zu syscalls traced\n",
              static_cast<long long>(result.result),
              static_cast<unsigned long long>(result.steps),
              result.trace.size());

  std::filesystem::create_directories("artifacts");
  gea::graph::write_dot(c.graph, "artifacts/binary_analysis_cfg.dot");
  std::printf("CFG written to artifacts/binary_analysis_cfg.dot\n");
  return 0;
}
