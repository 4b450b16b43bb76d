#include <gtest/gtest.h>

#include "cfg/cfg.hpp"
#include "graph/algorithms.hpp"
#include "isa/assembler.hpp"

namespace {

using namespace gea;
using cfg::extract_cfg;

cfg::Cfg from_asm(const std::string& src, cfg::CfgOptions opts = {}) {
  return extract_cfg(isa::assemble(src), opts);
}

TEST(Cfg, StraightLineIsOneBlock) {
  const auto c = from_asm(R"(
    func main
      movi r1, 1
      addi r1, 2
      halt
    endfunc
  )");
  EXPECT_EQ(c.num_nodes(), 1u);
  EXPECT_EQ(c.num_edges(), 0u);
  EXPECT_EQ(c.entry, 0u);
  ASSERT_EQ(c.exit_nodes.size(), 1u);
  EXPECT_EQ(c.exit_nodes[0], 0u);
}

TEST(Cfg, Fig2CountingLoop) {
  // The paper's Fig. 2: init block, loop body with back edge, exit block.
  const auto c = from_asm(R"(
    func main
      movi r1, 0
    loop:
      addi r1, 1
      cmpi r1, 9
      jle loop
      nop
      halt
    endfunc
  )");
  EXPECT_EQ(c.num_nodes(), 3u);
  // edges: init->loop, loop->loop (back), loop->exit.
  EXPECT_EQ(c.num_edges(), 3u);
  const auto loop_block = c.block_of(1);
  ASSERT_TRUE(loop_block.has_value());
  EXPECT_TRUE(c.graph.has_edge(*loop_block, *loop_block));
}

TEST(Cfg, Fig3StraightLineAssignments) {
  // The paper's Fig. 3: straight-line code, single node.
  const auto c = from_asm(R"(
    func main
      movi r1, 1
      movi r2, 2
      movi r3, 10
      nop
      nop
      halt
    endfunc
  )");
  EXPECT_EQ(c.num_nodes(), 1u);
  EXPECT_EQ(c.num_edges(), 0u);
}

TEST(Cfg, IfElseDiamond) {
  const auto c = from_asm(R"(
    func main
      cmpi r1, 0
      je else
      movi r2, 1
      jmp end
    else:
      movi r2, 2
    end:
      halt
    endfunc
  )");
  // blocks: [cmp,je] [then,jmp] [else] [end]
  EXPECT_EQ(c.num_nodes(), 4u);
  EXPECT_EQ(c.num_edges(), 4u);
  EXPECT_TRUE(graph::all_reachable_from(c.graph, c.entry));
}

TEST(Cfg, ConditionalFallThroughEdge) {
  const auto c = from_asm(R"(
    func main
      cmpi r1, 3
      jg skip
      nop
    skip:
      halt
    endfunc
  )");
  EXPECT_EQ(c.num_nodes(), 3u);
  // branch block has 2 successors.
  EXPECT_EQ(c.graph.out_degree(c.entry), 2u);
}

TEST(Cfg, CallDoesNotSplitControlFlow) {
  const auto c = from_asm(R"(
    func main
      movi r1, 1
      call f
      addi r1, 1
      halt
    endfunc
    func f
      ret
    endfunc
  )");
  // main is one straight block (call falls through); f is its own block.
  EXPECT_EQ(c.num_nodes(), 2u);
  EXPECT_EQ(c.num_edges(), 0u);  // no interprocedural edges by default
}

TEST(Cfg, CallEdgesOptional) {
  cfg::CfgOptions opts;
  opts.call_edges = true;
  const auto c = from_asm(R"(
    func main
      call f
      halt
    endfunc
    func f
      ret
    endfunc
  )", opts);
  EXPECT_EQ(c.num_edges(), 1u);
}

TEST(Cfg, MultipleFunctionsAreSeparateComponents) {
  const auto c = from_asm(R"(
    func main
      call f
      call g
      halt
    endfunc
    func f
      nop
      ret
    endfunc
    func g
      cmpi r1, 0
      je out
      nop
    out:
      ret
    endfunc
  )");
  EXPECT_EQ(graph::num_weakly_connected_components(c.graph), 3u);
}

TEST(Cfg, ExitNodesIncludeMainRet) {
  const auto c = from_asm(R"(
    func main
      cmpi r1, 0
      je out
      halt
    out:
      ret
    endfunc
  )");
  EXPECT_EQ(c.exit_nodes.size(), 2u);  // the halt block and the ret block
}

TEST(Cfg, HelperRetIsNotAnExit) {
  const auto c = from_asm(R"(
    func main
      call f
      halt
    endfunc
    func f
      ret
    endfunc
  )");
  ASSERT_EQ(c.exit_nodes.size(), 1u);
  EXPECT_EQ(c.blocks[c.exit_nodes[0]].function, 0u);
}

TEST(Cfg, BlockOfMapsInstructionsToBlocks) {
  const auto c = from_asm(R"(
    func main
      movi r1, 0
    loop:
      addi r1, 1
      cmpi r1, 3
      jle loop
      halt
    endfunc
  )");
  EXPECT_EQ(*c.block_of(0), c.entry);
  EXPECT_EQ(*c.block_of(1), *c.block_of(3));
  EXPECT_NE(*c.block_of(0), *c.block_of(1));
  EXPECT_FALSE(c.block_of(99).has_value());
}

TEST(Cfg, BlockLabelsCarryDisassembly) {
  const auto c = from_asm(R"(
    func main
      movi r1, 7
      halt
    endfunc
  )", {.label_blocks = true});
  EXPECT_NE(c.graph.label(0).find("movi r1, 7"), std::string::npos);
}

TEST(Cfg, LabelsAreOffByDefault) {
  const auto c = from_asm("func main\n movi r1, 7\n halt\nendfunc");
  EXPECT_TRUE(c.graph.label(0).empty());
}

TEST(Cfg, LabelsCanBeDisabled) {
  cfg::CfgOptions opts;
  opts.label_blocks = false;
  const auto c = from_asm("func main\n halt\nendfunc", opts);
  EXPECT_TRUE(c.graph.label(0).empty());
}

TEST(Cfg, LongBlockLabelTruncates) {
  cfg::CfgOptions opts;
  opts.label_blocks = true;
  opts.label_max_instructions = 2;
  const auto c = from_asm(R"(
    func main
      movi r1, 1
      movi r2, 2
      movi r3, 3
      movi r4, 4
      halt
    endfunc
  )", opts);
  EXPECT_NE(c.graph.label(0).find("(+3)"), std::string::npos);
}

TEST(Cfg, InvalidProgramThrows) {
  isa::Program p;
  EXPECT_THROW(extract_cfg(p), std::invalid_argument);
}

TEST(Cfg, GraphValidatesStructurally) {
  const auto c = from_asm(R"(
    func main
      cmpi r1, 0
      jne a
      nop
    a:
      cmpi r2, 0
      je b
      nop
    b:
      halt
    endfunc
  )");
  EXPECT_FALSE(c.graph.validate().has_value());
  EXPECT_TRUE(graph::all_reachable_from(c.graph, c.entry));
}

TEST(Cfg, SelfLoopSingleBlockProgram) {
  // One block that loops to itself plus exit: jne back to instruction 0.
  const auto c = from_asm(R"(
    func main
    top:
      syscall 2, r0
      cmpi r0, 0
      jne top
      halt
    endfunc
  )");
  EXPECT_EQ(c.num_nodes(), 2u);
  EXPECT_TRUE(c.graph.has_edge(0, 0));
}

}  // namespace
