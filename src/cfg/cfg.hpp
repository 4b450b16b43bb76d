// Control-flow graph extraction from mini-ISA programs.
//
// This plays the role Radare2 plays in the paper: instructions in, basic
// block digraph out. Leaders are identified per function (function entry,
// jump targets, fall-through successors of branches); calls do not split
// control flow (execution resumes after the call), matching intra-procedural
// CFG construction. Optionally, call edges can be added to connect the
// per-function components the way some binary-analysis tools do.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"
#include "isa/program.hpp"
#include "util/status.hpp"

namespace gea::cfg {

/// One basic block: a maximal straight-line instruction range.
struct BasicBlock {
  std::uint32_t begin = 0;  // first instruction index
  std::uint32_t end = 0;    // one past the last instruction
  std::uint32_t function = 0;  // index into program.functions()

  std::uint32_t size() const { return end - begin; }
};

struct CfgOptions {
  /// Extract only the entry function's CFG (the paper's convention: its
  /// Figs. 2-4 are all `sym.main` function graphs, and the node counts it
  /// reports are main-function sizes). Off = whole-program CFG with one
  /// component per function.
  bool main_only = false;
  /// Add an edge from the block containing each `call` to the callee's
  /// entry block (and from the callee's exit blocks back). Off by default:
  /// the paper's per-binary CFGs keep functions as separate components.
  /// Ignored when main_only is set.
  bool call_edges = false;
  /// Put disassembly text on node labels. Off by default: only DOT
  /// rendering reads the labels, and rendering every block's text costs
  /// more than extracting the graph. Callers that write DOT turn it on.
  bool label_blocks = false;
  /// Maximum instructions shown per label.
  std::size_t label_max_instructions = 6;
};

/// A CFG: one graph node per basic block, plus block metadata.
struct Cfg {
  graph::DiGraph graph;
  std::vector<BasicBlock> blocks;  // blocks[i] corresponds to graph node i
  graph::NodeId entry = 0;         // block containing instruction 0
  std::vector<graph::NodeId> exit_nodes;  // blocks ending in halt / main-ret

  std::size_t num_nodes() const { return graph.num_nodes(); }
  std::size_t num_edges() const { return graph.num_edges(); }

  /// Block containing instruction `pc`, if any.
  std::optional<graph::NodeId> block_of(std::uint32_t pc) const;
};

/// Extract the CFG of a validated program.
/// Throws std::invalid_argument if the program fails validation.
Cfg extract_cfg(const isa::Program& program, const CfgOptions& opts = {});

/// Invariant checker for an extracted (or spliced, or deserialized) CFG:
///   - at least one node, and exactly one block per graph node
///   - block ranges well-formed (begin < end)
///   - internally consistent graph (edge endpoints in bounds, out/in
///     adjacency mirrored) — catches dangling edges
///   - entry and every exit id in bounds
///   - at least one exit, each reachable from the entry
/// Used as a quarantine gate by the pipeline and as a pre/post-condition of
/// GEA splicing, so downstream feature extraction can assume a sane graph.
util::Status validate(const Cfg& cfg);

}  // namespace gea::cfg
