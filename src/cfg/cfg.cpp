#include "cfg/cfg.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace gea::cfg {

using isa::Instruction;
using isa::Opcode;

std::optional<graph::NodeId> Cfg::block_of(std::uint32_t pc) const {
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (pc >= blocks[i].begin && pc < blocks[i].end) {
      return static_cast<graph::NodeId>(i);
    }
  }
  return std::nullopt;
}

namespace {

std::string block_label(const isa::Program& p, const BasicBlock& b,
                        std::size_t max_instructions) {
  std::ostringstream ss;
  ss << "0x" << std::hex << b.begin << std::dec << ":\n";
  const std::uint32_t shown =
      std::min<std::uint32_t>(b.size(), static_cast<std::uint32_t>(max_instructions));
  for (std::uint32_t i = b.begin; i < b.begin + shown; ++i) {
    ss << isa::to_string(p.code()[i]) << '\n';
  }
  if (shown < b.size()) ss << "... (+" << (b.size() - shown) << ")\n";
  return ss.str();
}

}  // namespace

util::Status validate(const Cfg& cfg) {
  using util::ErrorCode;
  using util::Status;

  const std::size_t n = cfg.graph.num_nodes();
  if (n == 0) {
    return Status::error(ErrorCode::kCorruptData, "zero-node CFG");
  }
  if (cfg.blocks.size() != n) {
    return Status::error(ErrorCode::kCorruptData,
                         "block list does not match graph: " +
                             std::to_string(cfg.blocks.size()) + " blocks vs " +
                             std::to_string(n) + " nodes");
  }
  for (std::size_t i = 0; i < cfg.blocks.size(); ++i) {
    if (cfg.blocks[i].begin >= cfg.blocks[i].end) {
      return Status::error(ErrorCode::kCorruptData,
                           "empty or inverted block range at node " +
                               std::to_string(i));
    }
  }
  if (auto err = cfg.graph.validate()) {
    return Status::error(ErrorCode::kCorruptData,
                         "dangling edge or inconsistent adjacency: " + *err);
  }
  if (cfg.entry >= n) {
    return Status::error(ErrorCode::kCorruptData,
                         "dangling entry: node " + std::to_string(cfg.entry) +
                             " out of bounds (" + std::to_string(n) + " nodes)");
  }
  if (cfg.exit_nodes.empty()) {
    return Status::error(ErrorCode::kCorruptData, "CFG has no exit node");
  }
  const auto dist = graph::bfs_distances(cfg.graph, cfg.entry);
  for (graph::NodeId e : cfg.exit_nodes) {
    if (e >= n) {
      return Status::error(ErrorCode::kCorruptData,
                           "dangling exit: node " + std::to_string(e) +
                               " out of bounds (" + std::to_string(n) +
                               " nodes)");
    }
    if (dist[e] == graph::kUnreachable) {
      return Status::error(ErrorCode::kCorruptData,
                           "disconnected exit: node " + std::to_string(e) +
                               " unreachable from entry");
    }
  }
  return Status::ok();
}

Cfg extract_cfg(const isa::Program& program, const CfgOptions& opts) {
  if (auto err = program.validate()) {
    throw std::invalid_argument("extract_cfg: invalid program: " + *err);
  }

  const auto& code = program.code();
  const auto& functions = program.functions();
  const std::size_t num_functions = opts.main_only ? 1 : functions.size();

  // Pass 1: identify leaders per function. Jumps stay within their
  // function (validate checks it), so the extracted functions' leaders are
  // all the blocks there are. block_at doubles as the leader table: a
  // leader's entry becomes its node id in pass 2, every other pc stays
  // kNoBlock.
  constexpr graph::NodeId kNoBlock = ~graph::NodeId{0};
  constexpr graph::NodeId kLeader = 0;
  std::vector<graph::NodeId> block_at(code.size(), kNoBlock);
  std::size_t num_blocks = 0;
  auto mark = [&](std::uint32_t pc) {
    if (block_at[pc] == kNoBlock) {
      block_at[pc] = kLeader;
      ++num_blocks;
    }
  };
  for (std::size_t fi = 0; fi < num_functions; ++fi) {
    const auto& f = functions[fi];
    mark(f.begin);
    for (std::uint32_t i = f.begin; i < f.end; ++i) {
      const Instruction& ins = code[i];
      if (isa::is_jump(ins.op)) {
        mark(ins.target);
        if (i + 1 < f.end) mark(i + 1);  // fall-through successor
      } else if (ins.op == Opcode::kRet || ins.op == Opcode::kHalt) {
        if (i + 1 < f.end) mark(i + 1);
      }
    }
  }

  // Pass 2: materialize blocks (contiguous ranges between leaders, clipped
  // at function boundaries), one graph node each, sized up front.
  Cfg cfg;
  cfg.graph = graph::DiGraph(num_blocks);
  cfg.blocks.reserve(num_blocks);
  for (std::size_t fi = 0; fi < num_functions; ++fi) {
    const auto& f = functions[fi];
    std::uint32_t start = f.begin;
    for (std::uint32_t i = f.begin + 1; i <= f.end; ++i) {
      if (i == f.end || block_at[i] != kNoBlock) {
        const auto node = static_cast<graph::NodeId>(cfg.blocks.size());
        cfg.blocks.push_back({start, i, static_cast<std::uint32_t>(fi)});
        if (opts.label_blocks) {
          cfg.graph.set_label(node, block_label(program, cfg.blocks.back(),
                                                opts.label_max_instructions));
        }
        block_at[start] = node;
        start = i;
      }
    }
  }

  // Pass 3: edges.
  for (std::size_t bi = 0; bi < cfg.blocks.size(); ++bi) {
    const BasicBlock& b = cfg.blocks[bi];
    const auto node = static_cast<graph::NodeId>(bi);
    const Instruction& last = code[b.end - 1];
    const auto& f = functions[b.function];

    auto link_to_pc = [&](std::uint32_t pc) {
      if (block_at[pc] == kNoBlock) {
        throw std::logic_error("extract_cfg: edge to non-leader pc");
      }
      cfg.graph.add_edge(node, block_at[pc]);
    };

    if (isa::is_jump(last.op)) {
      link_to_pc(last.target);
      if (isa::is_conditional(last.op) && b.end < f.end) link_to_pc(b.end);
    } else if (last.op == Opcode::kRet || last.op == Opcode::kHalt) {
      // no successors
    } else if (b.end < f.end) {
      link_to_pc(b.end);  // plain fall-through (includes blocks ending in call)
    }

    if (opts.call_edges && !opts.main_only) {
      for (std::uint32_t i = b.begin; i < b.end; ++i) {
        if (code[i].op == Opcode::kCall) link_to_pc(code[i].target);
      }
    }
  }

  // Entry and exits.
  if (block_at[0] == kNoBlock) {
    throw std::out_of_range("extract_cfg: no block at the entry pc");
  }
  cfg.entry = block_at[0];
  const auto& main_fn = functions.front();
  for (std::size_t bi = 0; bi < cfg.blocks.size(); ++bi) {
    const BasicBlock& b = cfg.blocks[bi];
    const Instruction& last = code[b.end - 1];
    const bool main_ret = last.op == Opcode::kRet && main_fn.contains(b.begin);
    if (last.op == Opcode::kHalt || main_ret) {
      cfg.exit_nodes.push_back(static_cast<graph::NodeId>(bi));
    }
  }
  return cfg;
}

}  // namespace gea::cfg
