#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "bingen/families.hpp"
#include "cfg/cfg.hpp"
#include "gea/embed.hpp"
#include "gea/selection.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "isa/assembler.hpp"
#include "util/rng.hpp"

namespace {

using namespace gea;
namespace gealib = gea::aug;
using bingen::Family;
using gea::util::Rng;

isa::Program tiny(const std::string& src) { return isa::assemble(src); }

const char* kLoopProgram = R"(
  func main
    movi r1, 0
  loop:
    addi r1, 1
    cmpi r1, 9
    jle loop
    mov r0, r1
    halt
  endfunc
)";

const char* kStraightProgram = R"(
  func main
    movi r1, 1
    movi r2, 2
    movi r3, 10
    nop
    halt
  endfunc
)";

// ---------------------------------------------------------------------------
// embed_program structural properties (the Fig. 2 + Fig. 3 -> Fig. 4 merge)

TEST(Embed, MergedProgramValidates) {
  const auto merged =
      gealib::embed_program(tiny(kLoopProgram), tiny(kStraightProgram));
  EXPECT_FALSE(merged.validate().has_value());
}

TEST(Embed, SharedEntryHasBothSuccessors) {
  const auto merged =
      gealib::embed_program(tiny(kLoopProgram), tiny(kStraightProgram));
  const auto c = cfg::extract_cfg(merged);
  // Entry block is the guard: one edge falls through to the original, one
  // jumps to the selected sample.
  EXPECT_EQ(c.graph.out_degree(c.entry), 2u);
}

TEST(Embed, SingleSharedExit) {
  const auto merged =
      gealib::embed_program(tiny(kLoopProgram), tiny(kStraightProgram));
  const auto c = cfg::extract_cfg(merged);
  ASSERT_EQ(c.exit_nodes.size(), 1u);
  // Both branches converge: the exit has at least two predecessors.
  EXPECT_GE(c.graph.in_degree(c.exit_nodes[0]), 2u);
}

TEST(Embed, NodeCountIsRoughlyAdditive) {
  const auto a = tiny(kLoopProgram);
  const auto b = tiny(kStraightProgram);
  const auto na = cfg::extract_cfg(a).num_nodes();
  const auto nb = cfg::extract_cfg(b).num_nodes();
  const auto merged_nodes = cfg::extract_cfg(gealib::embed_program(a, b)).num_nodes();
  // merged = original + selected + guard + exit (+/- rewritten terminators).
  EXPECT_GE(merged_nodes, na + nb);
  EXPECT_LE(merged_nodes, na + nb + 4);
}

TEST(Embed, ExecutesOriginalBehaviour) {
  const auto orig = tiny(kLoopProgram);
  const auto merged = gealib::embed_program(orig, tiny(kStraightProgram));
  const auto r_orig = isa::execute(orig);
  const auto r_merged = isa::execute(merged);
  EXPECT_TRUE(r_orig.equivalent(r_merged));
  EXPECT_EQ(r_merged.result, 10);  // the loop's counter, not the target's r3
}

TEST(Embed, TargetFirstGuardStillRunsOriginal) {
  gealib::EmbedOptions opts;
  opts.guard = gealib::GuardKind::kTargetFirst;
  const auto orig = tiny(kLoopProgram);
  const auto merged = gealib::embed_program(orig, tiny(kStraightProgram), opts);
  EXPECT_FALSE(merged.validate().has_value());
  EXPECT_TRUE(gealib::functionally_equivalent(orig, merged));
}

TEST(Embed, PreservesRetTerminatedMain) {
  const auto orig = tiny("func main\n movi r0, 7\n ret\nendfunc");
  const auto merged = gealib::embed_program(orig, tiny(kStraightProgram));
  EXPECT_TRUE(gealib::functionally_equivalent(orig, merged));
}

TEST(Embed, PreservesSyscallTrace) {
  const auto orig = tiny(R"(
    func main
      movi r1, 5
      syscall 3, r1
      syscall 6, r1
      halt
    endfunc
  )");
  const auto target = tiny(R"(
    func main
      movi r2, 9
      syscall 8, r2
      halt
    endfunc
  )");
  const auto merged = gealib::embed_program(orig, target);
  const auto r = isa::execute(merged);
  // The target's exec syscall (8) must never appear.
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace[0].syscall_no, 3);
  EXPECT_EQ(r.trace[1].syscall_no, 6);
}

TEST(Embed, HandlesHelperFunctionsOnBothSides) {
  const auto orig = tiny(R"(
    func main
      movi r1, 3
      call twice
      halt
    endfunc
    func twice
      mov r0, r1
      add r0, r1
      ret
    endfunc
  )");
  const auto target = tiny(R"(
    func main
      call beep
      halt
    endfunc
    func beep
      movi r4, 1
      syscall 3, r4
      ret
    endfunc
  )");
  const auto merged = gealib::embed_program(orig, target);
  EXPECT_FALSE(merged.validate().has_value());
  EXPECT_TRUE(gealib::functionally_equivalent(orig, merged));
  const auto r = isa::execute(merged);
  EXPECT_EQ(r.result, 6);
  EXPECT_TRUE(r.trace.empty());  // beep's syscall never runs
}

TEST(Embed, RejectsInvalidInputs) {
  isa::Program bad;  // empty
  EXPECT_THROW(gealib::embed_program(bad, tiny(kStraightProgram)),
               std::invalid_argument);
  EXPECT_THROW(gealib::embed_program(tiny(kStraightProgram), bad),
               std::invalid_argument);
}

TEST(Embed, IdempotentSizeGrowth) {
  // Embedding twice keeps growing the program; sizes stay coherent.
  const auto a = tiny(kLoopProgram);
  const auto b = tiny(kStraightProgram);
  const auto once = gealib::embed_program(a, b);
  const auto twice = gealib::embed_program(once, b);
  EXPECT_GT(twice.size(), once.size());
  EXPECT_TRUE(gealib::functionally_equivalent(a, twice));
}

// Property sweep: GEA on random generated family programs of every mix.
class EmbedPropertyTest
    : public ::testing::TestWithParam<std::tuple<Family, Family, int>> {};

TEST_P(EmbedPropertyTest, EquivalenceAndStructure) {
  const auto [orig_family, target_family, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 97 + 7);
  const auto orig = bingen::generate_program(orig_family, rng);
  const auto target = bingen::generate_program(target_family, rng);

  const auto merged = gealib::embed_program(orig, target);
  EXPECT_FALSE(merged.validate().has_value());
  EXPECT_TRUE(gealib::functionally_equivalent(orig, merged));

  const auto c_orig = cfg::extract_cfg(orig);
  const auto c_target = cfg::extract_cfg(target);
  const auto c_merged = cfg::extract_cfg(merged);
  EXPECT_GE(c_merged.num_nodes(), c_orig.num_nodes() + c_target.num_nodes());
  EXPECT_GE(c_merged.num_edges(), c_orig.num_edges() + c_target.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    FamilyMixes, EmbedPropertyTest,
    ::testing::Combine(::testing::Values(Family::kMiraiLike,
                                         Family::kBenignUtility),
                       ::testing::Values(Family::kBenignDaemon,
                                         Family::kGafgytLike),
                       ::testing::Range(0, 5)));

// ---------------------------------------------------------------------------
// embed_graph (pure graph-level variant)

TEST(EmbedGraph, AddsGuardAndExit) {
  const auto a = graph::path_graph(3);
  const auto b = graph::path_graph(2);
  const auto merged = gealib::embed_graph(a, 0, {2}, b, 0, {1});
  EXPECT_EQ(merged.num_nodes(), 3u + 2u + 2u);
  // edges: 2 (path a) + 1 (path b) + 2 (entry fan-out) + 2 (exit fan-in).
  EXPECT_EQ(merged.num_edges(), 7u);
  EXPECT_TRUE(graph::all_reachable_from(merged, 0));
}

TEST(EmbedGraph, MultipleExits) {
  auto a = graph::path_graph(3);
  const auto merged = gealib::embed_graph(a, 0, {1, 2}, a, 0, {2});
  // exit node receives 3 in-edges.
  const auto exit = static_cast<graph::NodeId>(merged.num_nodes() - 1);
  EXPECT_EQ(merged.in_degree(exit), 3u);
}

// ---------------------------------------------------------------------------
// Selection policies

class SelectionTest : public ::testing::Test {
 protected:
  static const dataset::Corpus& corpus() {
    static const dataset::Corpus* c = [] {
      dataset::CorpusConfig cfg;
      cfg.num_malicious = 120;
      cfg.num_benign = 60;
      cfg.seed = 99;
      return new dataset::Corpus(dataset::Corpus::generate(cfg));
    }();
    return *c;
  }
};

TEST_F(SelectionTest, SizeRanksAreOrdered) {
  const auto mn = gealib::select_by_size(corpus(), dataset::kBenign,
                                         gealib::SizeRank::kMinimum);
  const auto md = gealib::select_by_size(corpus(), dataset::kBenign,
                                         gealib::SizeRank::kMedian);
  const auto mx = gealib::select_by_size(corpus(), dataset::kBenign,
                                         gealib::SizeRank::kMaximum);
  EXPECT_LE(corpus().samples()[mn].num_nodes(), corpus().samples()[md].num_nodes());
  EXPECT_LE(corpus().samples()[md].num_nodes(), corpus().samples()[mx].num_nodes());
  EXPECT_EQ(corpus().samples()[mn].label, dataset::kBenign);
}

TEST_F(SelectionTest, SizeRankNames) {
  EXPECT_STREQ(gealib::size_rank_name(gealib::SizeRank::kMinimum), "Minimum");
  EXPECT_STREQ(gealib::size_rank_name(gealib::SizeRank::kMedian), "Median");
  EXPECT_STREQ(gealib::size_rank_name(gealib::SizeRank::kMaximum), "Maximum");
}

TEST_F(SelectionTest, DensityGroupsShareNodeCountAndVaryEdges) {
  const auto groups = gealib::density_groups(corpus(), dataset::kMalicious, 2);
  for (const auto& g : groups) {
    ASSERT_GE(g.sample_indices.size(), 2u);
    std::size_t last_edges = 0;
    bool first = true;
    for (std::size_t i : g.sample_indices) {
      EXPECT_EQ(corpus().samples()[i].num_nodes(), g.num_nodes);
      if (!first) {
        EXPECT_GT(corpus().samples()[i].num_edges(), last_edges);
      }
      last_edges = corpus().samples()[i].num_edges();
      first = false;
    }
  }
}

TEST_F(SelectionTest, PickDensityTargetsShape) {
  const auto picked =
      gealib::pick_density_targets(corpus(), dataset::kMalicious, 3, 3);
  EXPECT_LE(picked.size(), 3u);
  for (const auto& g : picked) EXPECT_LE(g.sample_indices.size(), 3u);
}

TEST_F(SelectionTest, ConfidentPickScoresEachCandidateOnceAnchorFirst) {
  for (auto rank : {gealib::SizeRank::kMinimum, gealib::SizeRank::kMedian,
                    gealib::SizeRank::kMaximum}) {
    const std::size_t anchor =
        gealib::select_by_size(corpus(), dataset::kBenign, rank);
    std::vector<const dataset::Sample*> seen;
    // Equal scores everywhere: the anchor wins.
    const auto flat = gealib::select_by_size_confident_batch(
        corpus(), dataset::kBenign, rank,
        [&](const std::vector<const dataset::Sample*>& c) {
          seen = c;
          return std::vector<double>(c.size(), 0.5);
        });
    EXPECT_EQ(flat, anchor);
    ASSERT_GE(seen.size(), 5u);
    EXPECT_LE(seen.size(), 9u);
    EXPECT_EQ(seen.front(), &corpus().samples()[anchor]);
    EXPECT_EQ(std::set<const dataset::Sample*>(seen.begin(), seen.end()).size(),
              seen.size());
    for (std::size_t k = 2; k < seen.size(); ++k) {
      EXPECT_LE(seen[k - 1]->num_nodes(), seen[k]->num_nodes());
    }

    // Two candidates share the best score: the earlier one wins, and the
    // per-sample variant scores each candidate once and agrees.
    auto tied = [&](const dataset::Sample& s) {
      return &s == seen[1] || &s == seen.back() ? 0.9 : 0.1;
    };
    const auto pick = gealib::select_by_size_confident_batch(
        corpus(), dataset::kBenign, rank,
        [&](const std::vector<const dataset::Sample*>& c) {
          std::vector<double> scores;
          for (const auto* s : c) scores.push_back(tied(*s));
          return scores;
        });
    EXPECT_EQ(&corpus().samples()[pick], seen[1]);
    std::size_t calls = 0;
    EXPECT_EQ(gealib::select_by_size_confident(
                  corpus(), dataset::kBenign, rank,
                  [&](const dataset::Sample& s) {
                    ++calls;
                    return tied(s);
                  }),
              pick);
    EXPECT_EQ(calls, seen.size());
  }
}

TEST_F(SelectionTest, EmptyLabelThrows) {
  dataset::Corpus empty;
  EXPECT_THROW(gealib::select_by_size(empty, dataset::kBenign,
                                      gealib::SizeRank::kMinimum),
               std::invalid_argument);
}

}  // namespace
