#include "gea/selection.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

namespace gea::aug {

const char* size_rank_name(SizeRank r) {
  switch (r) {
    case SizeRank::kMinimum: return "Minimum";
    case SizeRank::kMedian: return "Median";
    case SizeRank::kMaximum: return "Maximum";
  }
  return "?";
}

std::size_t select_by_size(const dataset::Corpus& corpus, std::uint8_t label,
                           SizeRank rank) {
  auto idx = corpus.indices_of(label);
  if (idx.empty()) {
    throw std::invalid_argument("select_by_size: no samples with label");
  }
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return corpus.samples()[a].num_nodes() < corpus.samples()[b].num_nodes();
  });
  switch (rank) {
    case SizeRank::kMinimum: return idx.front();
    case SizeRank::kMedian: return idx[idx.size() / 2];
    case SizeRank::kMaximum: return idx.back();
  }
  throw std::logic_error("select_by_size: bad rank");
}

std::size_t select_by_size_confident(
    const dataset::Corpus& corpus, std::uint8_t label, SizeRank rank,
    const std::function<double(const dataset::Sample&)>& score,
    std::size_t window) {
  return select_by_size_confident_batch(
      corpus, label, rank,
      [&](const std::vector<const dataset::Sample*>& candidates) {
        std::vector<double> scores;
        scores.reserve(candidates.size());
        for (const dataset::Sample* s : candidates) scores.push_back(score(*s));
        return scores;
      },
      window);
}

std::size_t select_by_size_confident_batch(
    const dataset::Corpus& corpus, std::uint8_t label, SizeRank rank,
    const std::function<std::vector<double>(
        const std::vector<const dataset::Sample*>&)>& score,
    std::size_t window) {
  auto idx = corpus.indices_of(label);
  if (idx.empty()) {
    throw std::invalid_argument("select_by_size_confident: no samples");
  }
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return corpus.samples()[a].num_nodes() < corpus.samples()[b].num_nodes();
  });
  std::size_t anchor;
  switch (rank) {
    case SizeRank::kMinimum: anchor = 0; break;
    case SizeRank::kMedian: anchor = idx.size() / 2; break;
    case SizeRank::kMaximum: anchor = idx.size() - 1; break;
    default: throw std::logic_error("select_by_size_confident: bad rank");
  }
  const std::size_t lo = anchor >= window / 2 ? anchor - window / 2 : 0;
  const std::size_t hi = std::min(idx.size(), lo + window);
  std::vector<std::size_t> order{idx[anchor]};
  for (std::size_t k = lo; k < hi; ++k) {
    if (k != anchor) order.push_back(idx[k]);
  }
  std::vector<const dataset::Sample*> candidates;
  for (std::size_t i : order) candidates.push_back(&corpus.samples()[i]);
  const std::vector<double> scores = score(candidates);
  if (scores.size() != candidates.size()) {
    throw std::logic_error("select_by_size_confident: " +
                           std::to_string(scores.size()) + " scores for " +
                           std::to_string(candidates.size()) + " candidates");
  }
  std::size_t best = 0;
  for (std::size_t k = 1; k < scores.size(); ++k) {
    if (scores[k] > scores[best]) best = k;
  }
  return order[best];
}

std::vector<DensityGroup> density_groups(const dataset::Corpus& corpus,
                                         std::uint8_t label,
                                         std::size_t min_variants) {
  std::map<std::size_t, std::vector<std::size_t>> by_nodes;
  for (std::size_t i : corpus.indices_of(label)) {
    by_nodes[corpus.samples()[i].num_nodes()].push_back(i);
  }
  std::vector<DensityGroup> groups;
  for (auto& [nodes, indices] : by_nodes) {
    std::set<std::size_t> edge_counts;
    for (std::size_t i : indices) {
      edge_counts.insert(corpus.samples()[i].num_edges());
    }
    if (edge_counts.size() < min_variants) continue;
    std::sort(indices.begin(), indices.end(), [&](std::size_t a, std::size_t b) {
      return corpus.samples()[a].num_edges() < corpus.samples()[b].num_edges();
    });
    // Keep one representative per distinct edge count.
    DensityGroup g;
    g.num_nodes = nodes;
    std::size_t last_edges = static_cast<std::size_t>(-1);
    for (std::size_t i : indices) {
      const std::size_t e = corpus.samples()[i].num_edges();
      if (e != last_edges) {
        g.sample_indices.push_back(i);
        last_edges = e;
      }
    }
    groups.push_back(std::move(g));
  }
  return groups;  // std::map iteration => sorted by node count
}

std::vector<DensityGroup> pick_density_targets(const dataset::Corpus& corpus,
                                               std::uint8_t label,
                                               std::size_t count,
                                               std::size_t variants) {
  auto groups = density_groups(corpus, label, variants);
  if (groups.empty()) return {};

  // Spread across the node-count range: take evenly spaced picks.
  std::vector<DensityGroup> picked;
  const std::size_t n = groups.size();
  const std::size_t take = std::min(count, n);
  for (std::size_t k = 0; k < take; ++k) {
    const std::size_t gi = take == 1 ? 0 : k * (n - 1) / (take - 1);
    DensityGroup g = groups[gi];
    // Reduce to `variants` representatives spread across the edge range.
    if (g.sample_indices.size() > variants) {
      std::vector<std::size_t> reduced;
      const std::size_t m = g.sample_indices.size();
      for (std::size_t v = 0; v < variants; ++v) {
        const std::size_t si = variants == 1 ? 0 : v * (m - 1) / (variants - 1);
        reduced.push_back(g.sample_indices[si]);
      }
      g.sample_indices = std::move(reduced);
    }
    picked.push_back(std::move(g));
  }
  return picked;
}

}  // namespace gea::aug
