// Target-sample selection policies for GEA (SIV-B.3).
//
// The paper selects, from each class, three targets by graph size
// (minimum / median / maximum node count) for Tables IV-V, and — for the
// density study of Tables VI-VII — triples of targets sharing a node count
// but differing in edge count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dataset/corpus.hpp"

namespace gea::aug {

enum class SizeRank { kMinimum, kMedian, kMaximum };
const char* size_rank_name(SizeRank r);

/// Index (into `corpus.samples()`) of the sample with the given label whose
/// CFG node count is the minimum / median / maximum within that label.
/// Throws std::invalid_argument if the label has no samples.
std::size_t select_by_size(const dataset::Corpus& corpus, std::uint8_t label,
                           SizeRank rank);

/// Confidence-aware variant: among the `window` samples nearest the size
/// rank, return the one `score` rates highest (e.g. the classifier's
/// probability of the target's own class). Models the attacker's natural
/// move — of the similarly-sized candidates, graft the one the detector is
/// most convinced by. The paper notes MR "is highly dependent on the
/// confidence of the classifier in classifying the selected sample"; this
/// makes the size sweeps measure the size effect rather than one sample's
/// idiosyncrasy.
std::size_t select_by_size_confident(
    const dataset::Corpus& corpus, std::uint8_t label, SizeRank rank,
    const std::function<double(const dataset::Sample&)>& score,
    std::size_t window = 9);

/// select_by_size_confident with the whole window scored in one call, each
/// candidate once: `score` receives the size-rank anchor first, then the
/// rest of the window in ascending size order, and returns one score per
/// candidate. The anchor wins unless a later candidate scores strictly
/// higher; among equal best scores the earliest in that order wins.
std::size_t select_by_size_confident_batch(
    const dataset::Corpus& corpus, std::uint8_t label, SizeRank rank,
    const std::function<std::vector<double>(
        const std::vector<const dataset::Sample*>&)>& score,
    std::size_t window = 9);

/// A node-count group usable for the density sweep: >= `min_variants`
/// samples of `label` share `num_nodes` with at least two distinct edge
/// counts.
struct DensityGroup {
  std::size_t num_nodes = 0;
  /// Sample indices sorted by edge count (ascending).
  std::vector<std::size_t> sample_indices;
};

/// All node-count groups of `label` with at least `min_variants` distinct
/// edge counts, sorted by node count.
std::vector<DensityGroup> density_groups(const dataset::Corpus& corpus,
                                         std::uint8_t label,
                                         std::size_t min_variants = 3);

/// Pick `count` groups spread across the node-count range (small / mid /
/// large), each reduced to `variants` samples spread across its edge-count
/// range — the shape of Tables VI-VII (3 groups x 3 edge counts).
std::vector<DensityGroup> pick_density_targets(const dataset::Corpus& corpus,
                                               std::uint8_t label,
                                               std::size_t count = 3,
                                               std::size_t variants = 3);

}  // namespace gea::aug
