#ifndef QENS_SELECTION_POLICIES_H_
#define QENS_SELECTION_POLICIES_H_

/// \file policies.h
/// Node selection policies compared in the paper's evaluation (Section V-C):
///   - QueryDriven (ours): top-l by ranking, or all nodes with r_i >= psi
///     (Eq. 5);
///   - Random: l nodes uniformly at random (the [6] baseline);
///   - AllNodes: every node, full local data;
///   - GameTheory: see game_theory.h (requires a training pre-round).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/status.h"
#include "qens/selection/ranking.h"

namespace qens::selection {

/// The selection strategies under comparison.
enum class PolicyKind {
  kQueryDriven,  ///< The paper's mechanism (Sections III-C, IV).
  kRandom,       ///< Uniform choice of l nodes [6].
  kAllNodes,     ///< Engage every node on its full data.
  kGameTheory,   ///< Pre-round probing selection [7].
};

const char* PolicyKindName(PolicyKind kind);
Result<PolicyKind> ParsePolicyKind(const std::string& name);

/// How the query-driven policy cuts the ranked list.
struct QueryDrivenOptions {
  /// Select the top-l ranked nodes when use_threshold == false.
  size_t top_l = 3;
  /// Select N'(q) = { n_i : r_i >= psi } when use_threshold == true (Eq. 5).
  bool use_threshold = false;
  double psi = 0.5;
  /// Nodes with zero ranking never participate, even inside the top-l cut
  /// (no supporting clusters means no data to train on).
  bool drop_zero_rank = true;
};

/// The cuts below read a rank list sorted DESC by ranking, with rankings
/// >= 0, as RankNodes produces; on such a list each keeps a prefix.

/// Select the top-l: the first l records, stopping at the first zero
/// ranking when drop_zero_rank. Fails if l == 0.
Result<std::vector<NodeRank>> SelectTopL(const std::vector<NodeRank>& ranked,
                                         size_t l,
                                         bool drop_zero_rank = true);

/// Select N'(q) per Eq. 5: the records with r_i >= psi. Fails if psi <= 0.
Result<std::vector<NodeRank>> SelectByThreshold(
    const std::vector<NodeRank>& ranked, double psi);

/// Apply a QueryDrivenOptions cut to the ranked list.
Result<std::vector<NodeRank>> SelectQueryDriven(
    const std::vector<NodeRank>& ranked, const QueryDrivenOptions& options);

/// How many leading records of `ranked` the QueryDrivenOptions cut keeps:
/// the length of SelectQueryDriven's prefix, failing where it fails.
Result<size_t> QueryDrivenCutLength(std::span<const NodeRank> ranked,
                                    const QueryDrivenOptions& options);

/// Uniformly select l node ids out of [0, num_nodes). Fails when l == 0 or
/// l > num_nodes. Deterministic in *rng.
Result<std::vector<size_t>> SelectRandom(size_t num_nodes, size_t l, Rng* rng);

/// All node ids [0, num_nodes).
std::vector<size_t> SelectAllNodes(size_t num_nodes);

}  // namespace qens::selection

#endif  // QENS_SELECTION_POLICIES_H_
