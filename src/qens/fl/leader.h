#ifndef QENS_FL_LEADER_H_
#define QENS_FL_LEADER_H_

/// \file leader.h
/// The leader node's decision logic (Section III-A): receive a query, rank
/// every participant's published profile against it (Eqs. 2–4), and cut the
/// ranked list into the participant set N'(q) (top-l or Eq. 5 threshold).
/// The leader never touches raw node data — only profiles. Ranking is the
/// paper's scan over every node's cluster boxes (selection::ScanRanks).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "qens/common/status.h"
#include "qens/query/range_query.h"
#include "qens/selection/node_profile.h"
#include "qens/selection/policies.h"
#include "qens/selection/ranking.h"

namespace qens::fl {

/// The leader's per-query selection decision.
struct SelectionDecision {
  /// All N nodes, DESC by ranking (id-ascending tie-break), without their
  /// cluster_scores: SupportingClusterIds() is empty on these records.
  std::vector<selection::NodeRank> all_ranks;
  /// The chosen N'(q), the cut's prefix of all_ranks, each with its
  /// cluster_scores.
  std::vector<selection::NodeRank> selected;

  /// Raw rankings of the selected nodes (Eq. 7 weights, pre-normalization).
  std::vector<double> SelectedRankings() const;
  std::vector<size_t> SelectedNodeIds() const;
};

/// Ranks profiles and applies the query-driven cut.
class Leader {
 public:
  /// `fleet_epoch` is the fleet-state version the profiles represent.
  /// The unnamed std::nullptr_t only keeps perfbench's 5-argument call
  /// compiling; the next benchmark PR removes it and Fleet::ranking_index.
  Leader(std::vector<selection::NodeProfile> profiles,
         selection::RankingOptions ranking_options,
         selection::QueryDrivenOptions selection_options,
         std::nullptr_t = nullptr, uint64_t fleet_epoch = 0)
      : owned_profiles_(std::move(profiles)),
        ranking_options_(ranking_options),
        selection_options_(selection_options),
        fleet_epoch_(fleet_epoch) {}

  /// Copy-on-write construction over a shared immutable profile vector
  /// (typically Fleet::profiles, built once per fleet). Ranking reads the
  /// shared vector directly; the first mutation (reliability bookkeeping,
  /// staleness, refresh) deep-copies it into this leader. Sessions whose
  /// queries are all shed, rejected, or policy-skipped therefore never pay
  /// the O(nodes x clusters) copy — the per-session setup the batch API
  /// used to rebuild unconditionally. `shared` must be non-null.
  Leader(std::shared_ptr<const std::vector<selection::NodeProfile>> shared,
         selection::RankingOptions ranking_options,
         selection::QueryDrivenOptions selection_options,
         std::nullptr_t = nullptr, uint64_t fleet_epoch = 0)
      : shared_profiles_(std::move(shared)),
        ranking_options_(ranking_options),
        selection_options_(selection_options),
        fleet_epoch_(fleet_epoch) {}

  const std::vector<selection::NodeProfile>& profiles() const {
    return shared_profiles_ != nullptr ? *shared_profiles_ : owned_profiles_;
  }

  /// True while this leader still reads the shared profile vector (no
  /// mutation has forced a private copy yet). Diagnostics only.
  bool shares_profiles() const { return shared_profiles_ != nullptr; }
  const selection::RankingOptions& ranking_options() const {
    return ranking_options_;
  }
  const selection::QueryDrivenOptions& selection_options() const {
    return selection_options_;
  }

  /// Rank all nodes for `query` (no cut applied), each with its
  /// cluster_scores.
  Result<std::vector<selection::NodeRank>> Rank(
      const query::RangeQuery& query) const;

  /// Rank and select per the configured query-driven policy. Scans into
  /// the leader's reused buffers, so once they have grown its allocations
  /// do not depend on the number of nodes or clusters: all_ranks and
  /// selected, plus one cluster_scores per selected node.
  Result<SelectionDecision> Decide(const query::RangeQuery& query);

  /// How one engaged node ended a round, for the reliability history.
  enum class RoundResult { kCompleted, kFailed, kMissedDeadline, kRejected };

  /// Record an engaged node's round outcome into its profile's observed
  /// reliability history (feeds the ranking's flaky-node penalty). Unknown
  /// node ids are ignored.
  void RecordRoundResult(size_t node_id, RoundResult result);

  /// \name Dynamic-fleet state (fl/dynamic_fleet.h)
  /// @{
  /// The fleet-state version this leader's profiles represent. Starts at
  /// the Fleet's base epoch and advances monotonically on every published
  /// refresh.
  uint64_t fleet_epoch() const { return fleet_epoch_; }

  /// Update a node's rounds-of-unpublished-drift counter. stale_rounds is
  /// part of every NodeRank (and scales the ranking when staleness_weight
  /// > 0). Unknown ids are ignored.
  void SetStaleRounds(size_t node_id, size_t stale_rounds);

  /// Publish a node's refreshed digest (online cluster refresh): replaces
  /// the stored clusters/sample counts, keeps the observed reliability
  /// history, zeroes stale_rounds, and bumps fleet_epoch. Fails on an
  /// unknown node id.
  Status PublishRefreshedProfile(const selection::NodeProfile& fresh);
  /// @}

 private:
  /// Copy-on-write seam: materializes a private copy of the shared
  /// profiles on first mutation (no-op once owned).
  std::vector<selection::NodeProfile>& MutableProfiles();

  /// Non-null while profiles are still the shared immutable vector.
  std::shared_ptr<const std::vector<selection::NodeProfile>> shared_profiles_;
  std::vector<selection::NodeProfile> owned_profiles_;
  selection::RankScan scan_;  ///< Decide's buffers, reused across queries.
  selection::RankingOptions ranking_options_;
  selection::QueryDrivenOptions selection_options_;
  uint64_t fleet_epoch_ = 0;
};

}  // namespace qens::fl

#endif  // QENS_FL_LEADER_H_
