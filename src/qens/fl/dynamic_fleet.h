#ifndef QENS_FL_DYNAMIC_FLEET_H_
#define QENS_FL_DYNAMIC_FLEET_H_

/// \file dynamic_fleet.h
/// Per-session dynamic-fleet state: churn, drift, and online refresh.
///
/// `fl::Fleet` is immutable and shared; everything that *changes* about the
/// fleet during a session lives here, one instance per QuerySession (like
/// the fault injector and the quarantine ledger):
///
///   - **Churn** — a seeded sim::ChurnPlan decides per round which nodes
///     are present. A departed node that was selected simply fails its
///     round (the quorum-gated partial-aggregation path absorbs it) and
///     participates again when it rejoins.
///   - **Drift** — seeded per-(node, round) events add a constant
///     per-dimension feature offset to a session-private COPY of the
///     node's data (the shared Fleet is never touched). The node's
///     published digest — and its private cluster assignment — go stale.
///   - **Online cluster refresh** — when refresh is enabled, a present
///     node whose accumulated unpublished offset exceeds the detector
///     threshold re-runs k-means on its current data and publishes the new
///     summaries through Leader::PublishRefreshedProfile, bumping the
///     session's fleet epoch (see docs/ROBUSTNESS.md).
///
/// Because a drift event shifts every row of a dimension by the same
/// constant, the node's true per-dimension mean moves by exactly the
/// accumulated offset — so the drift detector is EXACT without touching
/// the data: it compares `|cum_offset - published_offset| / span` per
/// dimension against the threshold.
///
/// Determinism: all state here advances only in BeginRound, which the
/// RoundEngine calls once per round on the driving thread before any
/// parallel work; every random draw is a pure function of (seed, node,
/// round). The whole trajectory is therefore bit-reproducible at every
/// worker count and across seed replays.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "qens/common/status.h"
#include "qens/fl/protocol.h"
#include "qens/sim/churn.h"
#include "qens/sim/edge_node.h"

namespace qens::fl {

struct Fleet;
class Leader;

/// Mutable dynamic-fleet state of one session.
class DynamicFleet {
 public:
  /// What one BeginRound did (feeds RoundRecord / QueryOutcome).
  struct RoundStats {
    uint64_t fleet_epoch = 0;  ///< Leader's epoch after this round's refreshes.
    size_t nodes_joined = 0;   ///< Nodes that rejoined at this round.
    size_t nodes_left = 0;     ///< Nodes that departed at this round.
    size_t refreshes = 0;      ///< Profiles refreshed this round.
    size_t stale_rounds = 0;   ///< Sum of per-node unpublished-drift ages.
  };

  /// Validates `fleet->options.dynamic`, draws the churn plan, and captures
  /// the per-dimension feature spans the drift magnitudes scale by.
  static Result<DynamicFleet> Create(std::shared_ptr<const Fleet> fleet);

  /// Advance one round: apply churn transitions, draw drift events, age
  /// staleness, and (when refresh is on) publish refreshed profiles for
  /// tripped present nodes through `leader`. Must be called exactly once
  /// per executed round, before any node work, on the driving thread.
  Result<RoundStats> BeginRound(Leader* leader);

  /// Node presence in the round BeginRound last started. All nodes are
  /// present before the first BeginRound.
  bool IsPresent(size_t node_id) const;

  /// The node to read training data from: the session's drifted copy when
  /// the node has drifted, else the shared fleet's original.
  const sim::EdgeNode& node(size_t node_id) const;

  /// Ground truth under drift: pooled held-out rows inside the query
  /// region, with each node's test rows shifted by that node's accumulated
  /// offset — a device's sensors drift the same way for every row they
  /// produce, so queries are answered against the fleet's *current*
  /// reality, not the regime it was deployed in. Nodes that never drifted
  /// go through the exact static pooling path (bit-identical to
  /// Fleet::QueryRegionTestData when no drift event has fired).
  Result<data::Dataset> QueryRegionTestData(
      const query::RangeQuery& query) const;

  /// Rounds BeginRound has executed.
  size_t rounds_started() const { return round_; }

  const std::optional<sim::ChurnPlan>& churn_plan() const { return churn_; }

 private:
  DynamicFleet(std::shared_ptr<const Fleet> fleet, size_t num_nodes,
               std::vector<double> span);

  /// Lazily materialize the session-private copy of node `i`.
  Result<sim::EdgeNode*> MutableNode(size_t i);

  /// Apply one drift event's offsets to node `i`'s data copy.
  Status ApplyDrift(size_t i, const std::vector<double>& offset);

  std::shared_ptr<const Fleet> fleet_;
  size_t round_ = 0;  ///< Rounds started.
  std::vector<char> present_;  ///< Presence in the current round.
  /// Session-private node copies, created on a node's first drift event.
  std::vector<std::optional<sim::EdgeNode>> drifted_;
  std::vector<size_t> stale_rounds_;  ///< Rounds of unpublished drift.
  std::vector<char> dirty_;  ///< Has unpublished drift.
  std::vector<std::vector<double>> cum_offset_;        ///< Per node, per dim.
  std::vector<std::vector<double>> published_offset_;  ///< At last refresh.
  std::vector<double> span_;  ///< Global per-dimension feature span.
  std::optional<sim::ChurnPlan> churn_;  ///< Unset when churn_rate == 0.
};

}  // namespace qens::fl

#endif  // QENS_FL_DYNAMIC_FLEET_H_
