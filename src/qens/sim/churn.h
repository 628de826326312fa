#ifndef QENS_SIM_CHURN_H_
#define QENS_SIM_CHURN_H_

/// \file churn.h
/// Seeded node join/leave/rejoin churn for the simulated edge fleet.
///
/// Fault injection (fault_injection.h) models *failures*: crashes are
/// permanent and dropouts are memoryless one-round blips. Real edge fleets
/// additionally churn — devices leave for a stretch (battery, mobility,
/// duty cycling) and come back with their data intact. This module supplies
/// that missing dynamic:
///
///   ChurnPlan — a per-node schedule of presence intervals, drawn once from
///               a single seed exactly like sim::FaultPlan: every answer is
///               a pure function of (seed, node, round), so two plans built
///               from the same options agree on the entire trajectory
///               regardless of query order.
///
/// Each node selected as a "churner" alternates up/down intervals whose
/// lengths are drawn at plan time; the alternation is materialized out to
/// `churn_horizon` rounds and the node keeps its final state afterwards.
/// Every node starts present, so round 0 always sees the full fleet.
///
/// The plan is presence-only: a departed node that was selected for a round
/// simply contributes nothing (the federation's quorum-gated partial
/// aggregation absorbs it); rejoining nodes participate again with the data
/// they held all along.

#include <cstdint>
#include <string>
#include <vector>

#include "qens/common/status.h"

namespace qens::sim {

/// Churn-schedule knobs. The defaults describe a static fleet.
struct ChurnPlanOptions {
  /// Root of the schedule; node i draws from the registered path
  /// seed -> kChurn -> i.
  uint64_t seed = 0;
  /// Probability that a node churns at all (alternates up/down intervals).
  /// 0 = static fleet, no schedule is drawn.
  double churn_rate = 0.0;
  /// Rounds over which the alternating schedule is materialized; past the
  /// horizon a node keeps the state it held at the horizon.
  size_t churn_horizon = 64;
  /// Down-interval (absent) length range in rounds, inclusive.
  size_t min_down_rounds = 1;
  size_t max_down_rounds = 4;
  /// Up-interval (present) length range in rounds, inclusive. The first up
  /// interval starts at round 0, so every node is present at round 0.
  size_t min_up_rounds = 2;
  size_t max_up_rounds = 8;
};

/// One node's materialized presence schedule.
struct NodeChurnProfile {
  bool churner = false;
  /// Ascending round indices at which presence flips, starting from
  /// "present". transitions[0] is the first leave round, transitions[1]
  /// the first rejoin round, and so on. Empty for non-churners.
  std::vector<size_t> transitions;
};

/// The per-node presence schedule drawn from one seed.
class ChurnPlan {
 public:
  /// Validate options and draw the per-node schedules. Fails on a rate
  /// outside [0, 1] or, when churn_rate > 0, on a zero horizon or an
  /// interval range violating 1 <= min <= max.
  static Result<ChurnPlan> Create(size_t num_nodes,
                                  const ChurnPlanOptions& options);

  size_t num_nodes() const { return profiles_.size(); }
  const ChurnPlanOptions& options() const { return options_; }
  const NodeChurnProfile& node(size_t i) const { return profiles_[i]; }
  const std::vector<NodeChurnProfile>& profiles() const { return profiles_; }

  /// Node `node` is present (joined) in round `round`. Pure function of the
  /// plan; O(log transitions).
  bool IsPresent(size_t node, size_t round) const;

  /// Churner count in the plan.
  size_t NumChurners() const;

  /// Human-readable schedule summary ("node 3: down@[r5,r7),[r12,r14);
  /// ...") for logging and scenario reproduction.
  std::string Describe() const;

 private:
  ChurnPlan(std::vector<NodeChurnProfile> profiles, ChurnPlanOptions options)
      : profiles_(std::move(profiles)), options_(options) {}

  std::vector<NodeChurnProfile> profiles_;
  ChurnPlanOptions options_;
};

}  // namespace qens::sim

#endif  // QENS_SIM_CHURN_H_
