#ifndef QENS_FL_PROTOCOL_H_
#define QENS_FL_PROTOCOL_H_

/// \file protocol.h
/// Shared types of the per-query federated protocol: the configuration
/// every layer reads (FederationOptions and its opt-in fault-tolerance /
/// Byzantine sub-policies), the per-node training assignment entering a
/// round (TrainJob), and everything recorded about one query execution
/// (QueryOutcome). Keeping them in one header lets the RoundEngine /
/// QuerySession / QueryServer layers share them without include cycles —
/// see docs/ARCHITECTURE.md.

#include <cstdint>
#include <vector>

#include "qens/fl/aggregation.h"
#include "qens/fl/update_validator.h"
#include "qens/ml/model_codec.h"
#include "qens/ml/model_factory.h"
#include "qens/obs/round_record.h"
#include "qens/query/range_query.h"
#include "qens/selection/game_theory.h"
#include "qens/selection/policies.h"
#include "qens/selection/ranking.h"
#include "qens/sim/churn.h"
#include "qens/sim/edge_environment.h"
#include "qens/sim/fault_injection.h"

namespace qens::fl {

/// Fault-tolerance policy for the federated loop. Strictly opt-in: with
/// `enabled == false` the loop reproduces the fault-free protocol
/// bit-for-bit (no injector is constructed and no extra RNG draws occur).
struct FaultToleranceOptions {
  bool enabled = false;
  /// The seeded fault schedule applied to the simulated environment.
  sim::FaultPlanOptions faults;
  /// Per-round deadline in simulated seconds covering one participant's
  /// model-down transfer + (slowed) local training + model-up transfer.
  /// Participants that exceed it are excluded from the round. 0 disables.
  double round_deadline_s = 0.0;
  /// Total transmissions attempted per message (1 = no retries).
  size_t max_send_attempts = 3;
  /// Extra simulated wait added after each lost transmission before the
  /// retry goes out.
  double retry_backoff_s = 0.005;
  /// Minimum fraction of the engaged participants that must return a model
  /// for the round to commit; below it the round degrades gracefully to
  /// the previous global model.
  double min_quorum_frac = 0.5;
};

/// Byzantine-robustness policy (opt-in). Strictly additive: with
/// `enabled == false` no validator is built, no quarantine state is kept,
/// and the round flow is byte-identical to the pre-robustness protocol.
struct ByzantineOptions {
  bool enabled = false;
  /// Leader-side screening of returned updates (finite / norm / holdout).
  UpdateValidatorOptions validator;
  /// Rounds a node sits out after a rejected update (0 = reject only,
  /// never quarantine). Repeat offenders are re-quarantined on return.
  size_t quarantine_rounds = 0;
  /// Aggregator for the inter-round merge and the robust final answer.
  /// Must be parameter-space: kFedAvgParameters, kCoordinateMedian,
  /// kTrimmedMean, or kNormClippedFedAvg.
  AggregationKind aggregator = AggregationKind::kFedAvgParameters;
  /// kTrimmedMean trim fraction, in [0, 0.5).
  double trim_beta = 0.1;
  /// kNormClippedFedAvg L2 bound on (w_i - w_round), > 0.
  double clip_norm = 1.0;
};

/// Seeded per-round data drift applied to node copies inside a session
/// (see fl/dynamic_fleet.h). A drift event adds a constant per-dimension
/// feature offset to the node's local data, pulling it away from the
/// cluster digest the node last published.
struct DriftInjectionOptions {
  /// Per-node per-round probability of a drift event.
  double rate = 0.0;
  /// Magnitude of each per-dimension offset, as a fraction of that
  /// dimension's global feature span (drawn uniformly in ±this).
  double feature_shift = 0.05;
  /// Root of the drift draws: node i in round r draws from the registered
  /// path seed -> kDrift -> i -> r.
  uint64_t seed = 0;
};

/// Dynamic-fleet policy (opt-in). Strictly additive: with `enabled ==
/// false` no churn plan is drawn, no node copies are made, and the round
/// flow is byte-identical to the static-fleet protocol.
struct DynamicFleetOptions {
  bool enabled = false;
  /// Seeded join/leave/rejoin schedule (sim/churn.h).
  sim::ChurnPlanOptions churn;
  /// Seeded local data drift (dynamic_fleet.h).
  DriftInjectionOptions drift;
  /// Online cluster refresh: a present node whose accumulated drift
  /// exceeds refresh_threshold re-runs k-means on its current data and
  /// publishes new cluster summaries (bumping the session's fleet epoch).
  bool refresh = false;
  /// Detector threshold: max per-dimension |unpublished offset| / span.
  double refresh_threshold = 0.1;
};

/// Federation-wide configuration.
struct FederationOptions {
  sim::EnvironmentOptions environment;
  selection::RankingOptions ranking;
  selection::QueryDrivenOptions query_driven;
  selection::GameTheoryOptions game_theory;
  ml::HyperParams hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  /// Local epochs per supporting cluster (the paper's E).
  size_t epochs_per_cluster = 20;
  /// Number of nodes the Random baseline draws (paper's l). Clamped to N.
  size_t random_l = 3;
  /// Fraction of each node's data held out for leader-side evaluation.
  double test_fraction = 0.2;
  /// Leader-coordinated min-max normalization of features and targets
  /// before training. The scaling constants are exactly the per-dimension
  /// global min/max, which the leader already learns from the shipped
  /// cluster boundaries (plus one target-range pair per node) — so this
  /// costs O(1) extra communication and no raw-data exposure. Required in
  /// practice: Table III's learning rates (0.03 for LR) diverge on raw
  /// PM2.5-scale targets. Reported losses are mapped back to raw target
  /// units so they remain comparable with the paper's numbers.
  bool normalize = true;
  /// Most selected participants trained at once, the calling thread
  /// included, as they would run on real hardware. 0 or 1 = train
  /// sequentially (no pool). Outcomes are bit-identical either way
  /// (per-node seeds; each job writes its own slot and the slots are
  /// consumed in job order). Jobs are claimed dynamically through
  /// ThreadPool::ParallelUnits on a pool of W - 1 workers, created lazily
  /// on the first parallel round and reused across rounds and queries.
  size_t max_parallel_nodes = 0;
  /// Fault injection + deadline/retry/quorum policy (opt-in).
  FaultToleranceOptions fault_tolerance;
  /// Update validation, quarantine, and robust aggregation (opt-in).
  ByzantineOptions byzantine;
  /// Node churn, data drift, online cluster refresh (opt-in).
  DynamicFleetOptions dynamic;
  /// Binary wire format + update compression (opt-in; docs/WIRE_FORMAT.md).
  /// With it off, no codec runs and every transfer is priced at the
  /// lossless kRawF64 size, so off and raw wire move the same bytes.
  ml::WireOptions wire;
  uint64_t seed = 17;
};

/// One per-node training assignment entering a round: the node, its Eq. 7
/// weight, and (under data selectivity) the supporting-cluster set it
/// trains on. Built once per query by the session driver; consumed every
/// round by the RoundEngine.
struct TrainJob {
  size_t node_id = 0;
  double rank_weight = 1.0;  ///< Eq. 7 weight (1.0 for unranked policies).
  bool selective = false;    ///< Train on supporting clusters only.
  std::vector<size_t> supporting;  ///< Supporting cluster ids when selective.
};

/// Everything recorded about one query execution.
struct QueryOutcome {
  query::RangeQuery query;
  selection::PolicyKind policy = selection::PolicyKind::kQueryDriven;
  bool data_selectivity = false;  ///< Trained on supporting clusters only.

  std::vector<size_t> selected_nodes;
  std::vector<double> selected_rankings;  ///< Empty for non-ranked policies.

  /// Losses of the aggregated answer on the pooled query-region test rows.
  double loss_model_avg = 0.0;   ///< Eq. 6.
  double loss_weighted = 0.0;    ///< Eq. 7 (falls back to Eq. 6 when no
                                 ///< rankings are available).
  double loss_fedavg = 0.0;      ///< Parameter-averaging extension.
  size_t test_rows = 0;

  /// Data accounting (Fig. 9).
  size_t samples_used = 0;        ///< Rows actually trained on.
  size_t samples_selected = 0;    ///< Total rows held by selected nodes.
  size_t samples_all_nodes = 0;   ///< Total rows across the federation.
  double DataFractionOfAll() const;

  /// Time accounting (Fig. 8).
  double sim_time_total = 0.0;     ///< Sum of per-node training seconds.
  double sim_time_parallel = 0.0;  ///< Max per-node training seconds.
  double sim_time_comm = 0.0;      ///< Model up/down transfer seconds.
  double wall_seconds = 0.0;       ///< Measured C++ wall time.
  double gt_preround_seconds = 0.0;  ///< GT's mandatory probing cost.

  /// True when the query produced no usable run (no test rows in region or
  /// no trainable node); such outcomes carry no loss numbers.
  bool skipped = false;

  /// Federated rounds executed (1 for the paper's single-round protocol).
  size_t rounds = 1;

  /// \name Fault-tolerance accounting
  /// Populated when FederationOptions::fault_tolerance is enabled
  /// (round_survivors is recorded unconditionally).
  /// @{
  std::vector<size_t> round_survivors;  ///< Models received, per round.
  std::vector<size_t> failed_nodes;     ///< Crashed / offline / all sends lost.
  std::vector<size_t> deadline_missed_nodes;  ///< Excluded as stragglers.
  /// Final-round Eq. 7 weights renormalized over the survivors (one entry
  /// per engaged job; non-survivors hold 0; survivors sum to 1).
  std::vector<double> survivor_weights;
  size_t degraded_rounds = 0;  ///< Below-quorum rounds (kept previous model).
  size_t messages_lost = 0;    ///< Transmissions lost in flight.
  size_t send_retries = 0;     ///< Extra transmissions beyond the first.
  /// @}

  /// \name Byzantine accounting
  /// Populated when FederationOptions::byzantine is enabled.
  /// @{
  std::vector<size_t> rejected_nodes;     ///< Had >= 1 update rejected.
  std::vector<size_t> quarantined_nodes;  ///< Skipped >= 1 round quarantined.
  size_t rejected_updates = 0;    ///< Updates dropped by the validator.
  size_t quarantined_skips = 0;   ///< (node, round) pairs skipped.
  size_t rejected_non_finite = 0;
  size_t rejected_abs_norm = 0;
  size_t rejected_norm_outlier = 0;
  size_t rejected_holdout = 0;
  /// Final answer under ByzantineOptions::aggregator (raw target units).
  bool has_loss_robust = false;
  double loss_robust = 0.0;
  /// @}

  /// \name Dynamic-fleet accounting
  /// Populated when FederationOptions::dynamic is enabled.
  /// @{
  size_t nodes_joined = 0;     ///< (node, round) rejoin events.
  size_t nodes_left = 0;       ///< (node, round) departure events.
  size_t fleet_refreshes = 0;  ///< Cluster refreshes published.
  uint64_t fleet_epoch = 0;    ///< Leader's epoch after the final round.
  /// @}

  /// Per-round telemetry (schema in docs/OBSERVABILITY.md). Populated only
  /// while obs metrics are enabled; always empty otherwise, so the default
  /// path allocates nothing.
  std::vector<obs::RoundRecord> round_records;
};

}  // namespace qens::fl

#endif  // QENS_FL_PROTOCOL_H_
