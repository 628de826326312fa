#ifndef QENS_OBS_ROUND_RECORD_H_
#define QENS_OBS_ROUND_RECORD_H_

/// \file round_record.h
/// Per-round telemetry emitted by the federation loop.
///
/// One RoundRecord describes one leader -> participants -> leader exchange:
/// which nodes were engaged, what happened to each (completed / crashed or
/// offline / send failed / cut by the deadline), per-node simulated train
/// and transfer seconds and samples trained, the round's critical-path
/// time, and the quorum outcome. The federation fills these only while the
/// metrics layer is enabled (see obs::MetricsRegistry), so the fault-free
/// hot path stays untouched when observability is off.
///
/// The JSONL schema (field names, fate strings, the spelling of non-finite
/// doubles) is documented in docs/OBSERVABILITY.md; the exporter here and
/// its parser are the reference implementation and are round-trip tested.

#include <cstdint>
#include <string>
#include <vector>

#include "qens/common/status.h"

namespace qens::obs {

/// What happened to one engaged node during one round.
enum class NodeFate {
  kCompleted = 0,       ///< Model delivered in time and aggregated.
  kUnavailable,         ///< Crashed or transiently offline this round.
  kSendFailed,          ///< Every model-down or model-up transmission lost.
  kMissedDeadline,      ///< Excluded as a straggler at the round deadline.
  kRejected,            ///< Update delivered but rejected by the validator.
  kQuarantined,         ///< Skipped this round: still serving a quarantine.
};

/// Stable wire name ("completed", "unavailable", "send_failed",
/// "missed_deadline", "rejected", "quarantined").
const char* NodeFateName(NodeFate fate);

/// Inverse of NodeFateName; InvalidArgument on an unknown name.
Result<NodeFate> ParseNodeFate(const std::string& name);

/// One engaged node's accounting for one round.
struct NodeRoundStat {
  size_t node_id = 0;
  NodeFate fate = NodeFate::kCompleted;
  /// Simulated local-training seconds, slowdown-adjusted. Recorded in full
  /// even when the node is later cut by the deadline (the node still did
  /// the work); the leader-side wait is capped in RoundRecord::
  /// parallel_seconds instead.
  double train_seconds = 0.0;
  /// Simulated model-down + model-up transfer seconds, retries included.
  double comm_seconds = 0.0;
  size_t samples_used = 0;  ///< Distinct rows trained on.
  bool straggler = false;   ///< Slowdown factor > 1 this round.
};

/// One federation round.
struct RoundRecord {
  /// Owning QuerySession (QueryServer sessions are 1-based; 0 is the
  /// default session id and is omitted from JSON).
  uint64_t session = 0;
  uint64_t query_id = 0;
  size_t round = 0;         ///< 0-based within the query.
  std::string policy;       ///< Selection policy name ("query_driven", ...).
  std::string aggregation;  ///< "fedavg" between rounds, "ensemble" final.
  size_t engaged = 0;       ///< Jobs entering the round.
  size_t survivors = 0;     ///< Models aggregated.
  size_t rejected = 0;      ///< Updates rejected by the validator.
  size_t quarantined = 0;   ///< Engaged nodes skipped while quarantined.
  /// \name Wire-layer byte counters (docs/WIRE_FORMAT.md)
  /// Bytes sent on the session's network this round, per direction, retries
  /// included. Populated only when FederationOptions::wire is enabled;
  /// both zero — and omitted from JSON for byte-compatibility — otherwise.
  /// @{
  size_t wire_down_bytes = 0;  ///< Leader -> participants broadcast bytes.
  size_t wire_up_bytes = 0;    ///< Participants -> leader update bytes.
  /// @}
  /// \name Dynamic-fleet counters (docs/ROBUSTNESS.md)
  /// Churn / drift / refresh accounting for this round. Populated only when
  /// FederationOptions::dynamic is enabled; all zero — and omitted from
  /// JSON for byte-compatibility — otherwise.
  /// @{
  uint64_t fleet_epoch = 0;  ///< Leader's epoch after this round's refreshes.
  size_t nodes_joined = 0;   ///< Nodes that rejoined at this round.
  size_t nodes_left = 0;     ///< Nodes that departed at this round.
  size_t refreshes = 0;      ///< Profiles refreshed this round.
  size_t stale_rounds = 0;   ///< Sum of per-node unpublished-drift ages.
  /// @}
  /// \name Serving-pipeline telemetry (docs/ARCHITECTURE.md)
  /// Filled by QueryServer::Serve on a served query's FIRST record only
  /// (admission/queueing happen once, before round 0). query_class is the
  /// request's priority class name; the vt_* fields are the request's
  /// deterministic virtual-time queueing delay and end-to-end latency.
  /// Empty/zero — and omitted from JSON — on every other record and for
  /// queries run on a QuerySession directly.
  /// @{
  std::string query_class;
  double vt_queue_seconds = 0.0;
  double vt_latency_seconds = 0.0;
  /// @}
  bool quorum_met = true;   ///< False for below-quorum (degraded) rounds.
  /// Leader-side critical path: max over engaged nodes of the capped
  /// per-node wait (never exceeds the round deadline when one is set).
  double parallel_seconds = 0.0;
  double total_train_seconds = 0.0;  ///< Sum of per-node train seconds.
  double comm_seconds = 0.0;         ///< Sum of per-node transfer seconds.
  /// Final-round evaluation loss (Eq. 7 / weighted). Only the last record
  /// of a query carries one; intermediate rounds have has_loss == false.
  /// JSON has no `has_loss` key: the flag is the presence of `loss`.
  bool has_loss = false;
  double loss = 0.0;
  std::vector<NodeRoundStat> nodes;  ///< One entry per engaged node.
};

/// \name JSONL export: one compact JSON object per line
/// @{
std::string RoundRecordToJson(const RoundRecord& record);
std::string RoundRecordsToJsonl(const std::vector<RoundRecord>& records);
Status WriteRoundRecordsJsonl(const std::vector<RoundRecord>& records,
                              const std::string& path);
Result<RoundRecord> ParseRoundRecordJson(const std::string& line);
Result<std::vector<RoundRecord>> ParseRoundRecordsJsonl(
    const std::string& text);
/// @}

}  // namespace qens::obs

#endif  // QENS_OBS_ROUND_RECORD_H_
