#ifndef QENS_FL_QUERY_SERVER_H_
#define QENS_FL_QUERY_SERVER_H_

/// \file query_server.h
/// Concurrent query serving: a scheduler that runs multiple QuerySessions
/// over one shared (immutable) fleet, one worker thread per in-flight
/// session.
///
/// Determinism contract: serving is bit-identical at every worker count,
/// including fully sequential execution. Each session gets a fixed seed
/// derived from (base seed, session id) — independent of scheduling — plus
/// a private network for traffic accounting and its own leader/fault/
/// Byzantine/RNG state, so sessions share nothing mutable. Results are
/// collected in submission order. Only the wall_seconds fields vary across
/// runs.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "qens/common/status.h"
#include "qens/fl/admission.h"
#include "qens/fl/query_session.h"
#include "qens/obs/latency.h"

namespace qens::fl {

/// One session's workload: a timed, classed request stream executed under a
/// single policy. A plain query list is one `QueryRequest{query}` per query
/// (standard class, all arriving at 0), which runs in list order.
struct SessionSpec {
  std::vector<QueryRequest> requests;
  selection::PolicyKind policy = selection::PolicyKind::kQueryDriven;
  bool data_selectivity = true;
  size_t rounds = 1;
};

/// The request pipeline's per-request disposition and timing, all in
/// deterministic virtual time (wall_seconds is the one measured field).
/// One per SessionSpec request, in request order.
struct RequestOutcome {
  QueryClass query_class = QueryClass::kStandard;
  AdmissionOutcome admission = AdmissionOutcome::kAdmitted;
  /// True once the pipeline disposed of this request (admitted + executed,
  /// rejected, or shed). False only when a session error truncated the
  /// stream before this request was reached.
  bool processed = false;
  /// Index into SessionResult::outcomes for executed requests (execution
  /// order differs from request order under priority scheduling); npos for
  /// rejected/shed requests.
  size_t outcome_index = static_cast<size_t>(-1);
  double vt_arrival_s = 0.0;   ///< Virtual arrival (from the request).
  double vt_start_s = 0.0;     ///< Virtual execution start (executed only).
  double vt_complete_s = 0.0;  ///< Virtual completion (executed only).
  double vt_queue_s = 0.0;     ///< start - arrival (executed only).
  double vt_latency_s = 0.0;   ///< complete - arrival (executed only).
  /// Executed, but finished past its deadline (answered late — an SLO
  /// violation, distinct from being shed before running).
  bool deadline_missed = false;
  /// Measured wall time of the execution. NOT deterministic.
  double wall_seconds = 0.0;

  bool executed() const {
    return processed && admission == AdmissionOutcome::kAdmitted;
  }
};

/// Server configuration.
struct ServingOptions {
  /// Most sessions served at once, the calling thread included. 0 or 1 =
  /// run sessions sequentially inline (no pool); outcomes are identical
  /// either way.
  size_t num_workers = 0;
  /// Base seed the per-session seeds derive from. Unset = the fleet's
  /// FederationOptions::seed.
  std::optional<uint64_t> seed;
  /// Admission gates: capacity, per-class round budgets and virtual-time
  /// deadlines. The default sets none, so every request is admitted and
  /// nothing is shed. All decisions run on the deterministic virtual
  /// clock, so shed/reject outcomes are bit-identical at every worker
  /// count.
  AdmissionOptions admission_options;
};

/// Everything recorded about one served session.
struct SessionResult {
  uint64_t session_id = 0;  ///< 1-based; matches RoundRecord::session.
  /// How this session's stream ended. A failed session keeps the outcomes
  /// of the queries that completed before the error; the other sessions in
  /// the batch are unaffected (fault isolation between streams).
  Status status = Status::OK();
  /// Executed requests' outcomes, in execution order
  /// (RequestOutcome::outcome_index maps a request to its slot here).
  std::vector<QueryOutcome> outcomes;
  size_t queries_run = 0;
  /// Queries the POLICY skipped (no test rows in region / no trainable
  /// node — QueryOutcome::skipped). Server-side load shedding is counted
  /// separately in queries_shed, never here.
  size_t queries_skipped = 0;
  /// Requests shed at their virtual deadline before running.
  size_t queries_shed = 0;
  /// Requests refused admission — queue full or class budget spent.
  size_t queries_rejected = 0;
  /// Per-request dispositions, one per SessionSpec request.
  std::vector<RequestOutcome> requests;
  /// Session-private network totals (model/profile traffic of this stream).
  size_t comm_messages = 0;
  size_t comm_bytes = 0;
  double comm_seconds = 0.0;
  /// Measured wall time of this session's stream. The only field that is
  /// NOT deterministic across runs / worker counts.
  double wall_seconds = 0.0;
};

/// Schedules QuerySessions over a shared fleet.
class QueryServer {
 public:
  static Result<QueryServer> Create(std::shared_ptr<const Fleet> fleet,
                                    const ServingOptions& options = {});

  /// The fixed per-session seed derivation: the registered SplitRng key
  /// path base_seed -> kSessionSeed -> session_id, never dependent on
  /// scheduling order. Session seeds are full-avalanche 64-bit keys, so the
  /// additive local-training roots (session seed + query id) of different
  /// sessions overlap only by chance, with negligible probability.
  static uint64_t SessionSeed(uint64_t base_seed, uint64_t session_id);

  /// Run one session per spec (session ids 1..specs.size(), in order) and
  /// return their results in spec order. Each session replays its timed
  /// request stream through an AdmissionQueue on a deterministic virtual
  /// clock (admit -> schedule -> rounds -> export; see docs/ARCHITECTURE.md
  /// "The serving pipeline").
  ///
  /// Per session: requests are offered in arrival order (stable ties by
  /// request index); the scheduler repeatedly pops the highest-priority
  /// live request, sheds anything whose virtual deadline has passed, runs
  /// the query, and advances the clock by the query's leader-side critical
  /// path (QueryOutcome::sim_time_parallel — pure sim::CostModel seconds).
  /// Every admission/shed decision and every vt_* field is therefore
  /// bit-identical at every worker count; only wall times vary.
  ///
  /// With num_workers > 1 the sessions run concurrently. One session
  /// failing does NOT fail the batch: every spec gets a SessionResult, and
  /// a failed session carries the error in its `status` (plus whatever
  /// queries completed before it), so the call itself cannot fail.
  std::vector<SessionResult> Serve(const std::vector<SessionSpec>& specs);

  const ServingOptions& options() const { return options_; }
  const Fleet& fleet() const { return *fleet_; }

 private:
  QueryServer(std::shared_ptr<const Fleet> fleet, ServingOptions options)
      : fleet_(std::move(fleet)), options_(options) {}

  /// Build and replay one session start to finish. Errors land in the
  /// returned result's `status`, never escape it.
  SessionResult RunSession(const SessionSpec& spec, uint64_t session_id) const;

  std::shared_ptr<const Fleet> fleet_;
  ServingOptions options_;
};

/// Per-class serving telemetry aggregated over a Serve result set.
struct QueryClassStats {
  size_t requests = 0;         ///< Requests carrying this class.
  size_t executed = 0;         ///< Admitted and run.
  size_t rejected = 0;         ///< Refused at arrival.
  size_t shed = 0;             ///< Shed at their virtual deadline.
  size_t deadline_missed = 0;  ///< Executed but finished late.
  /// Virtual-time end-to-end latency (vt_latency_s of executed requests):
  /// deterministic, bit-identical at every worker count.
  obs::LatencySummary virtual_latency;
  /// Measured wall time of the executions. NOT deterministic.
  obs::LatencySummary wall_latency;
};

struct ServingTelemetry {
  QueryClassStats per_class[kNumQueryClasses];  ///< Indexed by QueryClass.
  QueryClassStats total;                        ///< All classes pooled.
};

/// Aggregate per-class latency percentiles and shed/reject counts from a
/// Serve result set. Pure function of the results: summarizing a
/// deterministic result set is itself deterministic (wall_latency aside).
ServingTelemetry SummarizeServing(const std::vector<SessionResult>& results);

}  // namespace qens::fl

#endif  // QENS_FL_QUERY_SERVER_H_
