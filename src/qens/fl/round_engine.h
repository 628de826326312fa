#ifndef QENS_FL_ROUND_ENGINE_H_
#define QENS_FL_ROUND_ENGINE_H_

/// \file round_engine.h
/// The per-round protocol state machine of the federated loop, driven by
/// every QuerySession: broadcast -> local train -> collect -> validate /
/// quarantine -> aggregate -> commit-or-degrade, repeated `rounds` times
/// over one fixed node selection.
///
/// The engine owns no state of its own — it operates on a
/// RoundEngineContext of borrowed pointers (environment, network, leader,
/// fault/Byzantine state, thread-pool slot) so the same code path serves
/// the fault-free paper protocol, the fault-tolerant loop, and the
/// Byzantine-robust loop bit-for-bit identically to the historical
/// monolithic implementation.

#include <cstdint>
#include <memory>
#include <vector>

#include "qens/common/status.h"
#include "qens/common/thread_pool.h"
#include "qens/data/dataset.h"
#include "qens/fl/leader.h"
#include "qens/fl/participant.h"
#include "qens/fl/protocol.h"
#include "qens/sim/network.h"

namespace qens::fl {

class DynamicFleet;

/// Everything one round set needs, borrowed from the owning session. All
/// pointers must outlive the engine. `injector`/`validator` are null when
/// the corresponding opt-in layer is off; `quarantine_until` is non-null
/// exactly when `validator` is.
struct RoundEngineContext {
  const sim::EdgeEnvironment* environment = nullptr;
  /// The session's network: every model-down / model-up transfer is
  /// accounted and priced here.
  sim::Network* network = nullptr;
  /// Ranking + reliability bookkeeping (RecordRoundResult).
  Leader* leader = nullptr;
  const FederationOptions* options = nullptr;
  /// Fault layer (null = off). The engine advances *fault_round once per
  /// executed round so crash schedules persist across queries.
  sim::FaultInjector* injector = nullptr;
  size_t* fault_round = nullptr;
  /// Byzantine layer (null = off). *byz_round advances once per round;
  /// quarantine_until maps node id -> first round it may rejoin.
  UpdateValidator* validator = nullptr;
  std::vector<size_t>* quarantine_until = nullptr;
  size_t* byz_round = nullptr;
  /// Dynamic-fleet layer (null = off). BeginRound is called once per
  /// executed round on the driving thread; absent nodes fail their round
  /// through the quorum-gated partial-aggregation path, and training reads
  /// each node through the session's drifted copy.
  DynamicFleet* dynamic = nullptr;
  /// Slot for the session's lazily-created training pool (created on the
  /// first parallel round, reused across rounds and queries).
  std::unique_ptr<common::ThreadPool>* pool = nullptr;
  /// Tags emitted RoundRecords with the owning session (0 = the default
  /// session id, left out of the JSON).
  uint64_t session_id = 0;
};

/// Drives `rounds` leader <-> participants exchanges over one node
/// selection and returns the surviving local models ready for final
/// aggregation.
class RoundEngine {
 public:
  explicit RoundEngine(const RoundEngineContext& ctx) : ctx_(ctx) {}

  /// The surviving state after the last round: the local models to
  /// ensemble (already graceful-degraded to the last committed global
  /// model when faults wiped out every survivor), their Eq. 7 weights, and
  /// the last committed global model (the robust clipping reference).
  /// `local_models` is never empty.
  struct RoundSetResult {
    std::vector<ml::SequentialModel> local_models;
    std::vector<double> eq7_weights;
    ml::SequentialModel global;
  };

  /// Execute the round loop. `jobs` is the fixed per-query assignment
  /// (non-empty, and `rounds` > 0: QuerySession guarantees both),
  /// `global` the broadcast initial model (consumed), `holdout` the pooled
  /// query-region test rows (used only by a holdout-screening validator;
  /// may be null otherwise). `query_id`/`policy` label telemetry records.
  /// Fills the fault/Byzantine/time/data accounting fields of `outcome`
  /// exactly as the historical monolithic loop did.
  Result<RoundSetResult> Run(const std::vector<TrainJob>& jobs,
                             ml::SequentialModel global, size_t rounds,
                             size_t query_id, selection::PolicyKind policy,
                             const LocalTrainOptions& local_options,
                             size_t model_bytes, const data::Dataset* holdout,
                             QueryOutcome* outcome);

 private:
  RoundEngineContext ctx_;
};

}  // namespace qens::fl

#endif  // QENS_FL_ROUND_ENGINE_H_
