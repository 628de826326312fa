#ifndef QENS_FL_EXPERIMENT_H_
#define QENS_FL_EXPERIMENT_H_

/// \file experiment.h
/// High-level experiment harness shared by the bench binaries and examples:
/// build a fleet and one query session from the synthetic multi-site
/// air-quality data, issue a [18]-style query workload, execute each query
/// under the mechanisms the paper compares (GT, Random, Averaging = ours +
/// Eq. 6, Weighted = ours + Eq. 7), and accumulate the statistics behind
/// Tables I–II and Figs. 7–9.

#include <memory>
#include <string>
#include <vector>

#include "qens/common/status.h"
#include "qens/data/air_quality_generator.h"
#include "qens/fl/query_session.h"
#include "qens/query/workload_generator.h"
#include "qens/tensor/stats.h"

namespace qens::fl {

/// Full configuration of one experiment.
struct ExperimentConfig {
  data::AirQualityOptions data;          ///< The 10-node environment.
  FederationOptions federation;
  query::WorkloadOptions workload;       ///< The 200-query stream.
  uint64_t seed = 7;
};

/// One "mechanism" as compared in Fig. 7: a selection policy, whether the
/// data-selectivity step runs, and which aggregation answers the query.
struct Mechanism {
  std::string label;
  selection::PolicyKind policy = selection::PolicyKind::kQueryDriven;
  bool data_selectivity = false;
  AggregationKind aggregation = AggregationKind::kModelAveraging;
};

/// The paper's four Fig. 7 mechanisms: GT, Random, Averaging (ours, Eq. 6),
/// Weighted (ours, Eq. 7).
std::vector<Mechanism> Figure7Mechanisms();

/// Pull the loss matching `kind` out of an outcome.
double LossOf(const QueryOutcome& outcome, AggregationKind kind);

/// Accumulated per-mechanism statistics over a workload.
struct MechanismStats {
  std::string label;
  stats::RunningStats loss;            ///< Per-query aggregated-answer MSE.
  stats::RunningStats sim_time;        ///< Simulated train+comm seconds.
  stats::RunningStats wall_time;       ///< Measured seconds.
  stats::RunningStats data_fraction;   ///< samples_used / all-node samples.
  size_t queries_run = 0;
  size_t queries_skipped = 0;
};

/// One row per executed query (Figs. 8 and 9 plot these series).
struct QueryRecord {
  uint64_t query_id = 0;
  bool skipped = false;
  double loss = 0.0;
  double sim_time = 0.0;       ///< Training (total) + communication.
  double wall_seconds = 0.0;
  double data_fraction_all = 0.0;
  size_t samples_used = 0;
  size_t selected_nodes = 0;
};

/// Owns a fleet, one query session over it (seeded with the fleet's
/// FederationOptions::seed) and a generated workload, and runs mechanisms
/// over them.
class ExperimentRunner {
 public:
  /// Generate the node datasets, build the fleet and its session, and
  /// generate the workload over the fleet's raw global data space.
  static Result<ExperimentRunner> Create(const ExperimentConfig& config);

  /// The immutable deployment, shareable with a QueryServer.
  const std::shared_ptr<const Fleet>& fleet() const { return fleet_; }
  QuerySession& session() { return session_; }
  const QuerySession& session() const { return session_; }
  const std::vector<query::RangeQuery>& queries() const { return queries_; }
  const ExperimentConfig& config() const { return config_; }

  /// Execute every workload query under `mechanism`, returning summary
  /// statistics (Fig. 7-style averages).
  Result<MechanismStats> RunMechanism(const Mechanism& mechanism);

  /// Execute every workload query under `mechanism`, returning the
  /// per-query series (Fig. 8/9-style lines). `limit` of 0 runs the full
  /// workload; otherwise only the first `limit` queries.
  Result<std::vector<QueryRecord>> RunPerQuery(const Mechanism& mechanism,
                                               size_t limit = 0);

  /// Per-round records accumulated across Run* calls. Empty unless the
  /// obs metrics registry was enabled while the queries ran (the
  /// session only populates QueryOutcome::round_records then).
  const std::vector<obs::RoundRecord>& collected_round_records() const {
    return collected_round_records_;
  }

 private:
  ExperimentRunner(std::shared_ptr<const Fleet> fleet, QuerySession session,
                   std::vector<query::RangeQuery> queries,
                   ExperimentConfig config)
      : fleet_(std::move(fleet)),
        session_(std::move(session)),
        queries_(std::move(queries)),
        config_(std::move(config)) {}

  std::shared_ptr<const Fleet> fleet_;
  QuerySession session_;
  std::vector<query::RangeQuery> queries_;
  ExperimentConfig config_;
  std::vector<obs::RoundRecord> collected_round_records_;
};

/// Render a Fig. 7-style table ("mechanism | avg loss | avg time | avg
/// data%") for printing by the bench binaries.
std::string FormatMechanismTable(const std::vector<MechanismStats>& rows);

}  // namespace qens::fl

#endif  // QENS_FL_EXPERIMENT_H_
