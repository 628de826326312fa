#include "qens/fl/experiment.h"

#include <sstream>

#include "qens/common/string_util.h"

namespace qens::fl {

std::vector<Mechanism> Figure7Mechanisms() {
  return {
      {"GT", selection::PolicyKind::kGameTheory, /*data_selectivity=*/false,
       AggregationKind::kModelAveraging},
      {"Random", selection::PolicyKind::kRandom, /*data_selectivity=*/false,
       AggregationKind::kModelAveraging},
      {"Averaging", selection::PolicyKind::kQueryDriven,
       /*data_selectivity=*/true, AggregationKind::kModelAveraging},
      {"Weighted", selection::PolicyKind::kQueryDriven,
       /*data_selectivity=*/true, AggregationKind::kWeightedAveraging},
  };
}

double LossOf(const QueryOutcome& outcome, AggregationKind kind) {
  switch (kind) {
    case AggregationKind::kModelAveraging:
      return outcome.loss_model_avg;
    case AggregationKind::kWeightedAveraging:
      return outcome.loss_weighted;
    case AggregationKind::kFedAvgParameters:
      return outcome.loss_fedavg;
    case AggregationKind::kCoordinateMedian:
    case AggregationKind::kTrimmedMean:
    case AggregationKind::kNormClippedFedAvg:
      // The robust kinds are evaluated through the byzantine layer.
      return outcome.has_loss_robust ? outcome.loss_robust
                                     : outcome.loss_fedavg;
  }
  return outcome.loss_model_avg;
}

Result<ExperimentRunner> ExperimentRunner::Create(
    const ExperimentConfig& config) {
  data::AirQualityGenerator generator(config.data);
  QENS_ASSIGN_OR_RETURN(std::vector<data::Dataset> node_data,
                        generator.GenerateAll());
  QENS_ASSIGN_OR_RETURN(std::shared_ptr<Fleet> fleet,
                        Fleet::Create(std::move(node_data), config.federation));
  QENS_ASSIGN_OR_RETURN(QuerySession session,
                        QuerySession::Create(fleet, QuerySessionOptions{}));
  // Queries are issued in raw units over the raw global data space; the
  // session maps them into the fleet's internal space per query.
  query::WorkloadGenerator workload(fleet->raw_space, config.workload);
  QENS_ASSIGN_OR_RETURN(std::vector<query::RangeQuery> queries,
                        workload.Generate());
  return ExperimentRunner(std::move(fleet), std::move(session),
                          std::move(queries), config);
}

Result<MechanismStats> ExperimentRunner::RunMechanism(
    const Mechanism& mechanism) {
  MechanismStats stats;
  stats.label = mechanism.label;
  for (const auto& q : queries_) {
    QENS_ASSIGN_OR_RETURN(
        QueryOutcome outcome,
        session_.RunQuery(q, mechanism.policy, mechanism.data_selectivity));
    for (auto& record : outcome.round_records) {
      collected_round_records_.push_back(std::move(record));
    }
    if (outcome.skipped) {
      ++stats.queries_skipped;
      continue;
    }
    ++stats.queries_run;
    stats.loss.Add(LossOf(outcome, mechanism.aggregation));
    stats.sim_time.Add(outcome.sim_time_total + outcome.sim_time_comm);
    stats.wall_time.Add(outcome.wall_seconds);
    stats.data_fraction.Add(outcome.DataFractionOfAll());
  }
  return stats;
}

Result<std::vector<QueryRecord>> ExperimentRunner::RunPerQuery(
    const Mechanism& mechanism, size_t limit) {
  const size_t n =
      limit == 0 ? queries_.size() : std::min(limit, queries_.size());
  std::vector<QueryRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    QENS_ASSIGN_OR_RETURN(
        QueryOutcome outcome,
        session_.RunQuery(queries_[i], mechanism.policy,
                          mechanism.data_selectivity));
    for (auto& record : outcome.round_records) {
      collected_round_records_.push_back(std::move(record));
    }
    QueryRecord rec;
    rec.query_id = queries_[i].id;
    rec.skipped = outcome.skipped;
    if (!outcome.skipped) {
      rec.loss = LossOf(outcome, mechanism.aggregation);
      rec.sim_time = outcome.sim_time_total + outcome.sim_time_comm;
      rec.wall_seconds = outcome.wall_seconds;
      rec.data_fraction_all = outcome.DataFractionOfAll();
      rec.samples_used = outcome.samples_used;
      rec.selected_nodes = outcome.selected_nodes.size();
    }
    records.push_back(rec);
  }
  return records;
}

std::string FormatMechanismTable(const std::vector<MechanismStats>& rows) {
  std::ostringstream out;
  out << StrFormat("%-12s %12s %12s %12s %12s %8s %8s\n", "mechanism",
                   "avg loss", "loss sd", "avg time(s)", "data used %",
                   "run", "skipped");
  for (const auto& r : rows) {
    out << StrFormat("%-12s %12.3f %12.3f %12.4f %12.2f %8zu %8zu\n",
                     r.label.c_str(), r.loss.mean(), r.loss.stddev(),
                     r.sim_time.mean(), 100.0 * r.data_fraction.mean(),
                     r.queries_run, r.queries_skipped);
  }
  return out.str();
}

}  // namespace qens::fl
