// Regression tests pinning the parallel-training determinism contract:
// pooled (`max_parallel_nodes` > 1) vs sequential training under the same
// seed must yield identical selected-node sets, per-round survivor counts,
// and losses — in the single-round protocol, across multiple FedAvg
// rounds, and with the fault-injection layer active.

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/common/thread_pool.h"
#include "qens/fl/query_session.h"
#include "qens/obs/metrics.h"

namespace qens::fl {
namespace {

data::Dataset MakeNodeData(double offset, double slope, uint64_t seed,
                           size_t n = 220) {
  Rng rng(seed);
  Matrix x(n, 1), y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = offset + rng.Uniform(0, 10);
    y(i, 0) = slope * x(i, 0) + rng.Gaussian(0, 0.2);
  }
  return data::Dataset::Create(x, y).value();
}

FederationOptions FastOptions() {
  FederationOptions options;
  options.environment.kmeans.k = 3;
  options.ranking.epsilon = 0.1;
  options.query_driven.top_l = 4;
  options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  options.hyper.epochs = 15;
  options.epochs_per_cluster = 6;
  options.random_l = 2;
  options.seed = 77;
  return options;
}

Result<QuerySession> MakeSession(const FederationOptions& options) {
  std::vector<data::Dataset> nodes = {
      MakeNodeData(0, 2.0, 1), MakeNodeData(0, 2.0, 2),
      MakeNodeData(0, 2.0, 3), MakeNodeData(0, 2.0, 4)};
  QENS_ASSIGN_OR_RETURN(std::shared_ptr<Fleet> fleet,
                        Fleet::Create(std::move(nodes), options));
  return QuerySession::Create(std::move(fleet), QuerySessionOptions{});
}

Result<QuerySession> MakeSessionN(size_t n, const FederationOptions& options) {
  std::vector<data::Dataset> nodes;
  nodes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(MakeNodeData(0, 2.0, i + 1));
  }
  QENS_ASSIGN_OR_RETURN(std::shared_ptr<Fleet> fleet,
                        Fleet::Create(std::move(nodes), options));
  return QuerySession::Create(std::move(fleet), QuerySessionOptions{});
}

query::RangeQuery QueryOver(double lo, double hi) {
  query::RangeQuery q;
  q.id = 3;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

void ExpectIdenticalOutcomes(const QueryOutcome& seq,
                             const QueryOutcome& par) {
  EXPECT_EQ(seq.skipped, par.skipped);
  EXPECT_EQ(seq.selected_nodes, par.selected_nodes);
  EXPECT_EQ(seq.round_survivors, par.round_survivors);
  EXPECT_EQ(seq.failed_nodes, par.failed_nodes);
  EXPECT_EQ(seq.deadline_missed_nodes, par.deadline_missed_nodes);
  EXPECT_EQ(seq.degraded_rounds, par.degraded_rounds);
  EXPECT_EQ(seq.messages_lost, par.messages_lost);
  EXPECT_EQ(seq.samples_used, par.samples_used);
  if (seq.skipped || par.skipped) return;
  EXPECT_DOUBLE_EQ(seq.loss_model_avg, par.loss_model_avg);
  EXPECT_DOUBLE_EQ(seq.loss_weighted, par.loss_weighted);
  EXPECT_DOUBLE_EQ(seq.loss_fedavg, par.loss_fedavg);
  EXPECT_DOUBLE_EQ(seq.sim_time_total, par.sim_time_total);
  EXPECT_DOUBLE_EQ(seq.sim_time_parallel, par.sim_time_parallel);
  ASSERT_EQ(seq.survivor_weights.size(), par.survivor_weights.size());
  for (size_t i = 0; i < seq.survivor_weights.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq.survivor_weights[i], par.survivor_weights[i]);
  }
}

void ExpectIdenticalRoundRecords(const QueryOutcome& seq,
                                 const QueryOutcome& par) {
  ASSERT_EQ(seq.round_records.size(), par.round_records.size());
  for (size_t r = 0; r < seq.round_records.size(); ++r) {
    const obs::RoundRecord& a = seq.round_records[r];
    const obs::RoundRecord& b = par.round_records[r];
    EXPECT_EQ(a.engaged, b.engaged);
    EXPECT_EQ(a.survivors, b.survivors);
    EXPECT_EQ(a.quorum_met, b.quorum_met);
    EXPECT_DOUBLE_EQ(a.parallel_seconds, b.parallel_seconds);
    EXPECT_DOUBLE_EQ(a.total_train_seconds, b.total_train_seconds);
    EXPECT_DOUBLE_EQ(a.comm_seconds, b.comm_seconds);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (size_t i = 0; i < a.nodes.size(); ++i) {
      EXPECT_EQ(a.nodes[i].node_id, b.nodes[i].node_id);
      EXPECT_EQ(a.nodes[i].fate, b.nodes[i].fate);
      EXPECT_DOUBLE_EQ(a.nodes[i].train_seconds, b.nodes[i].train_seconds);
      EXPECT_DOUBLE_EQ(a.nodes[i].comm_seconds, b.nodes[i].comm_seconds);
      EXPECT_EQ(a.nodes[i].samples_used, b.nodes[i].samples_used);
      EXPECT_EQ(a.nodes[i].straggler, b.nodes[i].straggler);
    }
  }
}

TEST(ParallelDeterminismTest, MultiRoundMatchesSequential) {
  FederationOptions seq_options = FastOptions();
  FederationOptions par_options = FastOptions();
  par_options.max_parallel_nodes = common::ThreadPool::DefaultThreadCount();
  auto seq = MakeSession(seq_options);
  auto par = MakeSession(par_options);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  auto o_seq = seq->RunQueryMultiRound(
      QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 3);
  auto o_par = par->RunQueryMultiRound(
      QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 3);
  ASSERT_TRUE(o_seq.ok());
  ASSERT_TRUE(o_par.ok());
  ASSERT_FALSE(o_seq->skipped);
  ExpectIdenticalOutcomes(*o_seq, *o_par);
}

TEST(ParallelDeterminismTest, HoldsAcrossConsecutiveQueries) {
  FederationOptions seq_options = FastOptions();
  FederationOptions par_options = FastOptions();
  par_options.max_parallel_nodes = common::ThreadPool::DefaultThreadCount();
  auto seq = MakeSession(seq_options);
  auto par = MakeSession(par_options);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  for (int i = 0; i < 3; ++i) {
    auto o_seq = seq->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
    auto o_par = par->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
    ASSERT_TRUE(o_seq.ok());
    ASSERT_TRUE(o_par.ok());
    ExpectIdenticalOutcomes(*o_seq, *o_par);
  }
}

TEST(ParallelDeterminismTest, HoldsUnderFaultInjection) {
  FederationOptions base = FastOptions();
  base.fault_tolerance.enabled = true;
  base.fault_tolerance.faults.seed = 19;
  base.fault_tolerance.faults.dropout_rate = 0.3;
  base.fault_tolerance.faults.straggler_rate = 0.5;
  base.fault_tolerance.faults.message_loss_rate = 0.2;
  base.fault_tolerance.min_quorum_frac = 0.25;
  FederationOptions par_options = base;
  par_options.max_parallel_nodes = common::ThreadPool::DefaultThreadCount();
  auto seq = MakeSession(base);
  auto par = MakeSession(par_options);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  for (int i = 0; i < 4; ++i) {
    auto o_seq = seq->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 2);
    auto o_par = par->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 2);
    ASSERT_TRUE(o_seq.ok());
    ASSERT_TRUE(o_par.ok());
    ExpectIdenticalOutcomes(*o_seq, *o_par);
  }
}

TEST(ParallelDeterminismTest, HoldsUnderDeadlineCuts) {
  FederationOptions base = FastOptions();
  base.fault_tolerance.enabled = true;
  base.fault_tolerance.faults.seed = 23;
  base.fault_tolerance.faults.straggler_rate = 0.5;
  base.fault_tolerance.faults.straggler_slowdown_min = 8.0;
  base.fault_tolerance.faults.straggler_slowdown_max = 8.0;
  // A deadline that cuts slowed nodes but admits normal ones: calibrate
  // from one fault-free run.
  FederationOptions calibrate = FastOptions();
  calibrate.fault_tolerance.enabled = true;
  auto cal_fed = MakeSession(calibrate);
  ASSERT_TRUE(cal_fed.ok());
  auto cal = cal_fed->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  ASSERT_TRUE(cal.ok());
  ASSERT_FALSE(cal->skipped);
  base.fault_tolerance.round_deadline_s = 2.0 * cal->sim_time_parallel;

  FederationOptions par_options = base;
  par_options.max_parallel_nodes = common::ThreadPool::DefaultThreadCount();
  auto seq = MakeSession(base);
  auto par = MakeSession(par_options);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  auto o_seq = seq->RunQuery(QueryOver(0, 10),
                             selection::PolicyKind::kQueryDriven,
                             /*data_selectivity=*/true);
  auto o_par = par->RunQuery(QueryOver(0, 10),
                             selection::PolicyKind::kQueryDriven,
                             /*data_selectivity=*/true);
  ASSERT_TRUE(o_seq.ok());
  ASSERT_TRUE(o_par.ok());
  ExpectIdenticalOutcomes(*o_seq, *o_par);
}

// Satellite of the observability work: per-round records must report the
// SAME timing on the sequential and parallel paths — both share one
// deterministic accounting loop over the job results — and the leader's
// critical path must respect the round deadline even when stragglers and
// lost model-down transfers are excluded mid-round.
TEST(ParallelDeterminismTest, RoundRecordTimingMatchesSequential) {
  obs::MetricsRegistry::Enable();
  FederationOptions base = FastOptions();
  base.fault_tolerance.enabled = true;
  base.fault_tolerance.faults.seed = 29;
  base.fault_tolerance.faults.straggler_rate = 0.5;
  base.fault_tolerance.faults.straggler_slowdown_min = 8.0;
  base.fault_tolerance.faults.straggler_slowdown_max = 8.0;
  base.fault_tolerance.faults.message_loss_rate = 0.2;
  base.fault_tolerance.min_quorum_frac = 0.25;

  FederationOptions calibrate = FastOptions();
  calibrate.fault_tolerance.enabled = true;
  auto cal_fed = MakeSession(calibrate);
  ASSERT_TRUE(cal_fed.ok());
  auto cal = cal_fed->RunQuery(QueryOver(0, 10),
                               selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  ASSERT_TRUE(cal.ok());
  ASSERT_FALSE(cal->skipped);
  const double deadline = 2.0 * cal->sim_time_parallel;
  base.fault_tolerance.round_deadline_s = deadline;

  FederationOptions par_options = base;
  par_options.max_parallel_nodes = common::ThreadPool::DefaultThreadCount();
  auto seq = MakeSession(base);
  auto par = MakeSession(par_options);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  const size_t rounds = 3;
  for (int i = 0; i < 3; ++i) {
    auto o_seq = seq->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, rounds);
    auto o_par = par->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, rounds);
    ASSERT_TRUE(o_seq.ok());
    ASSERT_TRUE(o_par.ok());
    ExpectIdenticalOutcomes(*o_seq, *o_par);
    ExpectIdenticalRoundRecords(*o_seq, *o_par);
    if (o_seq->skipped) continue;
    // Deadline-excluded work must never stretch the leader's wait: every
    // round's critical path is capped at the deadline, so a query's
    // parallel time is bounded by rounds x deadline.
    ASSERT_EQ(o_seq->round_records.size(), rounds);
    for (const auto& record : o_seq->round_records) {
      EXPECT_LE(record.parallel_seconds, deadline + 1e-12);
    }
    EXPECT_LE(o_seq->sim_time_parallel, rounds * deadline + 1e-12);
  }
  obs::MetricsRegistry::Disable();
}

// The shared pool must leave outcomes invariant under its worker count: a
// 1-worker pool, a small oversubscribed pool (more training jobs than
// workers, so jobs queue), and a wide pool all match the plain sequential
// path bit for bit — with the SAME pool reused across multi-round queries.
TEST(ParallelDeterminismTest, WorkerCountInvariantWithOversubscribedPool) {
  FederationOptions base = FastOptions();
  base.query_driven.top_l = 6;  // Select all six nodes.
  auto seq_fed = MakeSessionN(6, base);
  ASSERT_TRUE(seq_fed.ok());
  std::vector<QueryOutcome> expected;
  for (int i = 0; i < 2; ++i) {
    auto o = seq_fed->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 2);
    ASSERT_TRUE(o.ok());
    ASSERT_FALSE(o->skipped);
    expected.push_back(*o);
  }

  for (size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
    FederationOptions par_options = base;
    par_options.max_parallel_nodes = workers;  // 1 and 2 oversubscribe 6 jobs.
    auto par_fed = MakeSessionN(6, par_options);
    ASSERT_TRUE(par_fed.ok());
    for (int i = 0; i < 2; ++i) {
      auto o = par_fed->RunQueryMultiRound(
          QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 2);
      ASSERT_TRUE(o.ok()) << "workers=" << workers;
      ExpectIdenticalOutcomes(expected[static_cast<size_t>(i)], *o);
    }
  }
}

// Pool reuse across queries AND across the fault-injection layer: one
// oversubscribed federation answering several queries must track its
// sequential twin query by query.
TEST(ParallelDeterminismTest, OversubscribedPoolSurvivesFaultInjection) {
  FederationOptions base = FastOptions();
  base.query_driven.top_l = 6;
  base.fault_tolerance.enabled = true;
  base.fault_tolerance.faults.seed = 31;
  base.fault_tolerance.faults.dropout_rate = 0.25;
  base.fault_tolerance.faults.straggler_rate = 0.4;
  base.fault_tolerance.faults.message_loss_rate = 0.15;
  base.fault_tolerance.min_quorum_frac = 0.25;
  FederationOptions par_options = base;
  par_options.max_parallel_nodes = 2;  // Fewer workers than nodes.
  auto seq = MakeSessionN(6, base);
  auto par = MakeSessionN(6, par_options);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  for (int i = 0; i < 3; ++i) {
    auto o_seq = seq->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 2);
    auto o_par = par->RunQueryMultiRound(
        QueryOver(0, 10), selection::PolicyKind::kQueryDriven, true, 2);
    ASSERT_TRUE(o_seq.ok());
    ASSERT_TRUE(o_par.ok());
    ExpectIdenticalOutcomes(*o_seq, *o_par);
  }
}

}  // namespace
}  // namespace qens::fl
