// Pins the traffic-aware request pipeline: the AdmissionQueue's bounded
// capacity, priority ordering with deterministic ties, per-class round
// budgets, and virtual-time deadline shedding; the QueryServer::Serve
// end-to-end contract (bit-identical at every worker count, shed/reject
// counted separately from policy skips, no gate set = the queries run on
// a plain QuerySession); and the cross-session amortization of the fleet's
// shared node profiles (counter-pinned: one profile build per fleet, zero
// leader copies for sessions that never execute a round).

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/fl/query_server.h"
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

std::vector<data::Dataset> MakeNodes() {
  return {MakeNodeData(0, 2.0, 1), MakeNodeData(0, 2.0, 2),
          MakeNodeData(0, 2.0, 3), MakeNodeData(0, 2.0, 4)};
}

query::RangeQuery QueryOver(double lo, double hi, uint64_t id) {
  query::RangeQuery q;
  q.id = id;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

QueryRequest MakeRequest(uint64_t id, QueryClass query_class,
                         double arrival_s = 0.0) {
  return QueryRequest{QueryOver(0, 8, id), query_class, arrival_s};
}

uint64_t Counter(const obs::MetricsSnapshot& snapshot,
                 const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// AdmissionQueue unit contract.

TEST(AdmissionTest, ClassAndOutcomeNamesRoundTrip) {
  EXPECT_STREQ(QueryClassName(QueryClass::kInteractive), "interactive");
  EXPECT_STREQ(QueryClassName(QueryClass::kStandard), "standard");
  EXPECT_STREQ(QueryClassName(QueryClass::kBatch), "batch");
  for (size_t cls = 0; cls < kNumQueryClasses; ++cls) {
    const QueryClass query_class = static_cast<QueryClass>(cls);
    auto parsed = ParseQueryClass(QueryClassName(query_class));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, query_class);
  }
  EXPECT_FALSE(ParseQueryClass("bulk").ok());
  EXPECT_STREQ(AdmissionOutcomeName(AdmissionOutcome::kAdmitted), "admitted");
  EXPECT_STREQ(AdmissionOutcomeName(AdmissionOutcome::kRejected), "rejected");
  EXPECT_STREQ(AdmissionOutcomeName(AdmissionOutcome::kShedOnDeadline),
               "shed_on_deadline");
}

TEST(AdmissionTest, BoundedQueueRejectsOverflowAndFreesOnPop) {
  AdmissionOptions options;
  options.queue_capacity = 2;
  AdmissionQueue queue(options);
  EXPECT_EQ(queue.Offer(MakeRequest(1, QueryClass::kStandard), 0, 1),
            AdmissionOutcome::kAdmitted);
  EXPECT_EQ(queue.Offer(MakeRequest(2, QueryClass::kStandard), 1, 1),
            AdmissionOutcome::kAdmitted);
  EXPECT_EQ(queue.Offer(MakeRequest(3, QueryClass::kStandard), 2, 1),
            AdmissionOutcome::kRejected);
  EXPECT_EQ(queue.pending(), 2u);
  ASSERT_TRUE(queue.Pop(0.0, nullptr).has_value());
  // Popping frees capacity: the next offer fits again.
  EXPECT_EQ(queue.Offer(MakeRequest(4, QueryClass::kStandard), 3, 1),
            AdmissionOutcome::kAdmitted);
}

TEST(AdmissionTest, ZeroCapacityRejectsEverything) {
  AdmissionOptions options;
  options.queue_capacity = 0;
  AdmissionQueue queue(options);
  for (uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(queue.Offer(MakeRequest(id, QueryClass::kInteractive), id, 1),
              AdmissionOutcome::kRejected);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.Pop(0.0, nullptr).has_value());
}

TEST(AdmissionTest, PopOrdersByClassThenOfferOrder) {
  AdmissionQueue queue(AdmissionOptions{});
  // Offered lowest priority first; equal-priority pairs must come out in
  // offer order (the deterministic tie-break).
  queue.Offer(MakeRequest(1, QueryClass::kBatch), 0, 1);
  queue.Offer(MakeRequest(2, QueryClass::kStandard), 1, 1);
  queue.Offer(MakeRequest(3, QueryClass::kInteractive), 2, 1);
  queue.Offer(MakeRequest(4, QueryClass::kInteractive), 3, 1);
  queue.Offer(MakeRequest(5, QueryClass::kBatch), 4, 1);
  const size_t expected[] = {2, 3, 1, 0, 4};
  for (size_t want : expected) {
    auto pick = queue.Pop(0.0, nullptr);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->index, want);
  }
  EXPECT_FALSE(queue.Pop(0.0, nullptr).has_value());
}

TEST(AdmissionTest, PopShedsPastDeadlineEntriesInVirtualTime) {
  AdmissionOptions options;
  options.standard_deadline_s = 1.0;
  AdmissionQueue queue(options);
  queue.Offer(MakeRequest(1, QueryClass::kStandard, /*arrival_s=*/0.0), 0, 1);
  queue.Offer(MakeRequest(2, QueryClass::kStandard, /*arrival_s=*/2.0), 1, 1);
  // At now = 1.5 the first entry's absolute deadline (0 + 1) has passed;
  // the second (2 + 1) is still live and must be returned.
  std::vector<PendingRequest> shed;
  auto pick = queue.Pop(1.5, &shed);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->index, 1u);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].index, 0u);
}

TEST(AdmissionTest, AllShedDegenerateDrainsToEmpty) {
  AdmissionOptions options;
  options.batch_deadline_s = 0.5;
  AdmissionQueue queue(options);
  for (size_t i = 0; i < 4; ++i) {
    queue.Offer(MakeRequest(i + 1, QueryClass::kBatch, /*arrival_s=*/0.0), i,
                1);
  }
  std::vector<PendingRequest> shed;
  EXPECT_FALSE(queue.Pop(10.0, &shed).has_value());
  EXPECT_EQ(shed.size(), 4u);
  EXPECT_TRUE(queue.empty());
}

TEST(AdmissionTest, RoundBudgetCapsAdmissionPerClass) {
  AdmissionOptions options;
  options.batch_round_budget = 3;
  AdmissionQueue queue(options);
  // Each request charges 2 rounds: first fits (2 <= 3), second would
  // overshoot (4 > 3). Other classes are not affected by batch's budget.
  EXPECT_EQ(queue.Offer(MakeRequest(1, QueryClass::kBatch), 0, 2),
            AdmissionOutcome::kAdmitted);
  EXPECT_EQ(queue.Offer(MakeRequest(2, QueryClass::kBatch), 1, 2),
            AdmissionOutcome::kRejected);
  EXPECT_EQ(queue.Offer(MakeRequest(3, QueryClass::kStandard), 2, 2),
            AdmissionOutcome::kAdmitted);
}

// ---------------------------------------------------------------------------
// QueryServer::Serve end-to-end.

void ExpectIdenticalOutcomes(const QueryOutcome& a, const QueryOutcome& b) {
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.selected_nodes, b.selected_nodes);
  EXPECT_EQ(a.samples_used, b.samples_used);
  if (a.skipped || b.skipped) return;
  EXPECT_DOUBLE_EQ(a.loss_model_avg, b.loss_model_avg);
  EXPECT_DOUBLE_EQ(a.loss_weighted, b.loss_weighted);
  EXPECT_DOUBLE_EQ(a.loss_fedavg, b.loss_fedavg);
  EXPECT_DOUBLE_EQ(a.sim_time_total, b.sim_time_total);
  EXPECT_DOUBLE_EQ(a.sim_time_parallel, b.sim_time_parallel);
  EXPECT_DOUBLE_EQ(a.sim_time_comm, b.sim_time_comm);
}

/// Everything except wall times (the only fields allowed to vary).
void ExpectIdenticalPipelineResults(const SessionResult& a,
                                    const SessionResult& b) {
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.status.ok(), b.status.ok());
  EXPECT_EQ(a.queries_run, b.queries_run);
  EXPECT_EQ(a.queries_skipped, b.queries_skipped);
  EXPECT_EQ(a.queries_shed, b.queries_shed);
  EXPECT_EQ(a.queries_rejected, b.queries_rejected);
  EXPECT_EQ(a.comm_messages, b.comm_messages);
  EXPECT_EQ(a.comm_bytes, b.comm_bytes);
  EXPECT_DOUBLE_EQ(a.comm_seconds, b.comm_seconds);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t r = 0; r < a.requests.size(); ++r) {
    const RequestOutcome& x = a.requests[r];
    const RequestOutcome& y = b.requests[r];
    EXPECT_EQ(x.query_class, y.query_class);
    EXPECT_EQ(x.admission, y.admission);
    EXPECT_EQ(x.processed, y.processed);
    EXPECT_EQ(x.outcome_index, y.outcome_index);
    EXPECT_DOUBLE_EQ(x.vt_start_s, y.vt_start_s);
    EXPECT_DOUBLE_EQ(x.vt_complete_s, y.vt_complete_s);
    EXPECT_DOUBLE_EQ(x.vt_queue_s, y.vt_queue_s);
    EXPECT_DOUBLE_EQ(x.vt_latency_s, y.vt_latency_s);
    EXPECT_EQ(x.deadline_missed, y.deadline_missed);
  }
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    ExpectIdenticalOutcomes(a.outcomes[i], b.outcomes[i]);
  }
}

/// Mixed-class sessions: arrivals every 5 virtual ms, classes cycled so
/// priority scheduling visibly reorders execution.
std::vector<SessionSpec> MakeRequestSpecs(size_t sessions = 4,
                                                 size_t per_session = 6) {
  constexpr QueryClass kPattern[] = {QueryClass::kBatch, QueryClass::kStandard,
                                     QueryClass::kInteractive};
  std::vector<SessionSpec> specs;
  uint64_t id = 1;
  for (size_t s = 0; s < sessions; ++s) {
    SessionSpec spec;
    spec.rounds = 1;
    for (size_t q = 0; q < per_session; ++q, ++id) {
      spec.requests.push_back(
          MakeRequest(id, kPattern[q % 3],
                      /*arrival_s=*/0.005 * static_cast<double>(q)));
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

ServingOptions PipelineOptions(size_t workers) {
  ServingOptions options;
  options.num_workers = workers;
  options.admission_options.queue_capacity = 4;
  options.admission_options.interactive_deadline_s = 0.4;
  options.admission_options.standard_deadline_s = 0.6;
  options.admission_options.batch_deadline_s = 0.08;
  return options;
}

TEST(ServeTest, BitIdenticalAtEveryWorkerCount) {
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  const std::vector<SessionSpec> specs = MakeRequestSpecs();

  auto sequential = QueryServer::Create(*fleet, PipelineOptions(0));
  ASSERT_TRUE(sequential.ok());
  auto expected = sequential->Serve(specs);
  ASSERT_EQ(expected.size(), specs.size());
  size_t executed = 0, shed = 0, rejected = 0;
  for (const SessionResult& session : expected) {
    ASSERT_TRUE(session.status.ok()) << session.status.ToString();
    executed += session.queries_run;
    shed += session.queries_shed;
    rejected += session.queries_rejected;
    // Every request must have been disposed of, one way or another.
    for (const RequestOutcome& request : session.requests) {
      EXPECT_TRUE(request.processed);
    }
  }
  // The workload is tuned so all three dispositions actually occur —
  // otherwise the equality assertions below would vacuously pass.
  EXPECT_GT(executed, 0u);
  EXPECT_GT(shed, 0u);

  for (size_t workers : {size_t{2}, size_t{4}}) {
    auto server = QueryServer::Create(*fleet, PipelineOptions(workers));
    ASSERT_TRUE(server.ok());
    auto results = server->Serve(specs);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t s = 0; s < results.size(); ++s) {
      ExpectIdenticalPipelineResults(expected[s], results[s]);
    }
  }
  (void)rejected;
}

TEST(ServeTest, PriorityClassesExecuteBeforeLowerClasses) {
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  // All requests arrive at t = 0: execution order must be class order, and
  // outcome_index must map each executed request to its outcome slot.
  SessionSpec spec;
  spec.rounds = 1;
  spec.requests.push_back(MakeRequest(1, QueryClass::kBatch));
  spec.requests.push_back(MakeRequest(2, QueryClass::kStandard));
  spec.requests.push_back(MakeRequest(3, QueryClass::kInteractive));

  auto server = QueryServer::Create(*fleet, ServingOptions{});
  ASSERT_TRUE(server.ok());
  auto results = server->Serve({spec});
  const SessionResult& session = results[0];
  ASSERT_TRUE(session.status.ok()) << session.status.ToString();
  ASSERT_EQ(session.requests.size(), 3u);
  EXPECT_EQ(session.requests[2].outcome_index, 0u);  // interactive first
  EXPECT_EQ(session.requests[1].outcome_index, 1u);  // then standard
  EXPECT_EQ(session.requests[0].outcome_index, 2u);  // batch last
  // The batch request waited behind both others.
  EXPECT_GT(session.requests[0].vt_queue_s, session.requests[1].vt_queue_s);
  EXPECT_EQ(session.requests[2].vt_queue_s, 0.0);
}

TEST(ServeTest, AdmissionOffMatchesBatchServeAndLegacySkipCount) {
  // With no gate set, Serve must run a plain query list exactly as a
  // QuerySession created directly with the server's session seed and id:
  // outcome for outcome and byte for byte. queries_skipped counts POLICY
  // skips only; shed/rejected stay zero.
  const AdmissionOptions no_gates;
  EXPECT_EQ(no_gates.queue_capacity, static_cast<size_t>(-1));
  for (size_t cls = 0; cls < kNumQueryClasses; ++cls) {
    EXPECT_EQ(no_gates.DeadlineFor(static_cast<QueryClass>(cls)), 0.0);
    EXPECT_EQ(no_gates.RoundBudgetFor(static_cast<QueryClass>(cls)), 0u);
  }
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());

  const std::vector<query::RangeQuery> queries = {
      QueryOver(0, 8, 1),
      // Region far outside the data (spans ~[0, 10]): the policy skips it.
      QueryOver(400, 500, 2),
      QueryOver(0, 6, 3),
  };
  SessionSpec spec;
  spec.rounds = 1;
  for (const query::RangeQuery& query : queries) {
    spec.requests.push_back({query});
  }

  auto server = QueryServer::Create(*fleet, ServingOptions{});
  ASSERT_TRUE(server.ok());
  auto served = server->Serve({spec});
  const SessionResult& result = served[0];
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  QuerySessionOptions session_options;
  session_options.session_id = 1;
  session_options.seed = QueryServer::SessionSeed((*fleet)->options.seed, 1);
  session_options.network.record_messages = false;
  auto session = QuerySession::Create(*fleet, session_options);
  ASSERT_TRUE(session.ok());
  std::vector<QueryOutcome> reference;
  for (const query::RangeQuery& query : queries) {
    auto outcome = session->RunQueryMultiRound(
        query, spec.policy, spec.data_selectivity, spec.rounds);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    reference.push_back(*std::move(outcome));
  }

  // The policy skip is visible and pinned: exactly one query skipped, and
  // never misattributed to shedding.
  EXPECT_EQ(result.queries_skipped, 1u);
  EXPECT_TRUE(reference[1].skipped);
  EXPECT_EQ(result.queries_run, 2u);
  EXPECT_EQ(result.queries_shed, 0u);
  EXPECT_EQ(result.queries_rejected, 0u);
  EXPECT_EQ(result.comm_messages, session->network().total_messages());
  EXPECT_EQ(result.comm_bytes, session->network().total_bytes());
  EXPECT_DOUBLE_EQ(result.comm_seconds,
                   session->network().total_transfer_seconds());
  ASSERT_EQ(result.outcomes.size(), reference.size());
  for (size_t q = 0; q < reference.size(); ++q) {
    EXPECT_EQ(result.requests[q].outcome_index, q);
    ExpectIdenticalOutcomes(result.outcomes[q], reference[q]);
  }
}

TEST(ServeTest, ZeroCapacityRejectsEveryRequest) {
  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  ServingOptions options;
  options.admission_options.queue_capacity = 0;
  auto server = QueryServer::Create(*fleet, options);
  ASSERT_TRUE(server.ok());
  auto results = server->Serve(MakeRequestSpecs(2, 4));
  for (const SessionResult& session : results) {
    EXPECT_EQ(session.queries_rejected, session.requests.size());
    EXPECT_EQ(session.queries_run, 0u);
    EXPECT_EQ(session.queries_shed, 0u);
    EXPECT_TRUE(session.outcomes.empty());
    for (const RequestOutcome& request : session.requests) {
      EXPECT_EQ(request.admission, AdmissionOutcome::kRejected);
      EXPECT_TRUE(request.processed);
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-session profile amortization (counter-pinned).

TEST(ServeTest, FleetProfilesBuiltOnceAndNeverCopiedWhenIdle) {
  obs::MetricsRegistry::Enable();
  obs::MetricsRegistry::Get()->Reset();

  auto fleet = Fleet::Create(MakeNodes(), FastOptions());
  ASSERT_TRUE(fleet.ok());
  ASSERT_NE((*fleet)->profiles, nullptr);
  {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Get()->Snapshot();
    // The leader-side profile extraction ran exactly once, at fleet build.
    EXPECT_EQ(Counter(snapshot, "fleet.profile_builds"), 1u);
    EXPECT_EQ(Counter(snapshot, "leader.profile_copies"), 0u);
  }

  // Eight sessions whose every request is rejected at admission: their
  // leaders never execute a round, so the shared profile vector must never
  // be copied — the overload path does no per-session profile work.
  ServingOptions rejecting;
  rejecting.admission_options.queue_capacity = 0;
  auto server = QueryServer::Create(*fleet, rejecting);
  ASSERT_TRUE(server.ok());
  server->Serve(MakeRequestSpecs(8, 4));
  {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Get()->Snapshot();
    EXPECT_EQ(Counter(snapshot, "fleet.profile_builds"), 1u);
    EXPECT_EQ(Counter(snapshot, "leader.profile_copies"), 0u);
    EXPECT_EQ(Counter(snapshot, "serving.requests_rejected"), 32u);
  }

  // Fault-free execution never touches reliability state, so even sessions
  // that run queries keep reading the shared vector: still zero copies.
  auto executing = QueryServer::Create(*fleet, ServingOptions{});
  ASSERT_TRUE(executing.ok());
  SessionSpec spec;
  spec.rounds = 1;
  spec.requests.push_back({QueryOver(0, 8, 1)});
  spec.requests.push_back({QueryOver(0, 6, 2)});
  executing->Serve({spec, spec, spec});
  {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Get()->Snapshot();
    EXPECT_EQ(Counter(snapshot, "fleet.profile_builds"), 1u);
    EXPECT_EQ(Counter(snapshot, "leader.profile_copies"), 0u);
  }

  // Under fault tolerance the leader books per-round reliability, so each
  // executing session materializes its private copy exactly ONCE — not
  // once per round or per query.
  FederationOptions faulty_options = FastOptions();
  faulty_options.fault_tolerance.enabled = true;
  auto faulty_fleet = Fleet::Create(MakeNodes(), faulty_options);
  ASSERT_TRUE(faulty_fleet.ok());
  auto faulty = QueryServer::Create(*faulty_fleet, ServingOptions{});
  ASSERT_TRUE(faulty.ok());
  auto faulty_served = faulty->Serve({spec, spec, spec});
  for (const SessionResult& session : faulty_served) {
    ASSERT_TRUE(session.status.ok()) << session.status.ToString();
    EXPECT_GT(session.queries_run, 0u);
  }
  {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Get()->Snapshot();
    EXPECT_EQ(Counter(snapshot, "fleet.profile_builds"), 2u);
    EXPECT_EQ(Counter(snapshot, "leader.profile_copies"), 3u);
  }
  obs::MetricsRegistry::Disable();
}

}  // namespace
}  // namespace qens::fl
