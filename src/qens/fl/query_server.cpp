#include "qens/fl/query_server.h"

#include <algorithm>
#include <utility>

#include "qens/common/split_rng.h"
#include "qens/common/stopwatch.h"
#include "qens/common/thread_pool.h"
#include "qens/obs/metrics.h"
#include "qens/obs/round_record.h"

namespace qens::fl {

Result<QueryServer> QueryServer::Create(std::shared_ptr<const Fleet> fleet,
                                        const ServingOptions& options) {
  if (fleet == nullptr) {
    return Status::InvalidArgument("query server: null fleet");
  }
  return QueryServer(std::move(fleet), options);
}

uint64_t QueryServer::SessionSeed(uint64_t base_seed, uint64_t session_id) {
  return SplitRng(base_seed)
      .Split(RngPurpose::kSessionSeed)
      .Split(session_id)
      .key();
}

SessionResult QueryServer::RunSession(const SessionSpec& spec,
                                      uint64_t session_id) const {
  SessionResult result;
  result.session_id = session_id;
  result.requests.resize(spec.requests.size());

  QuerySessionOptions session_options;
  session_options.session_id = session_id;
  session_options.seed =
      SessionSeed(options_.seed.value_or(fleet_->options.seed), session_id);
  session_options.network.record_messages = false;
  Result<QuerySession> session_or =
      QuerySession::Create(fleet_, session_options);
  if (!session_or.ok()) {
    result.status = session_or.status();
    return result;
  }
  QuerySession& session = session_or.value();

  // Arrival order: by virtual arrival time, ties by request index. A
  // stable, input-only order — the same at every worker count.
  std::vector<size_t> order(spec.requests.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&spec](size_t a, size_t b) {
    return spec.requests[a].arrival_s < spec.requests[b].arrival_s;
  });

  AdmissionQueue queue(options_.admission_options);
  Stopwatch watch;
  // The virtual clock. Admission, scheduling, and shedding all read this —
  // never the wall clock — so the replay is deterministic.
  double vt = 0.0;
  size_t next_arrival = 0;
  std::vector<PendingRequest> shed;
  auto record_shed = [&result](const std::vector<PendingRequest>& entries) {
    for (const PendingRequest& entry : entries) {
      RequestOutcome& ro = result.requests[entry.index];
      ro.admission = AdmissionOutcome::kShedOnDeadline;
      ro.processed = true;
      ++result.queries_shed;
    }
  };

  while (next_arrival < order.size() || !queue.empty()) {
    // Admit everything that has arrived by now.
    while (next_arrival < order.size() &&
           spec.requests[order[next_arrival]].arrival_s <= vt) {
      const size_t index = order[next_arrival];
      const QueryRequest& request = spec.requests[index];
      RequestOutcome& ro = result.requests[index];
      ro.query_class = request.query_class;
      ro.vt_arrival_s = request.arrival_s;
      ro.admission = queue.Offer(request, index, spec.rounds);
      if (ro.admission == AdmissionOutcome::kRejected) {
        ro.processed = true;
        ++result.queries_rejected;
      }
      ++next_arrival;
    }
    shed.clear();
    std::optional<PendingRequest> pick = queue.Pop(vt, &shed);
    record_shed(shed);
    if (!pick.has_value()) {
      if (next_arrival < order.size()) {
        // Idle: jump the clock to the next arrival.
        const double arrival = spec.requests[order[next_arrival]].arrival_s;
        if (arrival > vt) vt = arrival;
        continue;
      }
      break;
    }

    const size_t index = pick->index;
    const QueryRequest& request = spec.requests[index];
    RequestOutcome& ro = result.requests[index];
    ro.vt_start_s = vt;
    ro.vt_queue_s = vt - request.arrival_s;
    Stopwatch query_watch;
    Result<QueryOutcome> outcome_or = session.RunQueryMultiRound(
        request.query, spec.policy, spec.data_selectivity, spec.rounds);
    ro.wall_seconds = query_watch.ElapsedSeconds();
    if (!outcome_or.ok()) {
      // The stream stops at the failing query; everything already run is
      // kept, and requests not yet disposed of keep processed == false.
      result.status = outcome_or.status();
      break;
    }
    QueryOutcome& outcome = outcome_or.value();
    // Advance the clock by the query's leader-side critical path: the
    // per-round max over engaged nodes of download + train + upload, in
    // sim::CostModel seconds (0 for policy-skipped queries).
    vt += outcome.sim_time_parallel;
    ro.processed = true;
    ro.vt_complete_s = vt;
    ro.vt_latency_s = vt - request.arrival_s;
    const double deadline =
        options_.admission_options.DeadlineFor(request.query_class);
    ro.deadline_missed = deadline > 0.0 && ro.vt_latency_s > deadline;
    if (outcome.skipped) {
      ++result.queries_skipped;
    } else {
      ++result.queries_run;
    }
    // Surface the request's virtual-time telemetry on the query's first
    // round record (ranking/admission happen once, before round 0).
    if (!outcome.round_records.empty()) {
      obs::RoundRecord& first = outcome.round_records.front();
      first.query_class = QueryClassName(request.query_class);
      first.vt_queue_seconds = ro.vt_queue_s;
      first.vt_latency_seconds = ro.vt_latency_s;
    }
    ro.outcome_index = result.outcomes.size();
    result.outcomes.push_back(std::move(outcome));
  }

  result.comm_messages = session.network().total_messages();
  result.comm_bytes = session.network().total_bytes();
  result.comm_seconds = session.network().total_transfer_seconds();
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

std::vector<SessionResult> QueryServer::Serve(
    const std::vector<SessionSpec>& specs) {
  const size_t count = specs.size();
  std::vector<SessionResult> results(count);
  auto run = [this, &specs, &results](size_t i) {
    results[i] = RunSession(specs[i], /*session_id=*/i + 1);
  };
  if (options_.num_workers <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) run(i);
  } else {
    // Sessions are claimed dynamically, so a queue of mixed-size sessions
    // does not serialize behind a fixed partition. Each result lands in its
    // own slot and the slots are returned in session order; every session's
    // stream is a pure function of (base seed, session id), so outcomes are
    // bit-identical to sequential serving. A session failure stays inside
    // its own SessionResult::status — the other sessions run regardless.
    // The calling thread serves sessions too, hence one pool worker fewer.
    common::ThreadPool pool(std::min(options_.num_workers, count) - 1);
    pool.ParallelUnits(count, run);
  }
  if (obs::MetricsRegistry::Enabled()) {
    // Observed after the pool joins, in session order and then execution
    // order: the histogram's floating-point sum depends on the order of
    // its observations, so this keeps it equal at every worker count.
    std::vector<double> latencies;
    for (const SessionResult& session : results) {
      latencies.assign(session.outcomes.size(), 0.0);
      for (const RequestOutcome& request : session.requests) {
        if (request.executed()) {
          latencies[request.outcome_index] = request.vt_latency_s;
        }
      }
      for (double latency : latencies) {
        obs::Observe("serving.vt_latency_seconds", latency);
      }
    }
  }
  return results;
}

ServingTelemetry SummarizeServing(const std::vector<SessionResult>& results) {
  ServingTelemetry telemetry;
  std::vector<double> virtual_samples[kNumQueryClasses];
  std::vector<double> wall_samples[kNumQueryClasses];
  for (const SessionResult& session : results) {
    for (const RequestOutcome& request : session.requests) {
      const size_t cls = static_cast<size_t>(request.query_class);
      QueryClassStats& stats = telemetry.per_class[cls];
      ++stats.requests;
      if (!request.processed) continue;
      switch (request.admission) {
        case AdmissionOutcome::kAdmitted:
          ++stats.executed;
          if (request.deadline_missed) ++stats.deadline_missed;
          virtual_samples[cls].push_back(request.vt_latency_s);
          wall_samples[cls].push_back(request.wall_seconds);
          break;
        case AdmissionOutcome::kRejected:
          ++stats.rejected;
          break;
        case AdmissionOutcome::kShedOnDeadline:
          ++stats.shed;
          break;
      }
    }
  }
  std::vector<double> all_virtual, all_wall;
  for (size_t cls = 0; cls < kNumQueryClasses; ++cls) {
    QueryClassStats& stats = telemetry.per_class[cls];
    all_virtual.insert(all_virtual.end(), virtual_samples[cls].begin(),
                       virtual_samples[cls].end());
    all_wall.insert(all_wall.end(), wall_samples[cls].begin(),
                    wall_samples[cls].end());
    telemetry.total.requests += stats.requests;
    telemetry.total.executed += stats.executed;
    telemetry.total.rejected += stats.rejected;
    telemetry.total.shed += stats.shed;
    telemetry.total.deadline_missed += stats.deadline_missed;
    stats.virtual_latency = obs::SummarizeLatencies(
        std::move(virtual_samples[cls]));
    stats.wall_latency = obs::SummarizeLatencies(std::move(wall_samples[cls]));
  }
  telemetry.total.virtual_latency =
      obs::SummarizeLatencies(std::move(all_virtual));
  telemetry.total.wall_latency = obs::SummarizeLatencies(std::move(all_wall));
  return telemetry;
}

}  // namespace qens::fl
