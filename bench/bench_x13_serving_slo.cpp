// X13: traffic-aware request pipeline under overload — the QueryServer
// replaying a 10k-request mixed-class workload through per-session
// admission queues (bounded capacity, per-class virtual deadlines and
// round budgets) on the deterministic virtual clock.
//
// The determinism contract is asserted BEFORE anything is timed: every
// per-request disposition (admitted / rejected / shed), every virtual-time
// queueing delay and latency, and every executed query's outcomes must be
// BITWISE identical at every worker count. Admission decisions run on
// sim::CostModel seconds, never the wall clock, so overload behavior is a
// pure function of the request stream. Only after the equality check
// passes are the same workloads re-run under the clock.
//
// Workload: 24 sessions x 420 requests (10080 requests) over a 6-station
// air-quality fleet; classes cycle interactive/standard/batch; arrivals
// every 20 virtual milliseconds — far faster than a federation query
// trains — so the queue saturates and the per-class deadlines, budgets,
// and the capacity bound decide every request's fate.
//
// Sections:
//   equality   — per-worker-count bitwise comparison against sequential.
//   slo        — per-class served/rejected/shed counts and virtual-time
//                latency percentiles (p50/p95/p99) from the sequential
//                reference (deterministic, identical at every worker
//                count by the equality section).
//   throughput — timed serve per worker count; speedup vs sequential.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "qens/common/stopwatch.h"
#include "qens/fl/query_server.h"

namespace qens::bench {
namespace {

constexpr size_t kSessions = 24;
constexpr size_t kRequestsPerSession = 420;

fl::ExperimentConfig ServingConfig() {
  fl::ExperimentConfig config =
      PaperConfig(data::Heterogeneity::kHeterogeneous);
  // Overload is about queueing, not model quality: a small fleet and short
  // training keep per-query cost low so 10k requests replay quickly.
  config.data.num_stations = 6;
  config.data.samples_per_station = 300;
  config.federation.hyper.epochs = 20;
  config.federation.epochs_per_cluster = 8;
  config.workload.num_queries = 48;
  return config;
}

fl::ServingOptions PipelineOptions(size_t workers) {
  fl::ServingOptions options;
  options.num_workers = workers;
  fl::AdmissionOptions& adm = options.admission_options;
  adm.queue_capacity = 24;
  adm.interactive_deadline_s = 0.1;
  adm.standard_deadline_s = 0.2;
  adm.batch_deadline_s = 0.35;
  adm.interactive_round_budget = 24;
  adm.standard_round_budget = 18;
  adm.batch_round_budget = 12;
  return options;
}

std::vector<fl::SessionSpec> MakeSpecs(
    const std::vector<query::RangeQuery>& pool) {
  constexpr fl::QueryClass kPattern[] = {fl::QueryClass::kInteractive,
                                         fl::QueryClass::kStandard,
                                         fl::QueryClass::kBatch};
  std::vector<fl::SessionSpec> specs;
  size_t next = 0;
  for (size_t s = 0; s < kSessions; ++s) {
    fl::SessionSpec spec;
    spec.rounds = 1;
    for (size_t q = 0; q < kRequestsPerSession; ++q) {
      fl::QueryRequest request;
      request.query = pool[next % pool.size()];
      request.query_class = kPattern[next % 3];
      request.arrival_s = 0.02 * static_cast<double>(q);
      spec.requests.push_back(std::move(request));
      ++next;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Bitwise comparison of two serve results; aborts the bench on
/// the first divergence (a broken determinism contract invalidates every
/// timing and every SLO number).
void CheckIdentical(const std::vector<fl::SessionResult>& a,
                    const std::vector<fl::SessionResult>& b, size_t workers) {
  auto die = [&](const char* what, size_t session) {
    std::fprintf(stderr,
                 "FATAL: workers=%zu diverges from sequential at session "
                 "%zu: %s\n",
                 workers, session, what);
    std::exit(1);
  };
  if (a.size() != b.size()) die("session count", 0);
  for (size_t s = 0; s < a.size(); ++s) {
    const fl::SessionResult& x = a[s];
    const fl::SessionResult& y = b[s];
    if (x.session_id != y.session_id) die("session_id", s);
    if (x.queries_run != y.queries_run) die("queries_run", s);
    if (x.queries_skipped != y.queries_skipped) die("queries_skipped", s);
    if (x.queries_shed != y.queries_shed) die("queries_shed", s);
    if (x.queries_rejected != y.queries_rejected) die("queries_rejected", s);
    if (x.comm_messages != y.comm_messages) die("comm_messages", s);
    if (x.comm_bytes != y.comm_bytes) die("comm_bytes", s);
    if (x.comm_seconds != y.comm_seconds) die("comm_seconds", s);
    if (x.requests.size() != y.requests.size()) die("request count", s);
    for (size_t r = 0; r < x.requests.size(); ++r) {
      const fl::RequestOutcome& rx = x.requests[r];
      const fl::RequestOutcome& ry = y.requests[r];
      if (rx.query_class != ry.query_class) die("query_class", s);
      if (rx.admission != ry.admission) die("admission", s);
      if (rx.processed != ry.processed) die("processed", s);
      if (rx.outcome_index != ry.outcome_index) die("outcome_index", s);
      // Bitwise, not approximate: virtual time is deterministic.
      if (rx.vt_start_s != ry.vt_start_s) die("vt_start_s", s);
      if (rx.vt_complete_s != ry.vt_complete_s) die("vt_complete_s", s);
      if (rx.vt_queue_s != ry.vt_queue_s) die("vt_queue_s", s);
      if (rx.vt_latency_s != ry.vt_latency_s) die("vt_latency_s", s);
      if (rx.deadline_missed != ry.deadline_missed) die("deadline_missed", s);
    }
    if (x.outcomes.size() != y.outcomes.size()) die("outcome count", s);
    for (size_t q = 0; q < x.outcomes.size(); ++q) {
      const fl::QueryOutcome& ox = x.outcomes[q];
      const fl::QueryOutcome& oy = y.outcomes[q];
      if (ox.skipped != oy.skipped) die("skipped", s);
      if (ox.selected_nodes != oy.selected_nodes) die("selected_nodes", s);
      if (ox.samples_used != oy.samples_used) die("samples_used", s);
      if (ox.skipped) continue;
      if (ox.loss_model_avg != oy.loss_model_avg) die("loss_model_avg", s);
      if (ox.loss_weighted != oy.loss_weighted) die("loss_weighted", s);
      if (ox.loss_fedavg != oy.loss_fedavg) die("loss_fedavg", s);
      if (ox.sim_time_total != oy.sim_time_total) die("sim_time_total", s);
      if (ox.sim_time_parallel != oy.sim_time_parallel) {
        die("sim_time_parallel", s);
      }
      if (ox.sim_time_comm != oy.sim_time_comm) die("sim_time_comm", s);
    }
  }
}

}  // namespace
}  // namespace qens::bench

int main(int argc, char** argv) {
  using namespace qens;
  using namespace qens::bench;

  BenchJson json("bench_x13_serving_slo", &argc, argv);
  PrintHeader(
      "X13: serving SLO pipeline (24 sessions x 420 requests, admission + "
      "deadline classes)");

  fl::ExperimentRunner runner = ValueOrDie(
      fl::ExperimentRunner::Create(ServingConfig()), "build experiment");
  std::shared_ptr<const fl::Fleet> fleet = runner.fleet();
  const std::vector<fl::SessionSpec> specs = MakeSpecs(runner.queries());
  size_t total_requests = 0;
  for (const auto& spec : specs) total_requests += spec.requests.size();

  const bool degraded = json.MarkThroughputSensitive();
  const size_t hw = HardwareThreads();
  const std::vector<size_t> worker_counts = {2, 4};
  std::printf("hardware threads: %zu%s\n", hw,
              degraded ? " (single core: expect speedup ~1.0; the equality "
                         "contract is still asserted)"
                       : "");

  // Phase 1: the determinism contract, asserted before any timing.
  fl::QueryServer sequential = ValueOrDie(
      fl::QueryServer::Create(fleet, PipelineOptions(0)), "build server");
  const std::vector<fl::SessionResult> reference = sequential.Serve(specs);
  const fl::ServingTelemetry telemetry = fl::SummarizeServing(reference);
  std::printf(
      "sequential reference: %zu sessions, %zu requests (%zu executed, "
      "%zu rejected, %zu shed)\n",
      reference.size(), total_requests, telemetry.total.executed,
      telemetry.total.rejected, telemetry.total.shed);
  for (size_t workers : worker_counts) {
    fl::QueryServer server = ValueOrDie(
        fl::QueryServer::Create(fleet, PipelineOptions(workers)),
        "build server");
    CheckIdentical(reference, server.Serve(specs), workers);
    std::printf("workers=%zu: bitwise identical to sequential\n", workers);
    BenchRecord record;
    record.name = "equality_w" + std::to_string(workers);
    record.labels["section"] = "equality";
    record.labels["workers"] = std::to_string(workers);
    record.values["requests"] = static_cast<double>(total_requests);
    record.values["identical"] = 1.0;
    json.Add(std::move(record));
  }

  // Per-class SLO telemetry from the (deterministic) sequential reference.
  std::printf("\n%-12s %9s %9s %9s %9s %7s %9s %9s %9s\n", "class",
              "requests", "executed", "rejected", "shed", "missed",
              "vt_p50_s", "vt_p95_s", "vt_p99_s");
  auto slo_record = [&json](const char* name, const fl::QueryClassStats& s) {
    std::printf("%-12s %9zu %9zu %9zu %9zu %7zu %9.4f %9.4f %9.4f\n", name,
                s.requests, s.executed, s.rejected, s.shed, s.deadline_missed,
                s.virtual_latency.p50, s.virtual_latency.p95,
                s.virtual_latency.p99);
    BenchRecord record;
    record.name = std::string("slo_") + name;
    record.labels["section"] = "slo";
    record.labels["class"] = name;
    record.values["requests"] = static_cast<double>(s.requests);
    record.values["executed"] = static_cast<double>(s.executed);
    record.values["rejected"] = static_cast<double>(s.rejected);
    record.values["shed"] = static_cast<double>(s.shed);
    record.values["deadline_missed"] = static_cast<double>(s.deadline_missed);
    record.values["vt_p50_s"] = s.virtual_latency.p50;
    record.values["vt_p95_s"] = s.virtual_latency.p95;
    record.values["vt_p99_s"] = s.virtual_latency.p99;
    json.Add(std::move(record));
  };
  for (size_t cls = 0; cls < fl::kNumQueryClasses; ++cls) {
    slo_record(fl::QueryClassName(static_cast<fl::QueryClass>(cls)),
               telemetry.per_class[cls]);
  }
  slo_record("total", telemetry.total);

  // Phase 2: timing. The equality runs above double as warmup.
  auto timed_serve = [&](size_t workers) {
    fl::QueryServer server = ValueOrDie(
        fl::QueryServer::Create(fleet, PipelineOptions(workers)),
        "build server");
    Stopwatch watch;
    auto results = server.Serve(specs);
    const double seconds = watch.ElapsedSeconds();
    CheckIdentical(reference, results, workers);
    return seconds;
  };

  const double seq_seconds = timed_serve(0);
  std::printf("\n%-12s %12s %10s\n", "workers", "wall_s", "speedup");
  std::printf("%-12s %12.4f %10.2f\n", "sequential", seq_seconds, 1.0);
  {
    BenchRecord record;
    record.name = "serve_sequential";
    record.labels["section"] = "throughput";
    record.labels["workers"] = "0";
    record.values["requests"] = static_cast<double>(total_requests);
    record.values["wall_seconds"] = seq_seconds;
    record.values["speedup"] = 1.0;
    record.values["hw_threads"] = static_cast<double>(hw);
    json.Add(std::move(record));
  }
  for (size_t workers : worker_counts) {
    const double seconds = timed_serve(workers);
    const double speedup = seconds > 0 ? seq_seconds / seconds : 0.0;
    std::printf("%-12zu %12.4f %10.2f\n", workers, seconds, speedup);
    BenchRecord record;
    record.name = "serve_w" + std::to_string(workers);
    record.labels["section"] = "throughput";
    record.labels["workers"] = std::to_string(workers);
    record.values["requests"] = static_cast<double>(total_requests);
    record.values["wall_seconds"] = seconds;
    record.values["speedup"] = speedup;
    record.values["hw_threads"] = static_cast<double>(hw);
    json.Add(std::move(record));
  }

  json.WriteOrDie();
  return 0;
}
