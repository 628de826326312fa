// X8: concurrent query-serving throughput — the QueryServer scheduling
// independent QuerySessions over one shared fleet, sequential vs pooled
// worker counts.
//
// The determinism contract is asserted BEFORE anything is timed: every
// session's outcomes (selections, losses, simulated times, traffic
// counters) must be BITWISE identical at every worker count. Only after
// that equality check passes are the same workloads re-run under the
// clock, so the speedups below are pure scheduling wins, never a change
// of results.
//
// Workload: 8 sessions x 5 queries (40 query executions) over an
// 8-station air-quality fleet, paper-style LR training.
//
// Sections:
//   equality   — per-worker-count bitwise comparison against sequential.
//   throughput — timed serve per worker count; speedup vs sequential.
//
// Sessions share no mutable state, so the wall-clock speedup scales with
// hardware threads; on a single-core host it degenerates to ~1.0 (records
// carry hw_threads so results are interpretable) while the equality
// section still exercises the full concurrent path.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "qens/common/stopwatch.h"
#include "qens/fl/query_server.h"

namespace qens::bench {
namespace {

fl::ExperimentConfig ServingConfig() {
  fl::ExperimentConfig config =
      PaperConfig(data::Heterogeneity::kHeterogeneous);
  config.data.num_stations = 8;
  config.workload.num_queries = 40;
  return config;
}

std::vector<fl::SessionSpec> MakeSpecs(
    const std::vector<query::RangeQuery>& pool) {
  constexpr size_t kSessions = 8;
  constexpr size_t kQueriesPerSession = 5;
  std::vector<fl::SessionSpec> specs;
  size_t next = 0;
  for (size_t s = 0; s < kSessions; ++s) {
    fl::SessionSpec spec;
    for (size_t q = 0; q < kQueriesPerSession; ++q) {
      spec.requests.push_back({pool[next++ % pool.size()]});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Bitwise comparison of two serve results; aborts the bench on the first
/// divergence (a broken determinism contract invalidates every timing).
void CheckIdentical(const std::vector<fl::SessionResult>& a,
                    const std::vector<fl::SessionResult>& b,
                    size_t workers) {
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
    if (x.comm_messages != y.comm_messages) die("comm_messages", s);
    if (x.comm_bytes != y.comm_bytes) die("comm_bytes", s);
    if (x.comm_seconds != y.comm_seconds) die("comm_seconds", s);
    if (x.outcomes.size() != y.outcomes.size()) die("outcome count", s);
    for (size_t q = 0; q < x.outcomes.size(); ++q) {
      const fl::QueryOutcome& ox = x.outcomes[q];
      const fl::QueryOutcome& oy = y.outcomes[q];
      if (ox.skipped != oy.skipped) die("skipped", s);
      if (ox.selected_nodes != oy.selected_nodes) die("selected_nodes", s);
      if (ox.samples_used != oy.samples_used) die("samples_used", s);
      if (ox.skipped) continue;
      // Bitwise, not approximate: the contract is exact.
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

  BenchJson json("bench_x8_query_throughput", &argc, argv);
  PrintHeader(
      "X8: concurrent query serving (8 sessions x 5 queries, shared fleet)");

  fl::ExperimentRunner runner =
      ValueOrDie(fl::ExperimentRunner::Create(ServingConfig()),
                 "build experiment");
  std::shared_ptr<const fl::Fleet> fleet = runner.fleet();
  const std::vector<fl::SessionSpec> specs = MakeSpecs(runner.queries());
  size_t total_queries = 0;
  for (const auto& spec : specs) total_queries += spec.requests.size();

  const bool degraded = json.MarkThroughputSensitive();
  const size_t hw = HardwareThreads();
  std::vector<size_t> worker_counts = {2, 4};
  if (hw > 4) worker_counts.push_back(hw);
  std::printf("hardware threads: %zu%s\n", hw,
              degraded ? " (single core: expect speedup ~1.0; the equality "
                         "contract is still asserted)"
                       : "");

  // Phase 1: the determinism contract, asserted before any timing.
  fl::QueryServer sequential = ValueOrDie(
      fl::QueryServer::Create(fleet, fl::ServingOptions{}), "build server");
  const std::vector<fl::SessionResult> reference = sequential.Serve(specs);
  size_t ran = 0;
  for (const auto& session : reference) ran += session.queries_run;
  std::printf("sequential reference: %zu sessions, %zu/%zu queries run\n",
              reference.size(), ran, total_queries);
  for (size_t workers : worker_counts) {
    fl::ServingOptions options;
    options.num_workers = workers;
    fl::QueryServer server =
        ValueOrDie(fl::QueryServer::Create(fleet, options), "build server");
    CheckIdentical(reference, server.Serve(specs), workers);
    std::printf("workers=%zu: bitwise identical to sequential\n", workers);
    BenchRecord record;
    record.name = "equality_w" + std::to_string(workers);
    record.labels["section"] = "equality";
    record.labels["workers"] = std::to_string(workers);
    record.values["queries"] = static_cast<double>(total_queries);
    record.values["identical"] = 1.0;
    json.Add(std::move(record));
  }

  // Phase 2: timing. The equality runs above double as warmup.
  auto timed_serve = [&](size_t workers) {
    fl::ServingOptions options;
    options.num_workers = workers;
    fl::QueryServer server =
        ValueOrDie(fl::QueryServer::Create(fleet, options), "build server");
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
    record.values["queries"] = static_cast<double>(total_queries);
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
    record.values["queries"] = static_cast<double>(total_queries);
    record.values["wall_seconds"] = seconds;
    record.values["speedup"] = speedup;
    record.values["hw_threads"] = static_cast<double>(hw);
    json.Add(std::move(record));
  }

  json.WriteOrDie();
  return 0;
}
