// Faulty federation: running queries on an unreliable edge deployment.
//
//   1. Six edge nodes with synthetic air-quality data.
//   2. A seeded fault schedule: crashes, per-round dropouts, stragglers,
//      and lossy links — all drawn from ONE seed, so any failure scenario
//      is reproducible by rerunning with the same number.
//   3. A per-round deadline with retry/backoff and a 50% quorum: slow or
//      silent nodes are excluded from the round, and a below-quorum round
//      falls back to the previous global model instead of failing.
//   4. The same schedule is replayed from the seed to show determinism.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/faulty_federation [seed]

#include <cstdio>
#include <cstdlib>

#include "qens/data/air_quality_generator.h"
#include "qens/fl/query_session.h"

using namespace qens;

namespace {

void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

Result<fl::QuerySession> BuildSession(uint64_t fault_seed) {
  data::AirQualityOptions data_options;
  data_options.num_stations = 6;
  data_options.samples_per_station = 800;
  data_options.heterogeneity = data::Heterogeneity::kHeterogeneous;
  data_options.single_feature = true;
  data::AirQualityGenerator generator(data_options);
  QENS_ASSIGN_OR_RETURN(std::vector<data::Dataset> nodes,
                        generator.GenerateAll());

  fl::FederationOptions options;
  options.environment.kmeans.k = 5;
  options.ranking.epsilon = 0.15;
  options.query_driven.top_l = 4;
  options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  options.hyper.epochs = 30;
  options.epochs_per_cluster = 10;

  // The fault layer: everything below is drawn from `fault_seed`.
  auto& ft = options.fault_tolerance;
  ft.enabled = true;
  ft.faults.seed = fault_seed;
  ft.faults.crash_rate = 0.25;      // A quarter of the fleet will die...
  ft.faults.crash_horizon = 12;     // ...somewhere in the first 12 rounds.
  ft.faults.dropout_rate = 0.15;    // Transient per-round outages.
  ft.faults.straggler_rate = 0.3;   // Persistent slow nodes (2-6x).
  ft.faults.straggler_slowdown_min = 2.0;
  ft.faults.straggler_slowdown_max = 6.0;
  ft.faults.message_loss_rate = 0.1;
  ft.max_send_attempts = 3;
  ft.retry_backoff_s = 0.005;
  ft.min_quorum_frac = 0.5;
  QENS_ASSIGN_OR_RETURN(std::shared_ptr<fl::Fleet> fleet,
                        fl::Fleet::Create(std::move(nodes), options));
  return fl::QuerySession::Create(std::move(fleet), fl::QuerySessionOptions{});
}

struct RunSummary {
  size_t run = 0;
  size_t degraded = 0;
  size_t lost = 0;
  double loss_sum = 0.0;
  std::vector<size_t> survivors;  ///< Flattened per-query, per-round.
};

RunSummary RunWorkload(fl::QuerySession* session, bool verbose) {
  RunSummary summary;
  for (int i = 0; i < 4; ++i) {
    query::RangeQuery q;
    q.id = static_cast<uint64_t>(i + 1);
    const auto& space = session->fleet().raw_space;
    const double lo = space.dim(0).lo, hi = space.dim(0).hi;
    const double width = (hi - lo) * 0.4;
    const double start = lo + (hi - lo) * 0.15 * static_cast<double>(i);
    q.region = query::HyperRectangle(std::vector<query::Interval>{
        query::Interval(start, std::min(hi, start + width))});

    Result<fl::QueryOutcome> outcome =
        session->RunQueryMultiRound(q, selection::PolicyKind::kQueryDriven,
                                    /*data_selectivity=*/true,
                                    /*rounds=*/3);
    Check(outcome.status());
    if (outcome->skipped) {
      if (verbose) std::printf("query %d: skipped (no data in region)\n", i + 1);
      continue;
    }
    ++summary.run;
    summary.degraded += outcome->degraded_rounds;
    summary.lost += outcome->messages_lost;
    summary.loss_sum += outcome->loss_weighted;
    for (size_t s : outcome->round_survivors) summary.survivors.push_back(s);
    if (!verbose) continue;

    std::printf("query %d: engaged %zu nodes, survivors per round [", i + 1,
                outcome->selected_nodes.size());
    for (size_t r = 0; r < outcome->round_survivors.size(); ++r) {
      std::printf("%s%zu", r ? " " : "", outcome->round_survivors[r]);
    }
    std::printf("], loss %.2f\n", outcome->loss_weighted);
    if (!outcome->failed_nodes.empty()) {
      std::printf("  failed:");
      for (size_t id : outcome->failed_nodes) std::printf(" node-%zu", id);
      std::printf("\n");
    }
    if (!outcome->deadline_missed_nodes.empty()) {
      std::printf("  deadline-cut:");
      for (size_t id : outcome->deadline_missed_nodes) {
        std::printf(" node-%zu", id);
      }
      std::printf("\n");
    }
    if (outcome->degraded_rounds > 0) {
      std::printf("  %zu round(s) below quorum -> kept previous model\n",
                  outcome->degraded_rounds);
    }
    if (outcome->messages_lost > 0) {
      std::printf("  %zu message(s) lost in flight (%zu retransmissions)\n",
                  outcome->messages_lost, outcome->send_retries);
    }
  }
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1337u;

  Result<fl::QuerySession> session = BuildSession(seed);
  Check(session.status());

  std::printf("=== fault schedule (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));
  std::printf("%s\n", session->fault_injector()->plan().Describe().c_str());

  std::printf("\n=== workload: 4 queries x 3 rounds, deadline+quorum ===\n");
  RunSummary first = RunWorkload(&*session, /*verbose=*/true);
  std::printf("\n%zu/4 queries answered, %zu degraded rounds, %zu messages "
              "lost\n", first.run, first.degraded, first.lost);

  // Reproduce the exact scenario from the seed alone.
  Result<fl::QuerySession> replay = BuildSession(seed);
  Check(replay.status());
  RunSummary second = RunWorkload(&*replay, /*verbose=*/false);
  const bool identical = first.run == second.run &&
                         first.degraded == second.degraded &&
                         first.lost == second.lost &&
                         first.loss_sum == second.loss_sum &&
                         first.survivors == second.survivors;
  std::printf("\n=== replay from seed %llu ===\n",
              static_cast<unsigned long long>(seed));
  std::printf("identical fault trace and losses: %s\n",
              identical ? "yes" : "NO (bug!)");
  return identical ? 0 : 1;
}
