// Extension bench X5: fault tolerance of the federated loop.
//   (a) dropout sweep — QENS vs Random under node dropout in {0%, 10%,
//       30%} with a 50% quorum: per-round survivor counts, degraded
//       rounds, and answer quality;
//   (b) the full fault cocktail — crashes + stragglers (with a round
//       deadline) + lossy links, showing retries and deadline cuts;
//   (c) reliability-aware ranking — with crashing nodes, penalizing flaky
//       nodes in the ranking reduces wasted engagements.

#include <cstdio>

#include "bench_util.h"
#include "qens/common/string_util.h"

using namespace qens;

namespace {

constexpr size_t kRounds = 3;
constexpr size_t kQueries = 40;

fl::ExperimentConfig BaseConfig() {
  fl::ExperimentConfig config =
      bench::PaperConfig(data::Heterogeneity::kHeterogeneous);
  config.workload.num_queries = kQueries;
  return config;
}

struct SweepRow {
  stats::RunningStats loss;
  stats::RunningStats survivors[kRounds];
  size_t degraded = 0;
  size_t queries_run = 0;
  size_t messages_lost = 0;
};

SweepRow RunSweep(fl::ExperimentConfig config, selection::PolicyKind policy,
                  bool selectivity) {
  fl::ExperimentRunner runner =
      bench::ValueOrDie(fl::ExperimentRunner::Create(config), "build");
  SweepRow row;
  for (const auto& q : runner.queries()) {
    auto outcome = runner.session().RunQueryMultiRound(
        q, policy, selectivity, kRounds);
    bench::CheckOk(outcome.status(), "query");
    if (outcome->skipped) continue;
    ++row.queries_run;
    row.loss.Add(outcome->loss_weighted);
    row.degraded += outcome->degraded_rounds;
    row.messages_lost += outcome->messages_lost;
    for (size_t r = 0; r < outcome->round_survivors.size() && r < kRounds;
         ++r) {
      row.survivors[r].Add(static_cast<double>(outcome->round_survivors[r]));
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_x5_fault_tolerance", &argc, argv);
  bench::PrintHeader("X5 — fault injection & straggler simulation");

  // (a) Dropout sweep, QENS vs Random, quorum 50%.
  std::printf("\n(a) dropout sweep, %zu rounds/query, quorum 50%%, %zu "
              "queries\n", kRounds, kQueries);
  std::printf("%-8s %-10s %10s %8s %22s %10s\n", "dropout", "policy",
              "avg loss", "run", "avg survivors r0/r1/r2", "degraded");
  for (double rate : {0.0, 0.1, 0.3}) {
    for (bool qens : {true, false}) {
      fl::ExperimentConfig config = BaseConfig();
      config.federation.fault_tolerance.enabled = true;
      config.federation.fault_tolerance.faults.seed = 91;
      config.federation.fault_tolerance.faults.dropout_rate = rate;
      config.federation.fault_tolerance.min_quorum_frac = 0.5;
      const SweepRow row = RunSweep(
          config,
          qens ? selection::PolicyKind::kQueryDriven
               : selection::PolicyKind::kRandom,
          /*selectivity=*/qens);
      char label[16];
      std::snprintf(label, sizeof(label), "%.0f%%", 100.0 * rate);
      std::printf("%-8s %-10s %10.2f %5zu/%-2zu %8.1f/%.1f/%.1f %13zu\n",
                  label, qens ? "QENS" : "Random", row.loss.mean(),
                  row.queries_run, kQueries, row.survivors[0].mean(),
                  row.survivors[1].mean(), row.survivors[2].mean(),
                  row.degraded);

      bench::BenchRecord record;
      record.name = StrFormat("dropout_%.1f_%s", rate,
                              qens ? "qens" : "random");
      record.labels["section"] = "dropout_sweep";
      record.labels["policy"] = qens ? "QENS" : "Random";
      record.values["dropout_rate"] = rate;
      record.values["avg_loss"] = row.loss.mean();
      record.values["queries_run"] = static_cast<double>(row.queries_run);
      record.values["degraded_rounds"] = static_cast<double>(row.degraded);
      record.values["messages_lost"] = static_cast<double>(row.messages_lost);
      for (size_t r = 0; r < kRounds; ++r) {
        record.values[StrFormat("avg_survivors_r%zu", r)] =
            row.survivors[r].mean();
      }
      bjson.Add(std::move(record));
    }
  }
  std::printf("(every query completes: below-quorum rounds keep the previous "
              "global model instead of failing)\n");

  // (b) The full fault cocktail.
  std::printf("\n(b) crash 20%% + straggler 30%% (4x, deadline) + link loss "
              "10%%\n");
  {
    fl::ExperimentConfig config = BaseConfig();
    auto& ft = config.federation.fault_tolerance;
    ft.enabled = true;
    ft.faults.seed = 92;
    ft.faults.crash_rate = 0.2;
    ft.faults.crash_horizon = kQueries * kRounds;
    ft.faults.straggler_rate = 0.3;
    ft.faults.straggler_slowdown_min = 4.0;
    ft.faults.straggler_slowdown_max = 4.0;
    ft.faults.message_loss_rate = 0.1;
    ft.min_quorum_frac = 0.5;

    // Calibrate the deadline off one fault-free run: generous enough for
    // healthy nodes, tight enough to cut 4x stragglers.
    fl::ExperimentConfig probe_config = BaseConfig();
    probe_config.federation.fault_tolerance.enabled = true;
    fl::ExperimentRunner probe = bench::ValueOrDie(
        fl::ExperimentRunner::Create(probe_config), "probe build");
    stats::RunningStats probe_round;
    for (const auto& q : probe.queries()) {
      auto outcome = probe.session().RunQuery(
          q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true);
      bench::CheckOk(outcome.status(), "probe query");
      if (!outcome->skipped) probe_round.Add(outcome->sim_time_parallel);
    }
    ft.round_deadline_s = 2.0 * probe_round.mean();
    std::printf("round deadline: %.4fs (2x the fault-free mean round)\n",
                ft.round_deadline_s);

    fl::ExperimentRunner runner =
        bench::ValueOrDie(fl::ExperimentRunner::Create(config), "build");
    stats::RunningStats loss, survivors;
    size_t run = 0, degraded = 0, lost = 0, retries = 0, failed = 0,
           deadline_cut = 0;
    for (const auto& q : runner.queries()) {
      auto outcome = runner.session().RunQueryMultiRound(
          q, selection::PolicyKind::kQueryDriven, true, kRounds);
      bench::CheckOk(outcome.status(), "cocktail query");
      if (outcome->skipped) continue;
      ++run;
      loss.Add(outcome->loss_weighted);
      degraded += outcome->degraded_rounds;
      lost += outcome->messages_lost;
      retries += outcome->send_retries;
      failed += outcome->failed_nodes.size();
      deadline_cut += outcome->deadline_missed_nodes.size();
      for (size_t s : outcome->round_survivors) {
        survivors.Add(static_cast<double>(s));
      }
    }
    std::printf("queries run            %zu/%zu\n", run, kQueries);
    std::printf("avg loss (Eq. 7)       %.2f\n", loss.mean());
    std::printf("avg survivors/round    %.2f\n", survivors.mean());
    std::printf("degraded rounds        %zu\n", degraded);
    std::printf("failed engagements     %zu\n", failed);
    std::printf("deadline cuts          %zu\n", deadline_cut);
    std::printf("messages lost/retried  %zu/%zu\n", lost, retries);

    bench::BenchRecord record;
    record.name = "fault_cocktail";
    record.labels["section"] = "cocktail";
    record.values["queries_run"] = static_cast<double>(run);
    record.values["avg_loss"] = loss.mean();
    record.values["avg_survivors"] = survivors.mean();
    record.values["degraded_rounds"] = static_cast<double>(degraded);
    record.values["failed_engagements"] = static_cast<double>(failed);
    record.values["deadline_cuts"] = static_cast<double>(deadline_cut);
    record.values["messages_lost"] = static_cast<double>(lost);
    record.values["send_retries"] = static_cast<double>(retries);
    bjson.Add(std::move(record));
  }

  // (c) Reliability-aware ranking under crashes.
  std::printf("\n(c) reliability-aware ranking: crash 30%%, reliability "
              "weight 0 vs 2\n");
  std::printf("%-18s %10s %8s %18s\n", "ranking", "avg loss", "run",
              "failed engagements");
  for (double weight : {0.0, 2.0}) {
    fl::ExperimentConfig config = BaseConfig();
    config.federation.ranking.reliability_weight = weight;
    auto& ft = config.federation.fault_tolerance;
    ft.enabled = true;
    ft.faults.seed = 93;
    ft.faults.crash_rate = 0.3;
    ft.faults.crash_horizon = kQueries;  // Crashes spread over the workload.
    ft.min_quorum_frac = 0.25;
    fl::ExperimentRunner runner =
        bench::ValueOrDie(fl::ExperimentRunner::Create(config), "build");
    stats::RunningStats loss;
    size_t run = 0, failed = 0;
    for (const auto& q : runner.queries()) {
      auto outcome = runner.session().RunQuery(
          q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true);
      bench::CheckOk(outcome.status(), "reliability query");
      failed += outcome->failed_nodes.size();
      if (outcome->skipped) continue;
      ++run;
      loss.Add(outcome->loss_weighted);
    }
    std::printf("%-18s %10.2f %5zu/%-2zu %18zu\n",
                weight > 0 ? "penalized (w=2)" : "paper-exact (w=0)",
                loss.mean(), run, kQueries, failed);

    bench::BenchRecord record;
    record.name = StrFormat("reliability_w%.0f", weight);
    record.labels["section"] = "reliability_ranking";
    record.values["reliability_weight"] = weight;
    record.values["avg_loss"] = loss.mean();
    record.values["queries_run"] = static_cast<double>(run);
    record.values["failed_engagements"] = static_cast<double>(failed);
    bjson.Add(std::move(record));
  }
  std::printf("(with the penalty the leader learns to route around crashed "
              "nodes, cutting wasted engagements)\n");
  bjson.WriteOrDie();
  return 0;
}
