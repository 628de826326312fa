// Extension bench X11: dynamic-fleet robustness (churn + drift + refresh).
//   (a) a static-fleet anchor (dynamic layer off) for the paper-exact
//       answer quality on this workload;
//   (b) churn fraction in {0%, 10%, 30%} x online cluster refresh
//       {off, on}, with on-device data drift always active: average answer
//       loss, departures/rejoins absorbed by the quorum-gated rounds, and
//       profile refreshes published. With drift shifting data away from
//       the published cluster summaries, refresh-off serves queries from a
//       stale leader view while refresh-on re-quantizes and republishes —
//       at high churn + drift the refreshed fleet must answer better.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "qens/common/string_util.h"

using namespace qens;

namespace {

constexpr size_t kRounds = 3;
constexpr size_t kQueries = 30;

fl::ExperimentConfig BaseConfig() {
  fl::ExperimentConfig config =
      bench::PaperConfig(data::Heterogeneity::kHeterogeneous);
  config.workload.num_queries = kQueries;
  return config;
}

fl::ExperimentConfig MakeConfig(double churn_rate, bool refresh) {
  fl::ExperimentConfig config = BaseConfig();
  auto& dyn = config.federation.dynamic;
  dyn.enabled = true;
  dyn.churn.seed = 11;
  dyn.churn.churn_rate = churn_rate;
  // Cover every executed round (kQueries x kRounds) so churn never freezes.
  dyn.churn.churn_horizon = kQueries * kRounds + 8;
  dyn.churn.min_down_rounds = 1;
  dyn.churn.max_down_rounds = 3;
  dyn.churn.min_up_rounds = 2;
  dyn.churn.max_up_rounds = 6;
  dyn.drift.seed = 17;
  dyn.drift.rate = 0.25;
  dyn.drift.feature_shift = 0.08;
  dyn.refresh = refresh;
  dyn.refresh_threshold = 0.02;
  return config;
}

struct SweepRow {
  stats::RunningStats loss;
  size_t queries_run = 0;
  size_t queries_skipped = 0;
  size_t nodes_left = 0;
  size_t nodes_joined = 0;
  size_t refreshes = 0;
  uint64_t final_epoch = 0;
};

SweepRow RunSweep(const fl::ExperimentConfig& config) {
  fl::ExperimentRunner runner =
      bench::ValueOrDie(fl::ExperimentRunner::Create(config), "build");
  SweepRow row;
  for (const auto& q : runner.queries()) {
    auto outcome = runner.session().RunQueryMultiRound(
        q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true,
        kRounds);
    bench::CheckOk(outcome.status(), "query");
    row.nodes_left += outcome->nodes_left;
    row.nodes_joined += outcome->nodes_joined;
    row.refreshes += outcome->fleet_refreshes;
    row.final_epoch = outcome->fleet_epoch;
    if (outcome->skipped) {
      ++row.queries_skipped;
      continue;
    }
    if (!std::isfinite(outcome->loss_weighted)) {
      ++row.queries_skipped;
      continue;
    }
    ++row.queries_run;
    row.loss.Add(outcome->loss_weighted);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_x11_churn_drift", &argc, argv);
  bench::PrintHeader("X11 — Dynamic-fleet robustness (churn + drift)");

  // (a) Static anchor: the same workload with the dynamic layer off.
  const SweepRow anchor = RunSweep(BaseConfig());
  std::printf("\n(a) static fleet (no churn, no drift), %zu rounds/query, "
              "%zu queries\n", kRounds, kQueries);
  std::printf("    avg loss %.3f (%zu run, %zu skipped)\n",
              anchor.loss.mean(), anchor.queries_run, anchor.queries_skipped);
  {
    bench::BenchRecord record;
    record.name = "static_fleet";
    record.labels["section"] = "baseline";
    record.values["avg_loss"] = anchor.loss.mean();
    record.values["queries_run"] = static_cast<double>(anchor.queries_run);
    record.values["queries_skipped"] =
        static_cast<double>(anchor.queries_skipped);
    bjson.Add(std::move(record));
  }

  // (b) Churn x refresh under always-on drift.
  std::printf("\n(b) churn x refresh, drift rate 0.25 shift 0.08/span\n");
  std::printf("%-10s %-8s %12s %10s %8s %8s %10s\n", "churn", "refresh",
              "avg loss", "vs static", "left", "joined", "refreshes");
  for (const bool refresh : {false, true}) {
    for (const double churn : {0.0, 0.1, 0.3}) {
      const SweepRow row = RunSweep(MakeConfig(churn, refresh));
      const double ratio =
          anchor.loss.mean() > 0.0 && row.queries_run > 0
              ? row.loss.mean() / anchor.loss.mean()
              : -1.0;
      const std::string churn_label = StrFormat("%.0f%%", 100.0 * churn);
      std::printf("%-10s %-8s %12.3f %10.3f %8zu %8zu %10zu\n",
                  churn_label.c_str(), refresh ? "on" : "off",
                  row.queries_run > 0 ? row.loss.mean() : -1.0, ratio,
                  row.nodes_left, row.nodes_joined, row.refreshes);

      bench::BenchRecord record;
      record.name = StrFormat("churn%.0f_refresh_%s", 100.0 * churn,
                              refresh ? "on" : "off");
      record.labels["section"] = "sweep";
      record.labels["refresh"] = refresh ? "on" : "off";
      record.values["churn_rate"] = churn;
      record.values["avg_loss"] =
          row.queries_run > 0 ? row.loss.mean() : -1.0;
      record.values["loss_vs_static"] = ratio;
      record.values["queries_run"] = static_cast<double>(row.queries_run);
      record.values["queries_skipped"] =
          static_cast<double>(row.queries_skipped);
      record.values["nodes_left"] = static_cast<double>(row.nodes_left);
      record.values["nodes_joined"] = static_cast<double>(row.nodes_joined);
      record.values["refreshes"] = static_cast<double>(row.refreshes);
      record.values["final_epoch"] = static_cast<double>(row.final_epoch);
      bjson.Add(std::move(record));
    }
  }
  std::printf("(drift shifts on-device data away from the published cluster "
              "summaries;\n refresh-off ranks and trains against the stale "
              "view, refresh-on republishes —\n the refresh-on rows should "
              "hold avg loss below their refresh-off twins)\n");
  bjson.WriteOrDie();
  return 0;
}
