// Reproduces Figure 8: required model-building time with vs without the
// query-driven mechanism, plotted per query for a stream of 20 sequential
// queries (the paper plots 20 for legibility).
//
// "With" = query-driven selection + supporting-cluster data selectivity.
// "Without" = training on the whole datasets of all participants.
// Expected shape: the query-driven line sits far below the full-data line
// on every query.

#include <cstdio>

#include "bench_util.h"

using namespace qens;

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_fig8_training_time", &argc, argv);
  bench::PrintHeader(
      "Figure 8 — model building time per query, w/ vs w/o the query-driven "
      "mechanism (20 sequential queries)");

  fl::ExperimentConfig config =
      bench::PaperConfig(data::Heterogeneity::kHeterogeneous);
  config.workload.num_queries = 20;
  fl::ExperimentRunner runner = bench::ValueOrDie(
      fl::ExperimentRunner::Create(config), "build experiment");

  const fl::Mechanism ours{"QueryDriven", selection::PolicyKind::kQueryDriven,
                           /*data_selectivity=*/true,
                           fl::AggregationKind::kWeightedAveraging};
  const fl::Mechanism full{"FullData", selection::PolicyKind::kAllNodes,
                           /*data_selectivity=*/false,
                           fl::AggregationKind::kModelAveraging};

  auto ours_records =
      bench::ValueOrDie(runner.RunPerQuery(ours), "run query-driven");
  auto full_records =
      bench::ValueOrDie(runner.RunPerQuery(full), "run full-data");

  std::printf("\n%-7s %22s %22s %12s\n", "query",
              "query-driven time (s)", "full-data time (s)", "speedup");
  double ours_total = 0, full_total = 0;
  size_t wins = 0, compared = 0;
  for (size_t i = 0; i < ours_records.size(); ++i) {
    if (ours_records[i].skipped || full_records[i].skipped) {
      std::printf("%-7zu %22s %22s %12s\n", i, "skipped", "skipped", "-");
      continue;
    }
    const double a = ours_records[i].sim_time;
    const double b = full_records[i].sim_time;
    std::printf("%-7zu %22.4f %22.4f %11.1fx\n", i, a, b, b / a);
    ours_total += a;
    full_total += b;
    ++compared;
    if (a < b) ++wins;
  }
  std::printf("\nTotals over %zu comparable queries: query-driven %.3fs vs "
              "full-data %.3fs (%.1fx faster overall)\n",
              compared, ours_total, full_total, full_total / ours_total);
  std::printf("shape check: query-driven faster on %zu/%zu queries (paper: "
              "all)\n",
              wins, compared);
  bench::ShapeCheck("fig8: query-driven faster on every comparable query",
                    compared > 0 && wins == compared);
  std::printf("(times from the deterministic cost model: samples x epochs / "
              "capacity + transfer; wall-clock shape matches)\n");

  bench::BenchRecord record;
  record.name = "training_time";
  record.values["queries_compared"] = static_cast<double>(compared);
  record.values["query_driven_sim_time"] = ours_total;
  record.values["full_data_sim_time"] = full_total;
  record.values["speedup"] = ours_total > 0 ? full_total / ours_total : 0.0;
  record.values["query_driven_wins"] = static_cast<double>(wins);
  bjson.Add(std::move(record));
  bjson.WriteOrDie();
  return bench::ShapeCheckExitCode();
}
