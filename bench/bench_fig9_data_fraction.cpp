// Reproduces Figure 9: percentage of data needed to build the model per
// query, with vs without the query-driven mechanism, for a stream of 20
// sequential queries.
//
// "With" = rows of supporting clusters on the selected nodes only.
// "Without" = all rows of all participants (always 100%).
// Expected shape: the query-driven bars are a small percentage of the
// full-data bars on every query.

#include <cstdio>

#include "bench_util.h"

using namespace qens;

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_fig9_data_fraction", &argc, argv);
  bench::PrintHeader(
      "Figure 9 — % of data needed per query, w/ vs w/o the query-driven "
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

  std::printf("\n%-7s %20s %20s %14s\n", "query", "query-driven data %",
              "full data %", "samples used");
  qens::stats::RunningStats fraction;
  size_t compared = 0, below = 0;
  for (size_t i = 0; i < ours_records.size(); ++i) {
    if (ours_records[i].skipped || full_records[i].skipped) {
      std::printf("%-7zu %20s %20s %14s\n", i, "skipped", "skipped", "-");
      continue;
    }
    const double ours_pct = 100.0 * ours_records[i].data_fraction_all;
    const double full_pct = 100.0 * full_records[i].data_fraction_all;
    std::printf("%-7zu %19.1f%% %19.1f%% %14zu\n", i, ours_pct, full_pct,
                ours_records[i].samples_used);
    fraction.Add(ours_records[i].data_fraction_all);
    ++compared;
    if (ours_pct < full_pct) ++below;
  }
  std::printf("\naverage query-driven data use: %.1f%% of all data "
              "(full-data baseline: 100%%)\n",
              100.0 * fraction.mean());
  std::printf("shape check: below the full-data bar on %zu/%zu queries "
              "(paper: all)\n",
              below, compared);
  bench::ShapeCheck("fig9: below the full-data bar on every query",
                    compared > 0 && below == compared);

  bench::BenchRecord record;
  record.name = "data_fraction";
  record.values["queries_compared"] = static_cast<double>(compared);
  record.values["avg_data_fraction"] = fraction.mean();
  record.values["below_full_bar"] = static_cast<double>(below);
  bjson.Add(std::move(record));
  bjson.WriteOrDie();
  return bench::ShapeCheckExitCode();
}
