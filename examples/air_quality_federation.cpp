// Full evaluation-scale example: the paper's Section V environment.
//
// Ten edge nodes hold multi-site air-quality data; a 200-query dynamic
// workload is issued; each query is executed under all four mechanisms the
// paper compares (GT, Random, Averaging = ours + Eq. 6, Weighted = ours +
// Eq. 7) and the Fig. 7-style summary table is printed.
//
// Usage:
//   air_quality_federation [num_stations] [num_queries] [lr|nn]
// Defaults: 10 stations, 60 queries, lr.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "qens/common/string_util.h"
#include "qens/fl/experiment.h"

using namespace qens;

namespace {

template <typename T>
T Die(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "error (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_stations = 10;
  size_t num_queries = 60;
  ml::ModelKind model = ml::ModelKind::kLinearRegression;
  if (argc > 1) num_stations = static_cast<size_t>(std::atoi(argv[1]));
  if (argc > 2) num_queries = static_cast<size_t>(std::atoi(argv[2]));
  if (argc > 3) model = Die(ml::ParseModelKind(argv[3]), "model kind");
  if (num_stations < 2 || num_queries == 0) {
    std::fprintf(stderr,
                 "usage: %s [num_stations>=2] [num_queries>0] [lr|nn]\n",
                 argv[0]);
    return 2;
  }

  fl::ExperimentConfig config;
  config.data.num_stations = num_stations;
  config.data.samples_per_station = 1200;
  config.data.heterogeneity = data::Heterogeneity::kHeterogeneous;
  config.data.single_feature = true;
  config.data.seed = 2023;

  config.federation.environment.kmeans.k = 5;
  config.federation.ranking.epsilon = 0.15;
  config.federation.query_driven.top_l = 3;
  config.federation.hyper = ml::PaperHyperParams(model);
  config.federation.hyper.epochs =
      model == ml::ModelKind::kLinearRegression ? 40 : 25;
  config.federation.epochs_per_cluster = 12;
  config.federation.random_l = 3;
  config.federation.seed = 7;

  config.workload.num_queries = num_queries;
  config.workload.seed = 99;

  std::printf(
      "environment: %zu stations x %zu samples, K = 5 clusters/node, "
      "%zu-query dynamic workload, model = %s\n",
      num_stations, config.data.samples_per_station, num_queries,
      ml::ModelKindName(model));

  fl::ExperimentRunner runner =
      Die(fl::ExperimentRunner::Create(config), "build experiment");

  std::printf("global data space: %s\n",
              runner.fleet()->raw_space.ToString().c_str());
  std::printf(
      "profile exchange: %zu messages, %zu bytes total (O(1) per node)\n\n",
      runner.fleet()->environment.network().total_messages(),
      runner.fleet()->environment.network().total_bytes());

  std::vector<fl::MechanismStats> rows;
  for (const fl::Mechanism& mechanism : fl::Figure7Mechanisms()) {
    std::printf("running mechanism %-10s ...\n", mechanism.label.c_str());
    rows.push_back(Die(runner.RunMechanism(mechanism), "run mechanism"));
  }

  std::printf("\n%s", fl::FormatMechanismTable(rows).c_str());
  std::printf(
      "\n(ours = Averaging/Weighted: query-driven selection + "
      "supporting-cluster data selectivity)\n");
  return 0;
}
