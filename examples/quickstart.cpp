// Quickstart: the whole query-driven selection pipeline in ~80 lines.
//
//   1. Three edge nodes with private local datasets (synthetic air quality).
//   2. Each node quantizes its data (k-means, K = 5) and publishes only its
//      cluster boundaries.
//   3. An analytics query arrives as a TEMP range.
//   4. The leader ranks nodes by query/cluster overlap (Eqs. 2-4), selects
//      the top ones, and runs one federated round with data selectivity.
//   5. The aggregated answer is evaluated on held-out rows in the region.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

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

}  // namespace

int main() {
  // 1. Generate three heterogeneous stations (cold / mild / warm regions).
  data::AirQualityOptions data_options;
  data_options.num_stations = 3;
  data_options.samples_per_station = 1000;
  data_options.heterogeneity = data::Heterogeneity::kHeterogeneous;
  data_options.single_feature = true;
  data::AirQualityGenerator generator(data_options);
  Result<std::vector<data::Dataset>> nodes = generator.GenerateAll();
  Check(nodes.status());

  // 2. Build the fleet: quantization, profile exchange, train/test split
  //    and leader-coordinated normalization all happen here. A session is
  //    one query stream over it.
  fl::FederationOptions options;
  options.environment.kmeans.k = 5;
  options.ranking.epsilon = 0.15;
  options.query_driven.top_l = 2;
  options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  options.hyper.epochs = 40;
  options.epochs_per_cluster = 15;
  Result<std::shared_ptr<fl::Fleet>> fleet =
      fl::Fleet::Create(std::move(nodes).value(), options);
  Check(fleet.status());
  Result<fl::QuerySession> session =
      fl::QuerySession::Create(*fleet, fl::QuerySessionOptions{});
  Check(session.status());

  // 3. An analytics query: "learn PM2.5 over TEMP in [5, 20] deg C".
  query::RangeQuery q;
  q.id = 1;
  q.region = query::HyperRectangle(
      std::vector<query::Interval>{query::Interval(5.0, 20.0)});
  std::printf("query: %s over global data space %s\n",
              q.ToString().c_str(),
              (*fleet)->raw_space.ToString().c_str());

  // 4.+5. Rank, select, train, aggregate, evaluate.
  Result<fl::QueryOutcome> outcome = session->RunQuery(
      q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true);
  Check(outcome.status());
  if (outcome->skipped) {
    std::printf("query skipped: no data in the requested region\n");
    return 0;
  }

  std::printf("selected nodes:");
  for (size_t i = 0; i < outcome->selected_nodes.size(); ++i) {
    std::printf(" node-%zu (r=%.3f)", outcome->selected_nodes[i],
                outcome->selected_rankings[i]);
  }
  std::printf("\ntrained on %zu of %zu samples (%.1f%% of the federation)\n",
              outcome->samples_used, outcome->samples_all_nodes,
              100.0 * outcome->DataFractionOfAll());
  std::printf("test rows in region: %zu\n", outcome->test_rows);
  std::printf("loss — model averaging (Eq. 6): %.2f\n",
              outcome->loss_model_avg);
  std::printf("loss — weighted averaging (Eq. 7): %.2f\n",
              outcome->loss_weighted);
  std::printf("simulated time: %.3fs training + %.3fs communication\n",
              outcome->sim_time_total, outcome->sim_time_comm);
  return 0;
}
