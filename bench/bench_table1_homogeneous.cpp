// Reproduces Table I: expected loss (prediction error) of the Section II
// pre-test mechanism on HOMOGENEOUS participants.
//
// The leader trains a model on its own local data and tests it against the
// other participants:
//   "All-node selection"  — probe ALL participants and engage the best-
//                           matching one; expected loss = loss on it.
//   "Random selection"    — engage a uniformly random participant;
//                           expected loss = mean loss across participants.
// Paper values (LR): 24.45 vs 24.70 — a near-tie, because homogeneous
// participants all look like the leader's data, so probing buys nothing.

#include <cstdio>

#include "bench_util.h"

using namespace qens;

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_table1_homogeneous", &argc, argv);
  bench::PrintHeader(
      "Table I — pre-test expected loss, homogeneous participants (LR)\n"
      "paper: all-node 24.45 vs random 24.70 (near-tie)");

  data::AirQualityOptions options;
  options.num_stations = 10;
  options.samples_per_station = 1500;
  options.heterogeneity = data::Heterogeneity::kHomogeneous;
  options.single_feature = true;
  options.seed = 2023;

  const bench::PreTestResult result = bench::RunPreTest(options, 99);

  std::printf("\n| Model | All-node selection | Random selection |\n");
  std::printf("|-------|--------------------|------------------|\n");
  std::printf("| LR    | %18.2f | %16.2f |\n", result.all_node_loss,
              result.random_loss);

  const double rel = (result.random_loss - result.all_node_loss) /
                     std::max(1e-9, result.all_node_loss);
  std::printf(
      "\nshape check: (random - all)/all = %.3f (paper: 0.010; expect a "
      "near-tie, << 1)\n",
      rel);
  // The gate's tolerance: a near-tie is a gap well under a quarter of the
  // all-node loss (Table II's gap is a multiple of it).
  bench::ShapeCheck("table1: (random - all)/all < 0.25", rel < 0.25);

  bench::BenchRecord record;
  record.name = "pretest";
  record.labels["model"] = "LR";
  record.labels["heterogeneity"] = "homogeneous";
  record.values["all_node_loss"] = result.all_node_loss;
  record.values["random_loss"] = result.random_loss;
  record.values["relative_gap"] = rel;
  bjson.Add(std::move(record));
  bjson.WriteOrDie();
  return bench::ShapeCheckExitCode();
}
