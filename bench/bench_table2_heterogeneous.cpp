// Reproduces Table II: expected loss of the Section II pre-test mechanism
// on HETEROGENEOUS participants (very different data patterns and
// distributions — sign-flipped local regressions across regions).
//
//   "All-node selection"  — probe ALL participants, engage the best match:
//                           low loss (a compatible node exists nearby).
//   "Random selection"    — engage a uniformly random participant: the
//                           expected loss explodes, because most nodes hold
//                           other regions with very different patterns.
// Paper values (LR): 9.70 vs 178.10 — random is ~18x worse.

#include <cstdio>

#include "bench_util.h"

using namespace qens;

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_table2_heterogeneous", &argc, argv);
  bench::PrintHeader(
      "Table II — pre-test expected loss, heterogeneous participants (LR)\n"
      "paper: all-node 9.70 vs random 178.10 (random blows up)");

  data::AirQualityOptions options;
  options.num_stations = 10;
  options.samples_per_station = 1500;
  options.heterogeneity = data::Heterogeneity::kHeterogeneous;
  options.single_feature = true;
  options.seed = 2023;

  const bench::PreTestResult result = bench::RunPreTest(options, 99);

  std::printf("\n| Model | All-node selection | Random selection |\n");
  std::printf("|-------|--------------------|------------------|\n");
  std::printf("| LR    | %18.2f | %16.2f |\n", result.all_node_loss,
              result.random_loss);

  const double ratio =
      result.random_loss / std::max(1e-9, result.all_node_loss);
  std::printf(
      "\nshape check: random / all-node = %.2fx (paper: 18.4x; expect >> "
      "1)\n",
      ratio);
  // The gate's tolerance: random selection must cost at least 5x the
  // all-node loss (paper: 18.4x), far outside Table I's near-tie.
  bench::ShapeCheck("table2: random / all-node >= 5", ratio >= 5.0);

  bench::BenchRecord record;
  record.name = "pretest";
  record.labels["model"] = "LR";
  record.labels["heterogeneity"] = "heterogeneous";
  record.values["all_node_loss"] = result.all_node_loss;
  record.values["random_loss"] = result.random_loss;
  record.values["loss_ratio"] = ratio;
  bjson.Add(std::move(record));
  bjson.WriteOrDie();
  return bench::ShapeCheckExitCode();
}
