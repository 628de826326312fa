// Reproduces Table III: the model hyper-parameters, printed from the
// factory and checked against the paper's values, plus a timing of one
// Table-III-exact training run per model (LR and NN, 100 epochs, validation
// split 0.2). Exits 1 when a shape check fails (bench::ShapeCheck): a
// factory value that differs from Table III, an NN fit that ends with a
// non-finite validation loss or one more than 5 % above the LR fit's, or an
// NN validation curve that has not settled: over its last 10 epochs the
// loss may vary by at most 5 % (max / min - 1). Adam at Table III's rate
// settles; at 100x that rate it still swings by tens of percent there,
// while its final loss can stay inside the LR bound.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "qens/common/stopwatch.h"
#include "qens/common/string_util.h"
#include "qens/data/air_quality_generator.h"

using namespace qens;

namespace {

void PrintRow(const char* field, const std::string& lr,
              const std::string& nn) {
  std::printf("| %-16s | %-6s | %-6s |\n", field, lr.c_str(), nn.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_table3_hyperparams", &argc, argv);
  bench::PrintHeader("Table III — model hyper-parameters (from the factory)");

  const ml::HyperParams lr = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  const ml::HyperParams nn = ml::PaperHyperParams(ml::ModelKind::kNeuralNetwork);

  std::printf("\n| %-16s | %-6s | %-6s |\n", "Model", "LR", "NN");
  std::printf("|------------------|--------|--------|\n");
  PrintRow("Dense", StrFormat("%zu", lr.dense_units),
           StrFormat("%zu", nn.dense_units));
  PrintRow("epochs", StrFormat("%zu", lr.epochs), StrFormat("%zu", nn.epochs));
  PrintRow("validation split", StrFormat("%.1f", lr.validation_split),
           StrFormat("%.1f", nn.validation_split));
  PrintRow("Learning rate", StrFormat("%.2f", lr.learning_rate),
           StrFormat("%.3f", nn.learning_rate));
  PrintRow("activation", ml::ActivationName(lr.hidden_activation),
           ml::ActivationName(nn.hidden_activation));
  PrintRow("Loss", ml::LossName(lr.loss), ml::LossName(nn.loss));
  PrintRow("optimizer", lr.optimizer, nn.optimizer);

  std::printf(
      "shape checks: Dense 1/64: %s | epochs 100/100: %s | validation "
      "0.2/0.2: %s | lr 0.03/0.001: %s | relu: %s | mse: %s | sgd/adam: %s\n",
      bench::ShapeCheck("table3: Dense 1/64",
                        lr.dense_units == 1 && nn.dense_units == 64),
      bench::ShapeCheck("table3: epochs 100/100",
                        lr.epochs == 100 && nn.epochs == 100),
      bench::ShapeCheck("table3: validation split 0.2/0.2",
                        lr.validation_split == 0.2 &&
                            nn.validation_split == 0.2),
      bench::ShapeCheck("table3: learning rate 0.03/0.001",
                        lr.learning_rate == 0.03 && nn.learning_rate == 0.001),
      bench::ShapeCheck("table3: relu activation",
                        lr.hidden_activation == ml::Activation::kRelu &&
                            nn.hidden_activation == ml::Activation::kRelu),
      bench::ShapeCheck("table3: mse loss", lr.loss == ml::LossKind::kMse &&
                                                nn.loss == ml::LossKind::kMse),
      bench::ShapeCheck("table3: optimizer sgd/adam",
                        lr.optimizer == "sgd" && nn.optimizer == "adam"));

  // One Table-III-exact fit per model on one station's (normalized) data.
  data::AirQualityOptions data_options;
  data_options.num_stations = 1;
  data_options.samples_per_station = 1500;
  data_options.heterogeneity = data::Heterogeneity::kHomogeneous;
  data_options.single_feature = true;
  data::AirQualityGenerator generator(data_options);
  data::Dataset station =
      bench::ValueOrDie(generator.GenerateStation(0), "generate data");
  data::Normalizer fnorm = bench::ValueOrDie(
      data::Normalizer::Fit(station.features(), data::ScalingKind::kMinMax),
      "fit feature normalizer");
  data::Normalizer tnorm = bench::ValueOrDie(
      data::Normalizer::Fit(station.targets(), data::ScalingKind::kMinMax),
      "fit target normalizer");
  Matrix x = bench::ValueOrDie(fnorm.Transform(station.features()), "x");
  Matrix y = bench::ValueOrDie(tnorm.Transform(station.targets()), "y");

  std::printf("\nTable-III-exact training runs (one station, %zu samples):\n",
              station.NumSamples());
  double lr_val_loss = 0.0;
  double nn_val_loss = 0.0;
  double nn_tail_spread = 0.0;  // max / min - 1 over the last 10 epochs.
  constexpr size_t kTailEpochs = 10;
  for (ml::ModelKind kind :
       {ml::ModelKind::kLinearRegression, ml::ModelKind::kNeuralNetwork}) {
    Rng rng(7);
    ml::SequentialModel model =
        bench::ValueOrDie(ml::BuildModel(kind, x.cols(), &rng), "model");
    auto trainer = bench::ValueOrDie(ml::BuildTrainer(kind, 7), "trainer");
    Stopwatch watch;
    ml::TrainReport report =
        bench::ValueOrDie(trainer->Fit(&model, x, y), "fit");
    std::printf(
        "  %-3s: %zu epochs, final train loss %.5f, final val loss %.5f, "
        "%.2fs wall\n",
        ml::ModelKindName(kind), report.epochs_run,
        report.final_train_loss(), report.final_val_loss(),
        watch.ElapsedSeconds());
    (kind == ml::ModelKind::kLinearRegression ? lr_val_loss : nn_val_loss) =
        report.final_val_loss();
    if (kind == ml::ModelKind::kNeuralNetwork) {
      const std::vector<double>& val = report.val_loss;
      const auto tail = val.end() - static_cast<ptrdiff_t>(
                                        std::min(kTailEpochs, val.size()));
      const auto [lo, hi] = std::minmax_element(tail, val.end());
      nn_tail_spread = tail == val.end() ? NAN : *hi / *lo - 1.0;
    }

    bench::BenchRecord record;
    record.name = ml::ModelKindName(kind);
    record.values["epochs_run"] = static_cast<double>(report.epochs_run);
    record.values["final_train_loss"] = report.final_train_loss();
    record.values["final_val_loss"] = report.final_val_loss();
    record.values["wall_seconds"] = watch.ElapsedSeconds();
    bjson.Add(std::move(record));
  }
  std::printf(
      "shape check: NN val loss %.6f finite and <= 1.05 x LR's %.6f: %s\n",
      nn_val_loss, lr_val_loss,
      bench::ShapeCheck("table3: NN val loss finite and <= 1.05 x LR's",
                        std::isfinite(nn_val_loss) &&
                            nn_val_loss <= 1.05 * lr_val_loss));
  std::printf(
      "shape check: NN val loss settles (last %zu epochs vary %.2f %% <= "
      "5 %%): %s\n",
      kTailEpochs, 100.0 * nn_tail_spread,
      bench::ShapeCheck("table3: NN val loss varies <= 5 % over the last "
                        "10 epochs",
                        nn_tail_spread <= 0.05));
  bjson.WriteOrDie();
  return bench::ShapeCheckExitCode();
}
