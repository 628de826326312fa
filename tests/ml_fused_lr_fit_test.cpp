// The fused LR fit against the generic path, bit for bit.
//
// Trainer::Fit trains a one-layer linear scalar head under MSE and an
// SgdOptimizer through SgdOptimizer::LinearHeadMseStep, straight from the
// row view. ForwardingSgd below forwards Step to an inner SgdOptimizer but
// is not one itself, so the same fit with it takes the generic path:
// GatherBatch, LossAndGradients (MseHeadInto) and Step. Every case runs two
// consecutive Fits on one trainer, so the carried velocity is compared as
// well, and compares the final parameters and every per-epoch train and
// validation loss by their bit patterns.
//
// Grid: one and three inputs; momentum 0 and 0.9; batch sizes 1, 7 and 32
// (every one ends in a ragged batch); shuffle on and off; validation split
// 0 and 0.2; all on a row view with repeated and scattered ids. Also a
// degenerate fit from zero weights, which must stay at +0.0, and a trainer
// that mixes TrainBatch and Fit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "qens/common/rng.h"
#include "qens/ml/optimizer.h"
#include "qens/ml/sequential_model.h"
#include "qens/ml/trainer.h"
#include "qens/obs/metrics.h"

namespace qens::ml {
namespace {

/// SGD through the Optimizer interface alone: Trainer::Fit cannot see an
/// SgdOptimizer, so it trains on the generic path.
class ForwardingSgd : public Optimizer {
 public:
  ForwardingSgd(double learning_rate, double momentum)
      : Optimizer(learning_rate), inner_(learning_rate, momentum) {}

  Status Step(SequentialModel* model,
              const std::vector<DenseGradients>& grads) override {
    return inner_.Step(model, grads);
  }
  void Reset() override { inner_.Reset(); }
  std::string Name() const override { return "forwarding_sgd"; }

 private:
  SgdOptimizer inner_;
};

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> out;
  for (double v : values) out.push_back(Bits(v));
  return out;
}

/// Everything two fits must agree on, as bit patterns.
struct Outcome {
  std::vector<uint64_t> params;
  std::vector<std::vector<uint64_t>> train_loss;
  std::vector<std::vector<uint64_t>> val_loss;
  std::vector<size_t> samples_seen;
  std::vector<size_t> epochs_run;

  bool operator==(const Outcome&) const = default;
};

struct Data {
  Matrix x;
  Matrix y;
  /// A view of 61 of the store's 80 rows: scattered, with repeats.
  std::vector<size_t> rows;
};

Data MakeData(size_t features) {
  Data d;
  Rng rng(31);
  d.x = Matrix(80, features);
  d.y = Matrix(80, 1);
  for (double& v : d.x.data()) v = rng.Uniform(-2.0, 2.0);
  for (size_t r = 0; r < 80; ++r) {
    double v = 1.5 * d.x(r, 0);
    if (features == 3) v = v - 0.5 * d.x(r, 1) + 0.25 * d.x(r, 2);
    d.y(r, 0) = v + 0.1 + rng.Uniform(-0.3, 0.3);
  }
  for (size_t i = 0; i < 55; ++i) d.rows.push_back((i * 37 + 11) % 80);
  for (size_t r : {size_t{3}, size_t{3}, size_t{79}, size_t{0}, size_t{50},
                   size_t{3}}) {
    d.rows.push_back(r);
  }
  return d;
}

SequentialModel MakeModel(size_t features, bool zero) {
  SequentialModel m;
  EXPECT_TRUE(m.AddLayer(features, 1, Activation::kIdentity).ok());
  if (zero) return m;  // AddLayer leaves every parameter at +0.0.
  Rng rng(17);
  m.InitWeights(&rng);
  m.layer(0).bias()[0] = -0.15;
  return m;
}

Outcome RunFits(std::unique_ptr<Optimizer> optimizer,
                const TrainOptions& options, SequentialModel model,
                const Data& data) {
  Trainer trainer(std::move(optimizer), options);
  Outcome out;
  for (int fit = 0; fit < 2; ++fit) {
    const TrainReport report =
        trainer.Fit(&model, data.x, data.y, data.rows).value();
    out.train_loss.push_back(Bits(report.train_loss));
    out.val_loss.push_back(Bits(report.val_loss));
    out.samples_seen.push_back(report.samples_seen);
    out.epochs_run.push_back(report.epochs_run);
  }
  out.params = Bits(model.GetParameters());
  return out;
}

/// Fused (an SgdOptimizer) and generic (ForwardingSgd) fits of one setup.
void ExpectFusedMatchesGeneric(size_t features, double momentum,
                               const TrainOptions& options, bool zero,
                               const Data& data, const std::string& label) {
  constexpr double kLearningRate = 0.03;
  const SequentialModel model = MakeModel(features, zero);
  const Outcome fused =
      RunFits(std::make_unique<SgdOptimizer>(kLearningRate, momentum),
              options, model, data);
  const Outcome generic =
      RunFits(std::make_unique<ForwardingSgd>(kLearningRate, momentum),
              options, model, data);
  EXPECT_TRUE(fused == generic) << label;
  EXPECT_FALSE(fused.train_loss[0].empty()) << label;
}

TEST(FusedLrFitTest, MatchesTheGenericPathBitForBit) {
  for (size_t features : {size_t{1}, size_t{3}}) {
    const Data data = MakeData(features);
    for (double momentum : {0.0, 0.9}) {
      for (size_t batch : {size_t{1}, size_t{7}, size_t{32}}) {
        for (bool shuffle : {false, true}) {
          for (double val : {0.0, 0.2}) {
            TrainOptions options;
            options.epochs = 6;
            options.batch_size = batch;
            options.shuffle = shuffle;
            options.validation_split = val;
            options.seed = 9;
            ExpectFusedMatchesGeneric(
                features, momentum, options, /*zero=*/false, data,
                "features=" + std::to_string(features) +
                    " momentum=" + std::to_string(momentum) +
                    " batch=" + std::to_string(batch) +
                    " shuffle=" + std::to_string(shuffle) +
                    " val=" + std::to_string(val));
          }
        }
      }
    }
  }
}

TEST(FusedLrFitTest, ZeroWeightFitStaysAtPositiveZero) {
  // Zero weights predict +0.0 for every row, and the targets are exactly
  // that, so every gradient is ±0.0. The parameters must end at +0.0 on
  // both paths: a -0.0 would differ in its bits.
  for (size_t features : {size_t{1}, size_t{3}}) {
    Data data = MakeData(features);
    const SequentialModel zero = MakeModel(features, true);
    data.y = zero.Predict(data.x).value();
    for (double momentum : {0.0, 0.9}) {
      TrainOptions options;
      options.epochs = 4;
      options.batch_size = 7;
      options.validation_split = 0.2;
      ExpectFusedMatchesGeneric(features, momentum, options, /*zero=*/true,
                                data,
                                "zero features=" + std::to_string(features));
      SequentialModel model = zero;
      Trainer trainer(std::make_unique<SgdOptimizer>(0.03, momentum),
                      options);
      const TrainReport report =
          trainer.Fit(&model, data.x, data.y, data.rows).value();
      for (double p : model.GetParameters()) {
        EXPECT_EQ(Bits(p), Bits(0.0));
      }
      for (double l : report.train_loss) EXPECT_EQ(Bits(l), Bits(0.0));
    }
  }
}

TEST(FusedLrFitTest, TrainBatchAndFitShareOneMomentumState) {
  // A TrainBatch, a Fit, a TrainBatch, a Fit: the fused Fit must start from
  // and leave the velocity Step keeps, exactly as the generic one does.
  const Data data = MakeData(1);
  const Matrix xb = data.x.SelectRows({4, 9, 2}).value();
  const Matrix yb = data.y.SelectRows({4, 9, 2}).value();
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 7;
  options.validation_split = 0.0;
  auto run = [&](std::unique_ptr<Optimizer> optimizer) {
    SequentialModel model = MakeModel(1, false);
    Trainer trainer(std::move(optimizer), options);
    std::vector<uint64_t> trace;
    for (int i = 0; i < 2; ++i) {
      trace.push_back(Bits(trainer.TrainBatch(&model, xb, yb).value()));
      const TrainReport report =
          trainer.Fit(&model, data.x, data.y, data.rows).value();
      for (uint64_t b : Bits(report.train_loss)) trace.push_back(b);
    }
    for (uint64_t b : Bits(model.GetParameters())) trace.push_back(b);
    return trace;
  };
  EXPECT_EQ(run(std::make_unique<SgdOptimizer>(0.03, 0.9)),
            run(std::make_unique<ForwardingSgd>(0.03, 0.9)));
}

/// Fits that took the fused LR fit, per the trainer's metric.
uint64_t FusedFits(SequentialModel model, std::unique_ptr<Optimizer> opt,
                   LossKind loss, const Data& data) {
  obs::MetricsRegistry::Enable();
  obs::MetricsRegistry::Get()->Reset();
  TrainOptions options;
  options.epochs = 2;
  options.loss = loss;
  Trainer trainer(std::move(opt), options);
  EXPECT_TRUE(trainer.Fit(&model, data.x, data.y, data.rows).ok());
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Get()->Snapshot();
  obs::MetricsRegistry::Disable();
  const auto it = snapshot.counters.find("trainer.fused_lr_fits");
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(FusedLrFitTest, SelectedOnlyForLinearHeadMseAndSgd) {
  const Data data = MakeData(1);
  const SequentialModel lr = MakeModel(1, false);
  EXPECT_EQ(FusedFits(lr, std::make_unique<SgdOptimizer>(0.03),
                      LossKind::kMse, data),
            1u);
  EXPECT_EQ(FusedFits(lr, std::make_unique<SgdOptimizer>(0.03, 0.9),
                      LossKind::kMse, data),
            1u);
  // The generic path: another optimizer, another loss, or more layers.
  EXPECT_EQ(FusedFits(lr, std::make_unique<ForwardingSgd>(0.03, 0.0),
                      LossKind::kMse, data),
            0u);
  EXPECT_EQ(FusedFits(lr, std::make_unique<AdamOptimizer>(0.03),
                      LossKind::kMse, data),
            0u);
  EXPECT_EQ(FusedFits(lr, std::make_unique<SgdOptimizer>(0.03),
                      LossKind::kMae, data),
            0u);
  EXPECT_EQ(FusedFits(lr, std::make_unique<SgdOptimizer>(0.03),
                      LossKind::kHuber, data),
            0u);
  SequentialModel nn;
  ASSERT_TRUE(nn.AddLayer(1, 4, Activation::kRelu).ok());
  ASSERT_TRUE(nn.AddLayer(4, 1, Activation::kIdentity).ok());
  EXPECT_EQ(FusedFits(nn, std::make_unique<SgdOptimizer>(0.03),
                      LossKind::kMse, data),
            0u);
}

}  // namespace
}  // namespace qens::ml
