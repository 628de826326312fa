// Row-view training: Trainer::Fit(model, x, y, rows) must give results bit
// for bit equal to Fit(model, x.SelectRows(rows), y.SelectRows(rows)) — the
// same parameters, loss histories and counters — for LR (fused head), the
// paper NN (hidden-layer sweep), a generic 3 -> 8 -> 1 net (fused head below
// a hidden layer) and a non-MSE loss (generic path), with shuffle on and
// off, a 0.2 validation split and early stopping. A bad row id fails with
// OutOfRange before any step; an empty view fails with InvalidArgument.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "qens/common/rng.h"
#include "qens/ml/model_factory.h"
#include "qens/ml/optimizer.h"
#include "qens/ml/trainer.h"

namespace qens::ml {
namespace {

enum class Net { kLr, kPaperNn, kGeneric };

struct RowCase {
  const char* name;
  Net net;
  LossKind loss;
  bool shuffle;
  double validation_split;
  size_t patience;
};

size_t Features(Net net) { return net == Net::kGeneric ? 3 : 1; }

SequentialModel MakeModel(Net net) {
  Rng rng(17);
  switch (net) {
    case Net::kLr:
      return BuildModel(ModelKind::kLinearRegression, 1, &rng).value();
    case Net::kPaperNn:
      return BuildModel(PaperHyperParams(ModelKind::kNeuralNetwork), 1, &rng)
          .value();
    case Net::kGeneric: {
      SequentialModel m;
      EXPECT_TRUE(m.AddLayer(3, 8, Activation::kTanh).ok());
      EXPECT_TRUE(m.AddLayer(8, 1, Activation::kIdentity).ok());
      m.InitWeights(&rng);
      return m;
    }
  }
  return {};
}

Trainer MakeTrainer(const RowCase& c) {
  TrainOptions options;
  options.epochs = 12;
  options.batch_size = 8;
  options.loss = c.loss;
  options.shuffle = c.shuffle;
  options.validation_split = c.validation_split;
  options.early_stopping_patience = c.patience;
  options.seed = 29;
  if (c.net == Net::kLr) {
    return Trainer(std::make_unique<SgdOptimizer>(0.03), options);
  }
  return Trainer(std::make_unique<AdamOptimizer>(0.01), options);
}

/// A 120-row store; only the rows of a view are trained on.
void MakeStore(size_t features, Matrix* x, Matrix* y) {
  Rng rng(5);
  *x = Matrix(120, features);
  *y = Matrix(120, 1);
  for (size_t r = 0; r < 120; ++r) {
    double target = 0.5;
    for (size_t c = 0; c < features; ++c) {
      (*x)(r, c) = rng.Uniform(-1, 1);
      target += (1.0 + static_cast<double>(c)) * (*x)(r, c);
    }
    (*y)(r, 0) = target + rng.Gaussian(0, 0.05);
  }
}

/// Two views over the store, scattered and out of order; the second
/// repeats a row.
std::vector<std::vector<size_t>> Views() {
  std::vector<size_t> a, b;
  for (size_t r = 119; r >= 3; r -= 3) a.push_back(r);  // 39 rows.
  for (size_t r = 1; r < 120; r += 4) b.push_back(r);   // 30 rows.
  b.push_back(1);
  return {a, b};
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

class RowViewFitTest : public ::testing::TestWithParam<RowCase> {};

TEST_P(RowViewFitTest, EqualsFitOnGatheredSubset) {
  const RowCase& c = GetParam();
  Matrix x, y;
  MakeStore(Features(c.net), &x, &y);
  SequentialModel by_view = MakeModel(c.net);
  SequentialModel by_copy = MakeModel(c.net);
  Trainer view_trainer = MakeTrainer(c);
  Trainer copy_trainer = MakeTrainer(c);
  // Successive fits on one trainer, as the per-cluster pass runs them.
  for (const std::vector<size_t>& rows : Views()) {
    auto view = view_trainer.Fit(&by_view, x, y, rows);
    auto copy = copy_trainer.Fit(&by_copy, x.SelectRows(rows).value(),
                                 y.SelectRows(rows).value());
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ASSERT_TRUE(copy.ok()) << copy.status().ToString();
    EXPECT_TRUE(SameBits(by_view.GetParameters(), by_copy.GetParameters()));
    EXPECT_TRUE(SameBits(view->train_loss, copy->train_loss));
    EXPECT_TRUE(SameBits(view->val_loss, copy->val_loss));
    EXPECT_EQ(view->samples_seen, copy->samples_seen);
    EXPECT_EQ(view->epochs_run, copy->epochs_run);
    EXPECT_EQ(view->early_stopped, copy->early_stopped);
  }
}

const RowCase kRowCases[] = {
    {"lr_shuffle", Net::kLr, LossKind::kMse, true, 0.0, 0},
    {"lr_no_shuffle", Net::kLr, LossKind::kMse, false, 0.0, 0},
    {"lr_val_early_stop", Net::kLr, LossKind::kMse, true, 0.2, 1},
    {"paper_nn_shuffle", Net::kPaperNn, LossKind::kMse, true, 0.0, 0},
    {"paper_nn_no_shuffle_val", Net::kPaperNn, LossKind::kMse, false, 0.2, 0},
    {"paper_nn_val_early_stop", Net::kPaperNn, LossKind::kMse, true, 0.2, 1},
    {"generic_shuffle", Net::kGeneric, LossKind::kMse, true, 0.0, 0},
    {"generic_val", Net::kGeneric, LossKind::kMse, true, 0.2, 0},
    {"generic_no_shuffle_early_stop", Net::kGeneric, LossKind::kMse, false,
     0.2, 1},
    {"generic_mae_val", Net::kGeneric, LossKind::kMae, true, 0.2, 0},
};

INSTANTIATE_TEST_SUITE_P(
    Cases, RowViewFitTest, ::testing::ValuesIn(kRowCases),
    [](const ::testing::TestParamInfo<RowCase>& info) {
      return std::string(info.param.name);
    });

TEST(RowViewFitTest, EarlyStoppingCaseStops) {
  // Guards the early-stopping cases above: at least one of them must stop
  // early, or they would only repeat the plain validation cases.
  size_t stopped = 0;
  for (const RowCase& c : kRowCases) {
    if (c.patience == 0) continue;
    Matrix x, y;
    MakeStore(Features(c.net), &x, &y);
    SequentialModel model = MakeModel(c.net);
    Trainer trainer = MakeTrainer(c);
    for (const std::vector<size_t>& rows : Views()) {
      auto report = trainer.Fit(&model, x, y, rows);
      ASSERT_TRUE(report.ok());
      if (report->early_stopped) ++stopped;
    }
  }
  EXPECT_GT(stopped, 0u);
}

TEST(RowViewFitTest, BadRowIdFailsBeforeAnyStep) {
  Matrix x, y;
  MakeStore(1, &x, &y);
  const RowCase c = kRowCases[0];
  SequentialModel model = MakeModel(c.net);
  const std::vector<double> before = model.GetParameters();
  Trainer trainer = MakeTrainer(c);
  const std::vector<size_t> rows = {0, 5, 120, 7};  // 120 is past the end.
  EXPECT_TRUE(trainer.Fit(&model, x, y, rows).status().IsOutOfRange());
  EXPECT_TRUE(SameBits(model.GetParameters(), before));
}

TEST(RowViewFitTest, EmptyViewIsInvalid) {
  Matrix x, y;
  MakeStore(1, &x, &y);
  const RowCase c = kRowCases[0];
  SequentialModel model = MakeModel(c.net);
  Trainer trainer = MakeTrainer(c);
  EXPECT_TRUE(trainer.Fit(&model, x, y, std::vector<size_t>{})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace qens::ml
