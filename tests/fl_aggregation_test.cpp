// Tests for the aggregation rules: Eq. 6 (equal prediction average) and
// Eq. 7 (ranking-weighted, lambda normalization) as EnsembleModel answers,
// FedAvg parameters, the ensemble's construction, and its one-pass scorer
// against Predict + ComputeLoss.

#include "qens/fl/aggregation.h"

#include <bit>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/ml/loss.h"
#include "qens/ml/model_factory.h"

namespace qens::fl {
namespace {

/// A 1-feature linear model y = w x + b.
ml::SequentialModel Linear(double w, double b) {
  ml::SequentialModel m;
  EXPECT_TRUE(m.AddLayer(1, 1, ml::Activation::kIdentity).ok());
  m.layer(0).weights()(0, 0) = w;
  m.layer(0).bias()[0] = b;
  return m;
}

/// One ensemble answer; the ensemble must build.
Result<Matrix> Answer(std::vector<ml::SequentialModel> models,
                      std::vector<double> weights, const Matrix& x,
                      AggregationKind kind) {
  QENS_ASSIGN_OR_RETURN(EnsembleModel ensemble,
                        EnsembleModel::Create(std::move(models),
                                              std::move(weights)));
  return ensemble.Predict(x, kind);
}

TEST(AggregationTest, Eq6EqualAverage) {
  // Models y = 2x and y = 4x at x = 1: average 3, whatever the rankings.
  Matrix x{{1.0}};
  auto pred = Answer({Linear(2, 0), Linear(4, 0)}, {1.0, 9.0}, x,
                     AggregationKind::kModelAveraging);
  ASSERT_TRUE(pred.ok());
  EXPECT_DOUBLE_EQ((*pred)(0, 0), 3.0);
}

TEST(AggregationTest, Eq6SingleModelIsIdentity) {
  Matrix x{{2.0}};
  auto pred =
      Answer({Linear(5, 1)}, {1.0}, x, AggregationKind::kModelAveraging);
  ASSERT_TRUE(pred.ok());
  EXPECT_DOUBLE_EQ((*pred)(0, 0), 11.0);
}

TEST(AggregationTest, Eq7WeightsNormalizeToLambda) {
  // Rankings 1 and 3 -> lambdas 0.25 / 0.75.
  Matrix x{{1.0}};
  auto pred = Answer({Linear(0, 0), Linear(0, 4)}, {1.0, 3.0}, x,
                     AggregationKind::kWeightedAveraging);
  ASSERT_TRUE(pred.ok());
  EXPECT_DOUBLE_EQ((*pred)(0, 0), 0.25 * 0.0 + 0.75 * 4.0);
}

TEST(AggregationTest, Eq7EqualWeightsMatchEq6) {
  Matrix x{{0.5}, {2.0}};
  auto a = Answer({Linear(1, 1), Linear(3, -1)}, {2.0, 2.0}, x,
                  AggregationKind::kModelAveraging);
  auto b = Answer({Linear(1, 1), Linear(3, -1)}, {2.0, 2.0}, x,
                  AggregationKind::kWeightedAveraging);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a->MaxAbsDiff(*b), 1e-12);
}

TEST(AggregationTest, Eq7ScaleInvariantInWeights) {
  Matrix x{{1.0}};
  auto a = Answer({Linear(1, 0), Linear(2, 0)}, {1.0, 4.0}, x,
                  AggregationKind::kWeightedAveraging);
  auto b = Answer({Linear(1, 0), Linear(2, 0)}, {10.0, 40.0}, x,
                  AggregationKind::kWeightedAveraging);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ((*a)(0, 0), (*b)(0, 0));
}

TEST(AggregationTest, WeightErrors) {
  Matrix x{{1.0}};
  const auto models = [] {
    return std::vector<ml::SequentialModel>{Linear(1, 0), Linear(2, 0)};
  };
  // Wrong count and negative weights never build an ensemble.
  EXPECT_FALSE(
      Answer(models(), {1.0}, x, AggregationKind::kWeightedAveraging).ok());
  EXPECT_FALSE(Answer(models(), {1.0, -1.0}, x,
                      AggregationKind::kWeightedAveraging)
                   .ok());
  EXPECT_FALSE(Answer({}, {}, x, AggregationKind::kModelAveraging).ok());
  // An all-zero ranking has no lambda: Eq. 7 fails, Eq. 6 still answers.
  EXPECT_FALSE(Answer(models(), {0.0, 0.0}, x,
                      AggregationKind::kWeightedAveraging)
                   .ok());
  EXPECT_TRUE(
      Answer(models(), {0.0, 0.0}, x, AggregationKind::kModelAveraging).ok());
}

TEST(FedAvgTest, ParameterAverage) {
  std::vector<ml::SequentialModel> models = {Linear(2, 0), Linear(4, 2)};
  auto merged = FedAvgParameters(models, {1.0, 1.0});
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ(merged->layer(0).weights()(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(merged->layer(0).bias()[0], 1.0);
}

TEST(FedAvgTest, WeightedParameterAverage) {
  std::vector<ml::SequentialModel> models = {Linear(0, 0), Linear(4, 0)};
  auto merged = FedAvgParameters(models, {3.0, 1.0});
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ(merged->layer(0).weights()(0, 0), 1.0);
}

TEST(FedAvgTest, ForLinearModelsMatchesPredictionAverage) {
  // Parameter averaging and prediction averaging coincide exactly for
  // linear models — a useful sanity identity.
  std::vector<ml::SequentialModel> models = {Linear(2, 1), Linear(-4, 3)};
  Matrix x{{0.7}, {-1.3}};
  auto merged = FedAvgParameters(models, {1.0, 1.0});
  ASSERT_TRUE(merged.ok());
  auto from_params = merged->Predict(x);
  auto from_preds =
      Answer(models, {1.0, 1.0}, x, AggregationKind::kModelAveraging);
  ASSERT_TRUE(from_params.ok());
  ASSERT_TRUE(from_preds.ok());
  EXPECT_LT(from_params->MaxAbsDiff(*from_preds), 1e-12);
}

TEST(FedAvgTest, ArchitectureMismatchFails) {
  ml::SequentialModel nn;
  ASSERT_TRUE(nn.AddLayer(1, 4, ml::Activation::kRelu).ok());
  ASSERT_TRUE(nn.AddLayer(4, 1, ml::Activation::kIdentity).ok());
  std::vector<ml::SequentialModel> models = {Linear(1, 0), nn};
  EXPECT_FALSE(FedAvgParameters(models, {1.0, 1.0}).ok());
}

TEST(EnsembleTest, PredictAllKinds) {
  auto ensemble =
      EnsembleModel::Create({Linear(2, 0), Linear(4, 0)}, {1.0, 3.0});
  ASSERT_TRUE(ensemble.ok());
  Matrix x{{1.0}};
  EXPECT_DOUBLE_EQ(
      ensemble->Predict(x, AggregationKind::kModelAveraging).value()(0, 0),
      3.0);
  EXPECT_DOUBLE_EQ(
      ensemble->Predict(x, AggregationKind::kWeightedAveraging).value()(0, 0),
      0.25 * 2 + 0.75 * 4);
  EXPECT_DOUBLE_EQ(
      ensemble->Predict(x, AggregationKind::kFedAvgParameters).value()(0, 0),
      0.25 * 2 + 0.75 * 4);  // Linear: coincides with weighted.
}

TEST(EnsembleTest, CreateErrors) {
  EXPECT_FALSE(EnsembleModel::Create({}, {}).ok());
  EXPECT_FALSE(EnsembleModel::Create({Linear(1, 0)}, {1.0, 2.0}).ok());
  EXPECT_FALSE(EnsembleModel::Create({Linear(1, 0)}, {-1.0}).ok());
}

TEST(AggregationKindTest, NamesRoundTrip) {
  for (AggregationKind kind :
       {AggregationKind::kModelAveraging, AggregationKind::kWeightedAveraging,
        AggregationKind::kFedAvgParameters, AggregationKind::kCoordinateMedian,
        AggregationKind::kTrimmedMean,
        AggregationKind::kNormClippedFedAvg}) {
    EXPECT_EQ(ParseAggregationKind(AggregationKindName(kind)).value(), kind);
  }
  EXPECT_EQ(ParseAggregationKind("weighted").value(),
            AggregationKind::kWeightedAveraging);
  EXPECT_EQ(ParseAggregationKind("median").value(),
            AggregationKind::kCoordinateMedian);
  EXPECT_EQ(ParseAggregationKind("trimmed").value(),
            AggregationKind::kTrimmedMean);
  EXPECT_EQ(ParseAggregationKind("clipped").value(),
            AggregationKind::kNormClippedFedAvg);
  EXPECT_FALSE(ParseAggregationKind("krum").ok());
}

TEST(FedAvgTest, NonFiniteParametersRejected) {
  std::vector<ml::SequentialModel> models = {
      Linear(std::numeric_limits<double>::quiet_NaN(), 0), Linear(2, 0)};
  EXPECT_FALSE(FedAvgParameters(models, {1.0, 1.0}).ok());
  // A NaN member predicts NaN, which both prediction-space answers refuse.
  Matrix x{{1.0}};
  EXPECT_FALSE(
      Answer(models, {1.0, 1.0}, x, AggregationKind::kModelAveraging).ok());
  EXPECT_FALSE(
      Answer(models, {1.0, 1.0}, x, AggregationKind::kWeightedAveraging)
          .ok());
}

// ---------------------------------------------------------------------------
// EnsembleModel::ScoreMse against Predict + ComputeLoss, bit for bit.

/// A model of `kind` over `inputs` features with every parameter drawn
/// from [-1, 1] (biases included, so members differ everywhere).
ml::SequentialModel RandomModel(ml::ModelKind kind, size_t inputs, Rng* rng) {
  ml::SequentialModel model = ml::BuildModel(kind, inputs, rng).value();
  std::vector<double> params(model.ParameterCount());
  for (double& p : params) p = rng->Uniform(-1.0, 1.0);
  EXPECT_TRUE(model.SetParameters(params).ok());
  return model;
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng->Uniform(-2.0, 2.0);
  return m;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// ComputeLoss(kMse, Predict(x, kind), y).
double ReferenceLoss(const EnsembleModel& ensemble, const Matrix& x,
                     const Matrix& y, AggregationKind kind) {
  const Matrix pred = ensemble.Predict(x, kind).value();
  return ml::ComputeLoss(ml::LossKind::kMse, pred, y).value();
}

void ExpectScoreMatchesReference(const EnsembleModel& ensemble,
                                 const Matrix& x, const Matrix& y) {
  const auto losses = ensemble.ScoreMse(x, y);
  ASSERT_TRUE(losses.ok()) << losses.status().ToString();
  EXPECT_EQ(Bits(losses->model_averaging),
            Bits(ReferenceLoss(ensemble, x, y,
                               AggregationKind::kModelAveraging)));
  EXPECT_EQ(Bits(losses->weighted_averaging),
            Bits(ReferenceLoss(ensemble, x, y,
                               AggregationKind::kWeightedAveraging)));
  EXPECT_EQ(Bits(losses->fedavg),
            Bits(ReferenceLoss(ensemble, x, y,
                               AggregationKind::kFedAvgParameters)));
}

TEST(EnsembleScoreTest, EqualsPredictPlusComputeLossBitForBit) {
  Rng rng(31);
  struct Shape {
    ml::ModelKind kind;
    size_t inputs;  // 1 = the paper's feature; the NN then runs the sweep.
  };
  for (const Shape shape : {Shape{ml::ModelKind::kLinearRegression, 1},
                            Shape{ml::ModelKind::kLinearRegression, 3},
                            Shape{ml::ModelKind::kNeuralNetwork, 1},
                            Shape{ml::ModelKind::kNeuralNetwork, 3}}) {
    for (size_t members : {1, 3, 8}) {
      for (size_t rows : {1, 5, 33}) {
        SCOPED_TRACE(testing::Message()
                     << ml::ModelKindName(shape.kind) << " d=" << shape.inputs
                     << " members=" << members << " rows=" << rows);
        std::vector<ml::SequentialModel> models;
        std::vector<double> weights;
        for (size_t i = 0; i < members; ++i) {
          models.push_back(RandomModel(shape.kind, shape.inputs, &rng));
          // Some zero rankings, but a positive sum.
          weights.push_back(i % 3 == 1 ? 0.0 : rng.Uniform(0.01, 2.0));
        }
        const auto ensemble = EnsembleModel::Create(models, weights);
        ASSERT_TRUE(ensemble.ok());
        const Matrix x = RandomMatrix(rows, shape.inputs, &rng);
        const Matrix y = RandomMatrix(rows, 1, &rng);
        ExpectScoreMatchesReference(*ensemble, x, y);
      }
    }
  }
}

TEST(EnsembleScoreTest, AllZeroRankingsFailLikeEq7AndFallBackToEqualWeights) {
  Rng rng(8);
  for (ml::ModelKind kind :
       {ml::ModelKind::kLinearRegression, ml::ModelKind::kNeuralNetwork}) {
    std::vector<ml::SequentialModel> models;
    for (int i = 0; i < 3; ++i) models.push_back(RandomModel(kind, 1, &rng));
    const Matrix x = RandomMatrix(33, 1, &rng);
    const Matrix y = RandomMatrix(33, 1, &rng);

    const auto zero = EnsembleModel::Create(models, {0.0, 0.0, 0.0});
    ASSERT_TRUE(zero.ok());
    const auto eq7 = zero->Predict(x, AggregationKind::kWeightedAveraging);
    ASSERT_FALSE(eq7.ok());
    const auto score = zero->ScoreMse(x, y);
    ASSERT_FALSE(score.ok());
    EXPECT_EQ(score.status().code(), eq7.status().code());

    // The session's fallback: all-zero rankings become equal weights, so
    // Eq. 7 answers exactly as Eq. 6.
    const auto equal = EnsembleModel::Create(models, {1.0, 1.0, 1.0});
    ASSERT_TRUE(equal.ok());
    ExpectScoreMatchesReference(*equal, x, y);
    const auto losses = equal->ScoreMse(x, y);
    EXPECT_EQ(Bits(losses->weighted_averaging),
              Bits(losses->model_averaging));
  }
}

TEST(EnsembleScoreTest, NonFiniteMemberPredictionFailsLikePredict) {
  Rng rng(5);
  for (ml::ModelKind kind :
       {ml::ModelKind::kLinearRegression, ml::ModelKind::kNeuralNetwork}) {
    std::vector<ml::SequentialModel> models;
    for (int i = 0; i < 3; ++i) models.push_back(RandomModel(kind, 1, &rng));
    // Finite parameters whose prediction overflows to infinity.
    ml::DenseLayer& head = models[1].layer(models[1].num_layers() - 1);
    for (double& w : head.weights().data()) w = 1e308;
    const auto ensemble = EnsembleModel::Create(models, {1.0, 2.0, 3.0});
    ASSERT_TRUE(ensemble.ok());
    Matrix x(5, 1, 50.0);
    const Matrix y = RandomMatrix(5, 1, &rng);
    const auto want = ensemble->Predict(x, AggregationKind::kModelAveraging);
    ASSERT_FALSE(want.ok());
    const auto got = ensemble->ScoreMse(x, y);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
  }
}

TEST(EnsembleScoreTest, ShapeErrorsFailLikeComputeLoss) {
  const auto ensemble = EnsembleModel::Create({Linear(2, 0)}, {1.0});
  ASSERT_TRUE(ensemble.ok());
  const Matrix x{{1.0}, {2.0}};
  EXPECT_EQ(ensemble->ScoreMse(x, Matrix{{1.0}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ensemble->ScoreMse(Matrix(0, 1), Matrix(0, 1)).status().code(),
            ml::ComputeLoss(ml::LossKind::kMse, Matrix(0, 1), Matrix(0, 1))
                .status()
                .code());
  EXPECT_EQ(ensemble->ScoreMse(Matrix{{1.0, 2.0}}, Matrix{{1.0}})
                .status()
                .code(),
            ensemble->Predict(Matrix{{1.0, 2.0}},
                              AggregationKind::kModelAveraging)
                .status()
                .code());
}

}  // namespace
}  // namespace qens::fl
