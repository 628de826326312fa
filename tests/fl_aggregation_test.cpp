// Tests for the aggregation rules: Eq. 6 (equal prediction average) and
// Eq. 7 (ranking-weighted, lambda normalization) as EnsembleModel answers,
// FedAvg parameters, and the ensemble's construction.

#include "qens/fl/aggregation.h"

#include <limits>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace qens::fl
