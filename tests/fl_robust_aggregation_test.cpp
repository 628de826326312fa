// Tests for the Byzantine-robust aggregators behind MergeParameters —
// coordinate median, trimmed mean, norm-clipped FedAvg — the dispatcher's
// own contract, the robust EnsembleModel answers, and the central
// robustness property: with at most floor(beta * n) corrupted (finite,
// arbitrary) updates, the trimmed mean and the coordinate median stay
// inside the honest coordinate envelope.

#include "qens/fl/aggregation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "qens/tensor/vector_ops.h"

namespace qens::fl {
namespace {

/// A 1-feature linear model y = w x + b (2 parameters).
ml::SequentialModel Linear(double w, double b) {
  ml::SequentialModel m;
  EXPECT_TRUE(m.AddLayer(1, 1, ml::Activation::kIdentity).ok());
  m.layer(0).weights()(0, 0) = w;
  m.layer(0).bias()[0] = b;
  return m;
}

/// A small two-layer model with exactly `params` as its flat parameters.
ml::SequentialModel ModelWithParams(const std::vector<double>& params) {
  ml::SequentialModel m;
  EXPECT_TRUE(m.AddLayer(3, 2, ml::Activation::kIdentity).ok());
  EXPECT_TRUE(m.AddLayer(2, 1, ml::Activation::kIdentity).ok());
  EXPECT_TRUE(m.SetParameters(params).ok());
  return m;
}

constexpr size_t kParamCount = 3 * 2 + 2 + 2 * 1 + 1;  // 11

/// The three robust merges through the one dispatcher. The median and the
/// trimmed mean ignore weights, so they get equal ones.
Result<ml::SequentialModel> Median(
    const std::vector<ml::SequentialModel>& models) {
  return MergeParameters(AggregationKind::kCoordinateMedian, models,
                         std::vector<double>(models.size(), 1.0));
}

Result<ml::SequentialModel> Trimmed(
    const std::vector<ml::SequentialModel>& models, double trim_beta) {
  RobustAggregationOptions robust;
  robust.trim_beta = trim_beta;
  return MergeParameters(AggregationKind::kTrimmedMean, models,
                         std::vector<double>(models.size(), 1.0), robust);
}

Result<ml::SequentialModel> Clipped(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights, const ml::SequentialModel& reference,
    double clip_norm) {
  RobustAggregationOptions robust;
  robust.clip_norm = clip_norm;
  robust.reference = &reference;
  return MergeParameters(AggregationKind::kNormClippedFedAvg, models,
                         weights, robust);
}

std::vector<double> RandomParams(std::mt19937_64& rng, double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> params(kParamCount);
  for (double& p : params) p = dist(rng);
  return params;
}

/// The robustness property: aggregate `n` models of which `n_corrupt` carry
/// arbitrary finite parameters; every merged coordinate must lie within
/// [min, max] of the honest models' values at that coordinate.
void CheckWithinHonestEnvelope(size_t n, size_t n_corrupt, double trim_beta,
                               bool use_median, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<ml::SequentialModel> models;
  std::vector<std::vector<double>> honest_params;
  for (size_t i = 0; i < n; ++i) {
    // The first n_corrupt updates are corrupted — position must not matter
    // to an order statistic, and the draw order keeps the test readable.
    const bool corrupt = i < n_corrupt;
    std::vector<double> params = corrupt ? RandomParams(rng, -1e6, 1e6)
                                         : RandomParams(rng, -1.0, 1.0);
    if (!corrupt) honest_params.push_back(params);
    models.push_back(ModelWithParams(params));
  }
  auto merged = use_median ? Median(models) : Trimmed(models, trim_beta);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const std::vector<double> result = merged->GetParameters();
  ASSERT_EQ(result.size(), kParamCount);
  for (size_t c = 0; c < kParamCount; ++c) {
    double lo = honest_params[0][c], hi = lo;
    for (const auto& h : honest_params) {
      lo = std::min(lo, h[c]);
      hi = std::max(hi, h[c]);
    }
    EXPECT_GE(result[c], lo) << "coordinate " << c << " seed " << seed;
    EXPECT_LE(result[c], hi) << "coordinate " << c << " seed " << seed;
  }
}

TEST(RobustPropertyTest, MedianWithinHonestEnvelope) {
  // Coordinate median tolerates any minority of corrupted updates.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CheckWithinHonestEnvelope(/*n=*/7, /*n_corrupt=*/3, /*trim_beta=*/0.0,
                              /*use_median=*/true, seed);
  }
}

TEST(RobustPropertyTest, TrimmedMeanWithinHonestEnvelope) {
  // floor(0.3 * 10) = 3 trimmed from each end covers 3 corrupted updates.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CheckWithinHonestEnvelope(/*n=*/10, /*n_corrupt=*/3, /*trim_beta=*/0.3,
                              /*use_median=*/false, seed);
  }
}

TEST(CoordinateMedianTest, ExactForKnownValues) {
  std::vector<ml::SequentialModel> models = {Linear(1, 10), Linear(2, 20),
                                             Linear(1000, -5)};
  auto merged = Median(models);
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ(merged->layer(0).weights()(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(merged->layer(0).bias()[0], 10.0);
}

TEST(CoordinateMedianTest, EvenCountAveragesMiddlePair) {
  std::vector<ml::SequentialModel> models = {Linear(1, 0), Linear(3, 0),
                                             Linear(5, 0), Linear(100, 0)};
  auto merged = Median(models);
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ(merged->layer(0).weights()(0, 0), 4.0);
}

TEST(TrimmedMeanTest, TrimsBothEnds) {
  // beta = 0.25, n = 4 -> trim 1 from each end: mean(2, 3) = 2.5.
  std::vector<ml::SequentialModel> models = {Linear(-50, 0), Linear(2, 0),
                                             Linear(3, 0), Linear(90, 0)};
  auto merged = Trimmed(models, 0.25);
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ(merged->layer(0).weights()(0, 0), 2.5);
}

TEST(TrimmedMeanTest, BetaValidation) {
  std::vector<ml::SequentialModel> models = {Linear(1, 0), Linear(2, 0)};
  EXPECT_FALSE(Trimmed(models, -0.1).ok());
  EXPECT_FALSE(Trimmed(models, 0.5).ok());
  EXPECT_FALSE(Trimmed(models, std::nan("")).ok());
  // n = 2 with beta = 0.49 still trims 0, so it must succeed.
  EXPECT_TRUE(Trimmed(models, 0.49).ok());
}

TEST(NormClippedTest, BoundsDisplacementFromReference) {
  const ml::SequentialModel reference = Linear(1, 1);
  // One honest small update, one wildly scaled one.
  std::vector<ml::SequentialModel> models = {Linear(1.1, 1.0),
                                             Linear(5000, -4000)};
  auto merged = Clipped(models, {1.0, 1.0}, reference, /*clip_norm=*/1.0);
  ASSERT_TRUE(merged.ok());
  const double displacement = vec::Norm2(
      vec::Sub(merged->GetParameters(), reference.GetParameters()));
  EXPECT_LE(displacement, 1.0 + 1e-12);
}

TEST(NormClippedTest, SmallUpdatesUnclippedMatchFedAvg) {
  const ml::SequentialModel reference = Linear(0, 0);
  std::vector<ml::SequentialModel> models = {Linear(0.1, 0.0),
                                             Linear(0.0, 0.3)};
  auto clipped = Clipped(models, {1.0, 1.0}, reference, 10.0);
  auto fedavg = FedAvgParameters(models, {1.0, 1.0});
  ASSERT_TRUE(clipped.ok());
  ASSERT_TRUE(fedavg.ok());
  const std::vector<double> a = clipped->GetParameters();
  const std::vector<double> b = fedavg->GetParameters();
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(NormClippedTest, InvalidClipNorm) {
  const ml::SequentialModel reference = Linear(0, 0);
  std::vector<ml::SequentialModel> models = {Linear(1, 0)};
  EXPECT_FALSE(Clipped(models, {1.0}, reference, 0.0).ok());
  EXPECT_FALSE(Clipped(models, {1.0}, reference,
                       std::numeric_limits<double>::infinity())
                   .ok());
  EXPECT_FALSE(Clipped(models, {1.0}, reference, std::nan("")).ok());
}

TEST(RobustAggregationTest, NonFiniteParametersRejected) {
  std::vector<ml::SequentialModel> models = {
      Linear(std::numeric_limits<double>::quiet_NaN(), 0), Linear(1, 0)};
  EXPECT_FALSE(Median(models).ok());
  EXPECT_FALSE(Trimmed(models, 0.1).ok());
  EXPECT_FALSE(Clipped(models, {1.0, 1.0}, Linear(0, 0), 1.0).ok());
  // The ensemble's robust answers refuse the same members.
  auto ensemble = EnsembleModel::Create(models, {1.0, 1.0});
  ASSERT_TRUE(ensemble.ok());
  const ml::SequentialModel reference = Linear(0, 0);
  RobustAggregationOptions robust;
  robust.reference = &reference;
  Matrix x{{1.0}};
  for (AggregationKind kind :
       {AggregationKind::kCoordinateMedian, AggregationKind::kTrimmedMean,
        AggregationKind::kNormClippedFedAvg}) {
    EXPECT_FALSE(ensemble->Predict(x, kind, robust).ok())
        << AggregationKindName(kind);
  }
}

TEST(RobustAggregationTest, EmptyInputRejected) {
  const ml::SequentialModel reference = Linear(0, 0);
  RobustAggregationOptions robust;
  robust.reference = &reference;
  for (AggregationKind kind :
       {AggregationKind::kFedAvgParameters, AggregationKind::kCoordinateMedian,
        AggregationKind::kTrimmedMean, AggregationKind::kNormClippedFedAvg}) {
    EXPECT_FALSE(MergeParameters(kind, {}, {}, robust).ok())
        << AggregationKindName(kind);
  }
}

TEST(MergeParametersTest, ParameterSpaceKindsPartitionTheRules) {
  EXPECT_FALSE(IsParameterSpace(AggregationKind::kModelAveraging));
  EXPECT_FALSE(IsParameterSpace(AggregationKind::kWeightedAveraging));
  EXPECT_TRUE(IsParameterSpace(AggregationKind::kFedAvgParameters));
  EXPECT_TRUE(IsParameterSpace(AggregationKind::kCoordinateMedian));
  EXPECT_TRUE(IsParameterSpace(AggregationKind::kTrimmedMean));
  EXPECT_TRUE(IsParameterSpace(AggregationKind::kNormClippedFedAvg));
}

TEST(MergeParametersTest, RejectsPredictionSpaceKinds) {
  std::vector<ml::SequentialModel> models = {Linear(1, 0), Linear(3, 0)};
  EXPECT_FALSE(MergeParameters(AggregationKind::kModelAveraging, models,
                               {1.0, 1.0})
                   .ok());
  EXPECT_FALSE(MergeParameters(AggregationKind::kWeightedAveraging, models,
                               {1.0, 1.0})
                   .ok());
}

TEST(MergeParametersTest, FedAvgKindIsFedAvgParametersBitForBit) {
  std::vector<ml::SequentialModel> models = {Linear(0.1, 0.7),
                                             Linear(-2.3, 0.4),
                                             Linear(5.9, -1.1)};
  const std::vector<double> weights = {3.0, 1.0, 7.0};
  auto merged =
      MergeParameters(AggregationKind::kFedAvgParameters, models, weights);
  auto direct = FedAvgParameters(models, weights);
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(merged->GetParameters(), direct->GetParameters());
}

TEST(MergeParametersTest, NormClippedNeedsReference) {
  std::vector<ml::SequentialModel> models = {Linear(1, 0)};
  EXPECT_FALSE(MergeParameters(AggregationKind::kNormClippedFedAvg, models,
                               {1.0})
                   .ok());
}

TEST(EnsembleRobustTest, RobustKindsPredict) {
  auto ensemble = EnsembleModel::Create(
      {Linear(1, 0), Linear(2, 0), Linear(900, 0)}, {1.0, 1.0, 1.0});
  ASSERT_TRUE(ensemble.ok());
  Matrix x{{1.0}};
  RobustAggregationOptions robust;
  auto median =
      ensemble->Predict(x, AggregationKind::kCoordinateMedian, robust);
  ASSERT_TRUE(median.ok());
  EXPECT_DOUBLE_EQ((*median)(0, 0), 2.0);
  robust.trim_beta = 0.34;
  auto trimmed = ensemble->Predict(x, AggregationKind::kTrimmedMean, robust);
  ASSERT_TRUE(trimmed.ok());
  EXPECT_DOUBLE_EQ((*trimmed)(0, 0), 2.0);
  // The clipped kind needs a reference model.
  EXPECT_FALSE(
      ensemble->Predict(x, AggregationKind::kNormClippedFedAvg, robust).ok());
  const ml::SequentialModel reference = Linear(2, 0);
  robust.reference = &reference;
  robust.clip_norm = 0.5;
  auto clipped =
      ensemble->Predict(x, AggregationKind::kNormClippedFedAvg, robust);
  ASSERT_TRUE(clipped.ok());
  // Every update is clipped to norm <= 0.5 around w = 2: the merged slope
  // stays within [1.5, 2.5], so the prediction at x = 1 does too.
  EXPECT_GE((*clipped)(0, 0), 1.5);
  EXPECT_LE((*clipped)(0, 0), 2.5);
}

}  // namespace
}  // namespace qens::fl
