// Tests for participant-side local training: per-cluster incremental
// fitting (data selectivity) vs full-data training, cost accounting.

#include "qens/fl/participant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"

namespace qens::fl {
namespace {

/// Node data in two well-separated x-blobs with one linear relation. Kept
/// at unit scale: the participant API trains on data exactly as given (the
/// Federation layer owns normalization), and Table III's lr = 0.03 is only
/// stable at unit scale.
data::Dataset TwoBlobData(uint64_t seed, size_t per_blob = 150) {
  Rng rng(seed);
  Matrix x(2 * per_blob, 1), y(2 * per_blob, 1);
  for (size_t i = 0; i < per_blob; ++i) {
    x(i, 0) = rng.Uniform(0, 1);
    x(per_blob + i, 0) = rng.Uniform(2, 3);
  }
  for (size_t i = 0; i < 2 * per_blob; ++i) {
    y(i, 0) = 3.0 * x(i, 0) + rng.Gaussian(0, 0.05);
  }
  return data::Dataset::Create(x, y).value();
}

sim::EdgeNode MakeNode(uint64_t seed) {
  sim::EdgeNode node(0, "n0", TwoBlobData(seed), 1.0);
  clustering::KMeansOptions km;
  km.k = 2;
  km.seed = seed;
  EXPECT_TRUE(node.Quantize(km).ok());
  return node;
}

ml::SequentialModel FreshModel(uint64_t seed) {
  Rng rng(seed);
  return ml::BuildModel(ml::ModelKind::kLinearRegression, 1, &rng).value();
}

LocalTrainOptions FastOptions() {
  LocalTrainOptions options;
  options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  options.hyper.epochs = 30;
  options.epochs_per_cluster = 15;
  options.seed = 3;
  return options;
}

TEST(ParticipantTest, TrainOnSupportingClustersUsesOnlyThoseRows) {
  sim::EdgeNode node = MakeNode(1);
  const sim::CostModel cost;
  auto result = TrainOnSupportingClusters(node, FreshModel(1), {0},
                                          FastOptions(), cost);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->samples_used, node.NumSamples());
  EXPECT_EQ(result->samples_total, node.NumSamples());
  EXPECT_EQ(result->cluster_final_loss.size(), 1u);
  EXPECT_GT(result->sim_train_seconds, 0.0);
}

TEST(ParticipantTest, AllClustersCoverWholeNode) {
  sim::EdgeNode node = MakeNode(2);
  const sim::CostModel cost;
  auto result = TrainOnSupportingClusters(node, FreshModel(2), {0, 1},
                                          FastOptions(), cost);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->samples_used, node.NumSamples());
  EXPECT_EQ(result->cluster_final_loss.size(), 2u);
}

TEST(ParticipantTest, IncrementalTrainingLearnsRelation) {
  sim::EdgeNode node = MakeNode(3);
  const sim::CostModel cost;
  auto result = TrainOnSupportingClusters(node, FreshModel(3), {0, 1},
                                          FastOptions(), cost);
  ASSERT_TRUE(result.ok());
  // The learned model approximates y = 3x on the node's data.
  auto pred = result->model.Predict(node.local_data().features());
  ASSERT_TRUE(pred.ok());
  auto loss = ml::ComputeLoss(ml::LossKind::kMse, *pred,
                              node.local_data().targets());
  ASSERT_TRUE(loss.ok());
  EXPECT_LT(*loss, 0.5);
}

TEST(ParticipantTest, GlobalModelNotMutated) {
  sim::EdgeNode node = MakeNode(4);
  const sim::CostModel cost;
  ml::SequentialModel global = FreshModel(4);
  const std::vector<double> before = global.GetParameters();
  ASSERT_TRUE(
      TrainOnSupportingClusters(node, global, {0}, FastOptions(), cost).ok());
  EXPECT_EQ(global.GetParameters(), before);
}

TEST(ParticipantTest, TrainOnFullDataUsesEverything) {
  sim::EdgeNode node = MakeNode(5);
  const sim::CostModel cost;
  auto result = TrainOnFullData(node, FreshModel(5), FastOptions(), cost);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->samples_used, node.NumSamples());
  EXPECT_GT(result->samples_seen, node.NumSamples());  // epochs > 1.
}

TEST(ParticipantTest, SelectiveTrainingIsCheaperThanFull) {
  sim::EdgeNode node = MakeNode(6);
  const sim::CostModel cost;
  auto selective = TrainOnSupportingClusters(node, FreshModel(6), {0},
                                             FastOptions(), cost);
  auto full = TrainOnFullData(node, FreshModel(6), FastOptions(), cost);
  ASSERT_TRUE(selective.ok());
  ASSERT_TRUE(full.ok());
  // Fig. 8's shape at the single-node level: selectivity trains on fewer
  // samples and costs less simulated time.
  EXPECT_LT(selective->samples_used, full->samples_used);
  EXPECT_LT(selective->sim_train_seconds, full->sim_train_seconds);
}

TEST(ParticipantTest, CapacityScalesSimTime) {
  data::Dataset d = TwoBlobData(7);
  sim::EdgeNode slow(0, "slow", d, 0.5);
  sim::EdgeNode fast(1, "fast", d, 2.0);
  clustering::KMeansOptions km;
  km.k = 2;
  ASSERT_TRUE(slow.Quantize(km).ok());
  ASSERT_TRUE(fast.Quantize(km).ok());
  const sim::CostModel cost;
  auto rs = TrainOnFullData(slow, FreshModel(7), FastOptions(), cost);
  auto rf = TrainOnFullData(fast, FreshModel(7), FastOptions(), cost);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rf.ok());
  EXPECT_GT(rs->sim_train_seconds, rf->sim_train_seconds);
}

TEST(ParticipantTest, Errors) {
  sim::EdgeNode node = MakeNode(8);
  const sim::CostModel cost;
  EXPECT_FALSE(TrainOnSupportingClusters(node, FreshModel(8), {},
                                         FastOptions(), cost)
                   .ok());
  LocalTrainOptions bad = FastOptions();
  bad.epochs_per_cluster = 0;
  EXPECT_FALSE(
      TrainOnSupportingClusters(node, FreshModel(8), {0}, bad, cost).ok());
  EXPECT_FALSE(TrainOnSupportingClusters(node, FreshModel(8), {99},
                                         FastOptions(), cost)
                   .ok());
}

/// A label-poisoning node's training, rebuilt from copies: each supporting
/// cluster copied out with Matrix::SelectRows, its targets mirrored as
/// y' = lo + hi - y with [lo, hi] the range of the cluster's own targets (or,
/// for the contrast case, of the whole store's), then one Fit per cluster.
std::vector<double> PoisonedReference(const sim::EdgeNode& node,
                                      const std::vector<size_t>& clusters,
                                      const LocalTrainOptions& options,
                                      bool whole_store_range) {
  ml::HyperParams hp = options.hyper;
  hp.epochs = options.epochs_per_cluster;
  hp.validation_split = 0.0;
  auto trainer =
      ml::BuildTrainer(hp, SplitRng(options.seed).Split(node.id()).key())
          .value();
  ml::SequentialModel model = FreshModel(9);
  const data::Dataset& store = node.local_data();
  for (size_t c : clusters) {
    const auto view = node.ClusterRows(c).value();
    const std::vector<size_t> rows(view.begin(), view.end());
    const Matrix x = store.features().SelectRows(rows).value();
    const Matrix y = store.targets().SelectRows(rows).value();
    const Matrix& range = whole_store_range ? store.targets() : y;
    const auto [lo, hi] =
        std::minmax_element(range.data().begin(), range.data().end());
    Matrix mirrored = y;
    for (double& v : mirrored.data()) v = *lo + *hi - v;
    EXPECT_TRUE(trainer->Fit(&model, x, mirrored).ok());
  }
  return model.GetParameters();
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ParticipantTest, PoisoningMirrorsEachClusterWithinItsOwnRange) {
  sim::EdgeNode node = MakeNode(9);
  // The two blobs' targets span about [0, 3] and [6, 9]: mirroring within
  // each cluster differs from mirroring within the whole store.
  const std::vector<size_t> clusters = {1, 0};
  LocalTrainOptions options = FastOptions();
  options.poison_labels = true;
  const sim::CostModel cost;
  auto result =
      TrainOnSupportingClusters(node, FreshModel(9), clusters, options, cost);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->samples_used, node.NumSamples());
  const std::vector<double> got = result->model.GetParameters();
  EXPECT_TRUE(SameBits(got, PoisonedReference(node, clusters, options,
                                              /*whole_store_range=*/false)));
  EXPECT_FALSE(SameBits(got, PoisonedReference(node, clusters, options,
                                               /*whole_store_range=*/true)));
}

}  // namespace
}  // namespace qens::fl
