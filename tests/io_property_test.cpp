// Randomized round-trip property sweeps for the two wire codecs (QENW
// models at kRawF64 and node profiles): any structurally valid payload must
// serialize and deserialize to a bit-identical value.

#include <gtest/gtest.h>

#include "qens/common/rng.h"
#include "qens/ml/model_codec.h"
#include "qens/selection/profile_io.h"

namespace qens {
namespace {

struct ModelShape {
  size_t in;
  size_t hidden;  // 0 = single layer.
  ml::Activation act;
};

class ModelIoPropertyTest : public ::testing::TestWithParam<ModelShape> {};

TEST_P(ModelIoPropertyTest, RandomWeightsRoundTripExactly) {
  const ModelShape shape = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ml::SequentialModel model;
    if (shape.hidden == 0) {
      ASSERT_TRUE(model.AddLayer(shape.in, 1, shape.act).ok());
    } else {
      ASSERT_TRUE(model.AddLayer(shape.in, shape.hidden, shape.act).ok());
      ASSERT_TRUE(
          model.AddLayer(shape.hidden, 1, ml::Activation::kIdentity).ok());
    }
    Rng rng(seed);
    model.InitWeights(&rng);
    // Inject awkward values: negatives, tiny, large, zero.
    auto params = model.GetParameters();
    if (!params.empty()) {
      params[0] = 0.0;
      params[params.size() / 2] = -1.7976931348623157e308 / 1e10;
      params.back() = 4.9406564584124654e-324;  // Denormal min.
      ASSERT_TRUE(model.SetParameters(params).ok());
    }
    auto bytes = ml::EncodeModel(model, ml::WireCodecKind::kRawF64);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto back = ml::DecodeModel(*bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(back->SameArchitecture(model));
    EXPECT_EQ(back->GetParameters(), model.GetParameters()) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ModelIoPropertyTest,
    ::testing::Values(ModelShape{1, 0, ml::Activation::kIdentity},
                      ModelShape{4, 0, ml::Activation::kIdentity},
                      ModelShape{1, 8, ml::Activation::kRelu},
                      ModelShape{6, 16, ml::Activation::kIdentity},
                      ModelShape{3, 64, ml::Activation::kRelu}));

struct ProfileShape {
  size_t clusters;
  size_t dims;
};

class ProfileIoPropertyTest : public ::testing::TestWithParam<ProfileShape> {};

TEST_P(ProfileIoPropertyTest, RandomProfilesRoundTripExactly) {
  const ProfileShape shape = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 13);
    selection::NodeProfile profile;
    profile.node_id = static_cast<size_t>(rng.UniformInt(uint64_t{1000}));
    profile.name = seed % 2 == 0 ? "node-x" : "";
    for (size_t c = 0; c < shape.clusters; ++c) {
      clustering::ClusterSummary cluster;
      cluster.size = static_cast<size_t>(rng.UniformInt(uint64_t{5000}));
      cluster.centroid.resize(shape.dims);
      std::vector<query::Interval> intervals(shape.dims);
      for (size_t d = 0; d < shape.dims; ++d) {
        const double lo = rng.Uniform(-1e6, 1e6);
        intervals[d] = query::Interval(lo, lo + rng.Uniform(0.0, 1e4));
        cluster.centroid[d] = rng.Uniform(intervals[d].lo, intervals[d].hi);
      }
      cluster.bounds = query::HyperRectangle(std::move(intervals));
      profile.total_samples += cluster.size;
      profile.clusters.push_back(std::move(cluster));
    }
    auto back =
        selection::DeserializeProfile(selection::SerializeProfile(profile));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->node_id, profile.node_id);
    EXPECT_EQ(back->total_samples, profile.total_samples);
    ASSERT_EQ(back->clusters.size(), profile.clusters.size());
    for (size_t c = 0; c < profile.clusters.size(); ++c) {
      EXPECT_EQ(back->clusters[c].size, profile.clusters[c].size);
      EXPECT_EQ(back->clusters[c].centroid, profile.clusters[c].centroid);
      EXPECT_EQ(back->clusters[c].bounds, profile.clusters[c].bounds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ProfileIoPropertyTest,
                         ::testing::Values(ProfileShape{1, 1},
                                           ProfileShape{5, 1},
                                           ProfileShape{5, 4},
                                           ProfileShape{12, 8},
                                           ProfileShape{3, 16}));

}  // namespace
}  // namespace qens
