// Tests for the Dataset container.

#include "qens/data/dataset.h"

#include <gtest/gtest.h>

namespace qens::data {
namespace {

Dataset Small() {
  Matrix x{{1, 10}, {2, 20}, {3, 30}};
  Matrix y{{100}, {200}, {300}};
  return Dataset::Create(x, y, {"a", "b"}, "t").value();
}

TEST(DatasetTest, CreateValid) {
  Dataset d = Small();
  EXPECT_EQ(d.NumSamples(), 3u);
  EXPECT_EQ(d.NumFeatures(), 2u);
  EXPECT_FALSE(d.empty());
  EXPECT_EQ(d.target_name(), "t");
  EXPECT_EQ(d.feature_names()[1], "b");
}

TEST(DatasetTest, CreateAutoNames) {
  Matrix x(2, 3);
  Matrix y(2, 1);
  auto d = Dataset::Create(x, y);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->feature_names(), (std::vector<std::string>{"f0", "f1", "f2"}));
  EXPECT_EQ(d->target_name(), "target");
}

TEST(DatasetTest, CreateErrors) {
  Matrix x(3, 2), y(2, 1);
  EXPECT_FALSE(Dataset::Create(x, y).ok());  // Row mismatch.
  Matrix y2(3, 2);
  EXPECT_FALSE(Dataset::Create(x, y2).ok());  // Multi-column target.
  Matrix y3(3, 1);
  EXPECT_FALSE(Dataset::Create(x, y3, {"only-one"}, "t").ok());  // Names.
}

TEST(DatasetTest, TargetVector) {
  EXPECT_EQ(Small().TargetVector(), (std::vector<double>{100, 200, 300}));
}

TEST(DatasetTest, SelectRows) {
  auto sel = Small().SelectRows(std::vector<size_t>{2, 0});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->NumSamples(), 2u);
  EXPECT_DOUBLE_EQ(sel->features()(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sel->targets()(1, 0), 100.0);
  EXPECT_EQ(sel->feature_names(), Small().feature_names());
}

TEST(DatasetTest, SelectRowsOutOfRange) {
  EXPECT_FALSE(Small().SelectRows(std::vector<size_t>{5}).ok());
}

TEST(DatasetTest, StackShardsStacksInOrder) {
  const std::vector<Dataset> shards = {Small(), Small()};
  auto both = StackShards(shards);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->NumSamples(), 6u);
  EXPECT_DOUBLE_EQ(both->features()(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(both->targets()(5, 0), 300.0);
  EXPECT_EQ(both->feature_names(), Small().feature_names());
}

TEST(DatasetTest, GatherRowsMatchesSelectRowsPerView) {
  const Dataset a = Small();
  Matrix x(4, 2), y(4, 1);
  for (size_t r = 0; r < 4; ++r) {
    x(r, 0) = 10.0 + r;
    x(r, 1) = -1.0 * r;
    y(r, 0) = 0.5 * r;
  }
  const Dataset b = Dataset::Create(x, y).value();
  const std::vector<size_t> ra = {2, 0, 2};
  const std::vector<size_t> rb = {3, 1};
  const std::vector<RowView> views = {{&a, ra}, {&b, rb}};
  auto pooled = GatherRows(views);
  ASSERT_TRUE(pooled.ok());
  // Reference: each view copied by Matrix::SelectRows, then appended in
  // view order.
  std::vector<double> want_x = a.features().SelectRows(ra).value().data();
  std::vector<double> want_y = a.targets().SelectRows(ra).value().data();
  const std::vector<double> bx = b.features().SelectRows(rb).value().data();
  const std::vector<double> by = b.targets().SelectRows(rb).value().data();
  want_x.insert(want_x.end(), bx.begin(), bx.end());
  want_y.insert(want_y.end(), by.begin(), by.end());
  EXPECT_EQ(pooled->features().data(), want_x);
  EXPECT_EQ(pooled->targets().data(), want_y);
  EXPECT_EQ(pooled->NumSamples(), 5u);
}

TEST(DatasetTest, GatherRowsErrors) {
  const Dataset a = Small();
  EXPECT_TRUE(GatherRows({}).status().IsInvalidArgument());
  const std::vector<size_t> bad = {3};
  const std::vector<RowView> out_of_range = {{&a, bad}};
  EXPECT_TRUE(GatherRows(out_of_range).status().IsOutOfRange());
  Matrix x(1, 3), y(1, 1);
  const Dataset wide = Dataset::Create(x, y).value();
  const std::vector<size_t> zero = {0};
  const std::vector<RowView> mismatch = {{&a, zero}, {&wide, zero}};
  EXPECT_TRUE(GatherRows(mismatch).status().IsInvalidArgument());
}

TEST(DatasetTest, FeatureSpace) {
  auto space = Small().FeatureSpace();
  ASSERT_TRUE(space.ok());
  EXPECT_DOUBLE_EQ(space->dim(0).lo, 1.0);
  EXPECT_DOUBLE_EQ(space->dim(0).hi, 3.0);
  EXPECT_DOUBLE_EQ(space->dim(1).hi, 30.0);
}

TEST(DatasetTest, FeatureIndex) {
  EXPECT_EQ(Small().FeatureIndex("b").value(), 1u);
  EXPECT_TRUE(Small().FeatureIndex("zzz").status().IsNotFound());
}

TEST(DatasetTest, DefaultIsEmpty) {
  Dataset d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.NumSamples(), 0u);
}

}  // namespace
}  // namespace qens::data
