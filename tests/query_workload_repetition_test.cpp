// Pins the seed-replay and region-repetition behavior of the workload
// generator: the same seed must reproduce bit-identical query rectangles
// (so a replayed workload repeats its regions exactly), distinct seeds
// must produce distinct regions, and a W-query pool replayed round-robin
// must repeat an earlier region on every draw after the first pass.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "qens/query/workload_generator.h"

namespace qens::query {
namespace {

HyperRectangle DataSpace() {
  return HyperRectangle::FromFlatBounds({0, 10, -5, 5, 100, 200}).value();
}

WorkloadOptions BaseOptions() {
  WorkloadOptions options;
  options.num_queries = 50;
  options.seed = 4242;
  return options;
}

std::vector<double> FlatRegions(const std::vector<RangeQuery>& workload) {
  std::vector<double> flat;
  for (const auto& q : workload) {
    for (double v : q.region.ToFlatBounds()) flat.push_back(v);
  }
  return flat;
}

TEST(WorkloadRepetitionTest, SameSeedReplaysBitwiseIdenticalWorkload) {
  WorkloadGenerator a(DataSpace(), BaseOptions());
  WorkloadGenerator b(DataSpace(), BaseOptions());
  auto wa = a.Generate();
  auto wb = b.Generate();
  ASSERT_TRUE(wa.ok());
  ASSERT_TRUE(wb.ok());
  ASSERT_EQ(wa->size(), wb->size());
  for (size_t i = 0; i < wa->size(); ++i) {
    EXPECT_EQ((*wa)[i].id, (*wb)[i].id);
    // Interval equality is exact double ==, i.e. bitwise for these values.
    EXPECT_TRUE((*wa)[i].region == (*wb)[i].region) << "query " << i;
  }
}

TEST(WorkloadRepetitionTest, NextStreamMatchesGenerate) {
  WorkloadGenerator batch(DataSpace(), BaseOptions());
  WorkloadGenerator stream(DataSpace(), BaseOptions());
  auto workload = batch.Generate();
  ASSERT_TRUE(workload.ok());
  for (size_t i = 0; i < workload->size(); ++i) {
    auto q = stream.Next();
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->id, (*workload)[i].id);
    EXPECT_TRUE(q->region == (*workload)[i].region) << "query " << i;
  }
}

TEST(WorkloadRepetitionTest, DriftingModeReplaysExactly) {
  WorkloadOptions options = BaseOptions();
  options.drifting_centers = true;
  options.drift_step_frac = 0.2;
  WorkloadGenerator a(DataSpace(), options);
  WorkloadGenerator b(DataSpace(), options);
  auto wa = a.Generate();
  auto wb = b.Generate();
  ASSERT_TRUE(wa.ok());
  ASSERT_TRUE(wb.ok());
  EXPECT_EQ(FlatRegions(*wa), FlatRegions(*wb));
}

TEST(WorkloadRepetitionTest, DistinctSeedsAndQueriesProduceDistinctRegions) {
  WorkloadOptions options = BaseOptions();
  WorkloadGenerator a(DataSpace(), options);
  options.seed = 4243;
  WorkloadGenerator b(DataSpace(), options);
  auto wa = a.Generate();
  auto wb = b.Generate();
  ASSERT_TRUE(wa.ok());
  ASSERT_TRUE(wb.ok());
  EXPECT_NE(FlatRegions(*wa), FlatRegions(*wb));

  // Within one workload, regions are continuous draws: all distinct.
  std::set<std::vector<double>> regions;
  for (const auto& q : *wa) regions.insert(q.region.ToFlatBounds());
  EXPECT_EQ(regions.size(), wa->size());
}

TEST(WorkloadRepetitionTest, PoolReplayRepeatsRegionsAtTheExpectedRate) {
  // An application replaying a fixed W-query pool round-robin: every query
  // after the first pass repeats an earlier region exactly, so repeats /
  // total = 1 - W / total.
  constexpr size_t kPool = 8;
  constexpr size_t kTotal = 40;
  WorkloadOptions options = BaseOptions();
  options.num_queries = kPool;
  WorkloadGenerator gen(
      HyperRectangle::FromFlatBounds({0, 10, 0, 10}).value(), options);
  auto pool = gen.Generate();
  ASSERT_TRUE(pool.ok());

  std::vector<HyperRectangle> seen;
  size_t repeats = 0;
  for (size_t i = 0; i < kTotal; ++i) {
    const HyperRectangle& region = (*pool)[i % kPool].region;
    bool repeat = false;
    for (const HyperRectangle& earlier : seen) repeat |= earlier == region;
    if (repeat) {
      ++repeats;
    } else {
      seen.push_back(region);
    }
  }
  EXPECT_EQ(seen.size(), kPool);
  EXPECT_EQ(repeats, kTotal - kPool);
}

}  // namespace
}  // namespace qens::query
