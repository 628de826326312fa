// Allocation pin of the leader-side layers of a query. This binary replaces
// global operator new with a counting version (off except inside a
// CountAllocs window), then asserts:
//   - a warmed selection::ScanRanks makes no allocation at all;
//   - a warmed Leader::Decide over 96 nodes x 5 clusters makes the same
//     number of allocations as over 12 nodes x 2 clusters with the same
//     selection: all_ranks, selected and one cluster_scores per selected
//     node, nothing per node or per cluster;
//   - Fleet::QueryRegionTestData makes the same number of allocations per
//     query at 2 shards and at 96, matching a handful of rows or all of
//     them.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "qens/common/rng.h"
#include "qens/fl/leader.h"
#include "qens/fl/query_session.h"
#include "qens/selection/ranking.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// Out of line so the compiler does not pair an inlined free() with a
// new-expression and warn about a mismatch that the replacement makes valid.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace qens::fl {
namespace {

/// Heap allocations made by `fn`.
template <typename Fn>
uint64_t CountAllocs(Fn&& fn) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(LeaderAllocTest, CounterSeesAllocations) {
  // Guards the hook itself: a zero below must mean "no allocation", not
  // "the counter is not wired".
  const uint64_t n = CountAllocs([] {
    auto p = std::make_unique<Matrix>(4, 4);
    EXPECT_EQ(p->size(), 16u);
  });
  EXPECT_GE(n, 2u);
}

/// `nodes` nodes of `k` 1-D clusters. Node i's clusters tile [i, i + 1]
/// except for its last two nodes' worth, so a query over [0, 3] is
/// supported by nodes 0-2 only.
std::vector<selection::NodeProfile> Fleet1D(size_t nodes, size_t k) {
  std::vector<selection::NodeProfile> fleet(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    fleet[i].node_id = i;
    for (size_t c = 0; c < k; ++c) {
      clustering::ClusterSummary cluster;
      const double lo = static_cast<double>(i) +
                        static_cast<double>(c) / static_cast<double>(k);
      cluster.bounds = query::HyperRectangle(
          {query::Interval(lo, lo + 1.0 / static_cast<double>(k))});
      cluster.size = 10;
      fleet[i].clusters.push_back(cluster);
      fleet[i].total_samples += cluster.size;
    }
  }
  return fleet;
}

query::RangeQuery Query1D(double lo, double hi) {
  query::RangeQuery q;
  q.region = query::HyperRectangle({query::Interval(lo, hi)});
  return q;
}

TEST(LeaderAllocTest, WarmScanAllocatesNothing) {
  const std::vector<selection::NodeProfile> fleet = Fleet1D(96, 5);
  selection::RankScan scan;
  selection::RankingOptions options;
  options.epsilon = 0.1;
  const query::RangeQuery q = Query1D(0, 3);
  ASSERT_TRUE(selection::ScanRanks(fleet, q, options, &scan).ok());
  EXPECT_EQ(CountAllocs([&] {
              ASSERT_TRUE(
                  selection::ScanRanks(fleet, q, options, &scan).ok());
            }),
            0u);
}

/// Allocations of one warmed Decide over `nodes` x `k`; the query selects
/// three nodes either way.
uint64_t DecideAllocs(size_t nodes, size_t k) {
  selection::RankingOptions ranking;
  ranking.epsilon = 0.1;
  selection::QueryDrivenOptions cut;
  cut.top_l = 8;
  Leader leader(Fleet1D(nodes, k), ranking, cut);
  const query::RangeQuery q = Query1D(0, 3);
  EXPECT_EQ(leader.Decide(q)->selected.size(), 3u);  // Warm-up.
  return CountAllocs([&] {
    const auto decision = leader.Decide(q);
    ASSERT_TRUE(decision.ok());
    ASSERT_EQ(decision->selected.size(), 3u);
  });
}

TEST(LeaderAllocTest, WarmDecideAllocatesNothingPerNodeOrCluster) {
  const uint64_t small = DecideAllocs(12, 2);
  const uint64_t large = DecideAllocs(96, 5);
  EXPECT_EQ(large, small);
  // all_ranks, selected, and one cluster_scores per selected node.
  EXPECT_EQ(large, 2u + 3u);
}

/// One node: one feature uniform in [offset, offset + 10].
data::Dataset NodeData(double offset, uint64_t seed) {
  Rng rng(seed);
  Matrix x(100, 1), y(100, 1);
  for (size_t i = 0; i < 100; ++i) {
    x(i, 0) = offset + rng.Uniform(0, 10);
    y(i, 0) = 2.0 * x(i, 0) + rng.Gaussian(0, 0.1);
  }
  return data::Dataset::Create(x, y, {"feature_with_a_long_name"},
                               "target_with_a_long_name")
      .value();
}

std::shared_ptr<Fleet> MakeFleet(size_t nodes) {
  FederationOptions options;
  options.environment.kmeans.k = 2;
  options.test_fraction = 0.3;
  std::vector<data::Dataset> data;
  for (size_t i = 0; i < nodes; ++i) {
    data.push_back(NodeData(static_cast<double>(i % 8) * 5.0, 10 + i));
  }
  return Fleet::Create(std::move(data), options).value();
}

TEST(LeaderAllocTest, RegionPoolAllocationsIgnoreShardsAndMatches) {
  std::vector<uint64_t> counts;
  for (size_t nodes : {2, 96}) {
    const std::shared_ptr<Fleet> fleet = MakeFleet(nodes);
    // A narrow query (a few rows) and one over everything.
    for (const query::RangeQuery& q : {Query1D(2.0, 2.5), Query1D(-1, 100)}) {
      size_t rows = 0;
      counts.push_back(CountAllocs([&] {
        const auto pooled = fleet->QueryRegionTestData(q);
        ASSERT_TRUE(pooled.ok());
        rows = pooled->NumSamples();
      }));
      EXPECT_GT(rows, 0u);
    }
  }
  for (uint64_t count : counts) EXPECT_EQ(count, counts[0]);
}

}  // namespace
}  // namespace qens::fl
