// Tests for the selection policies: top-l, Eq. 5 threshold, random, all.

#include "qens/selection/policies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace qens::selection {
namespace {

std::vector<NodeRank> RankedList(const std::vector<double>& rankings) {
  // Build a DESC-sorted rank list with node ids equal to input order.
  std::vector<NodeRank> out;
  for (size_t i = 0; i < rankings.size(); ++i) {
    NodeRank r;
    r.node_id = i;
    r.ranking = rankings[i];
    out.push_back(r);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const NodeRank& a, const NodeRank& b) {
                     return a.ranking > b.ranking;
                   });
  return out;
}

TEST(SelectTopLTest, TakesHighestRanked) {
  auto ranked = RankedList({0.5, 2.0, 1.0, 0.1});
  auto sel = SelectTopL(ranked, 2);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->size(), 2u);
  EXPECT_EQ((*sel)[0].node_id, 1u);
  EXPECT_EQ((*sel)[1].node_id, 2u);
}

TEST(SelectTopLTest, LLargerThanListReturnsAll) {
  auto ranked = RankedList({0.5, 2.0});
  auto sel = SelectTopL(ranked, 10);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 2u);
}

TEST(SelectTopLTest, DropsZeroRankByDefault) {
  auto ranked = RankedList({0.0, 2.0, 0.0});
  auto sel = SelectTopL(ranked, 3);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->size(), 1u);
  EXPECT_EQ((*sel)[0].node_id, 1u);
}

TEST(SelectTopLTest, KeepZeroRankWhenAsked) {
  auto ranked = RankedList({0.0, 2.0});
  auto sel = SelectTopL(ranked, 2, /*drop_zero_rank=*/false);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 2u);
}

TEST(SelectTopLTest, ZeroLFails) {
  EXPECT_FALSE(SelectTopL(RankedList({1.0}), 0).ok());
}

TEST(SelectByThresholdTest, Eq5Semantics) {
  auto ranked = RankedList({0.5, 2.0, 1.0, 0.1});
  auto sel = SelectByThreshold(ranked, 0.75);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->size(), 2u);
  for (const auto& r : *sel) EXPECT_GE(r.ranking, 0.75);
}

TEST(SelectByThresholdTest, InclusiveAtPsi) {
  auto ranked = RankedList({0.75});
  auto sel = SelectByThreshold(ranked, 0.75);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 1u);
}

TEST(SelectByThresholdTest, EmptyWhenAllBelow) {
  auto sel = SelectByThreshold(RankedList({0.1, 0.2}), 5.0);
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(sel->empty());
}

TEST(SelectByThresholdTest, NonPositivePsiFails) {
  EXPECT_FALSE(SelectByThreshold(RankedList({1.0}), 0.0).ok());
  EXPECT_FALSE(SelectByThreshold(RankedList({1.0}), -1.0).ok());
}

TEST(SelectQueryDrivenTest, SwitchesOnOptions) {
  auto ranked = RankedList({0.5, 2.0, 1.0});
  QueryDrivenOptions top;
  top.top_l = 1;
  auto s1 = SelectQueryDriven(ranked, top);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->size(), 1u);

  QueryDrivenOptions thresh;
  thresh.use_threshold = true;
  thresh.psi = 0.9;
  auto s2 = SelectQueryDriven(ranked, thresh);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->size(), 2u);
}

TEST(QueryDrivenCutLengthTest, KeepsTheFilteredPrefixOfASortedList) {
  // Reference: the cuts as filters over the whole list. On a DESC-sorted
  // list with rankings >= 0 (zeros and ties included) each keeps a prefix.
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> rankings(rng.UniformInt(uint64_t{12}));
    for (double& r : rankings) {
      r = static_cast<double>(rng.UniformInt(uint64_t{4})) * 0.5;
    }
    const std::vector<NodeRank> ranked = RankedList(rankings);
    QueryDrivenOptions options;
    options.top_l = 1 + rng.UniformInt(uint64_t{6});
    options.drop_zero_rank = rng.UniformInt(uint64_t{2}) == 0;
    options.use_threshold = rng.UniformInt(uint64_t{2}) == 0;
    options.psi = 0.5 + static_cast<double>(rng.UniformInt(uint64_t{3}));
    std::vector<size_t> want;
    for (const NodeRank& r : ranked) {
      if (options.use_threshold) {
        if (r.ranking >= options.psi) want.push_back(r.node_id);
        continue;
      }
      if (want.size() >= options.top_l) break;
      if (options.drop_zero_rank && r.ranking <= 0.0) continue;
      want.push_back(r.node_id);
    }
    const auto kept = QueryDrivenCutLength(ranked, options);
    ASSERT_TRUE(kept.ok());
    ASSERT_EQ(*kept, want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(ranked[i].node_id, want[i]);
    }
    const auto selected = SelectQueryDriven(ranked, options);
    ASSERT_TRUE(selected.ok());
    EXPECT_EQ(selected->size(), want.size());
  }
}

TEST(QueryDrivenCutLengthTest, FailsLikeTheCuts) {
  const std::vector<NodeRank> ranked = RankedList({1.0});
  QueryDrivenOptions top;
  top.top_l = 0;
  EXPECT_EQ(QueryDrivenCutLength(ranked, top).status().code(),
            SelectTopL(ranked, 0).status().code());
  QueryDrivenOptions thresh;
  thresh.use_threshold = true;
  thresh.psi = 0.0;
  EXPECT_EQ(QueryDrivenCutLength(ranked, thresh).status().code(),
            SelectByThreshold(ranked, 0.0).status().code());
  EXPECT_FALSE(QueryDrivenCutLength(ranked, thresh).ok());
}

TEST(SelectRandomTest, SizeBoundsAndDistinctness) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    auto sel = SelectRandom(10, 4, &rng);
    ASSERT_TRUE(sel.ok());
    ASSERT_EQ(sel->size(), 4u);
    std::set<size_t> distinct(sel->begin(), sel->end());
    EXPECT_EQ(distinct.size(), 4u);
    for (size_t id : *sel) EXPECT_LT(id, 10u);
  }
}

TEST(SelectRandomTest, CoversAllNodesOverTrials) {
  Rng rng(2);
  std::set<size_t> seen;
  for (int trial = 0; trial < 200; ++trial) {
    auto sel = SelectRandom(6, 2, &rng);
    ASSERT_TRUE(sel.ok());
    seen.insert(sel->begin(), sel->end());
  }
  EXPECT_EQ(seen.size(), 6u);  // Every node eventually drawn.
}

TEST(SelectRandomTest, Errors) {
  Rng rng(3);
  EXPECT_FALSE(SelectRandom(5, 0, &rng).ok());
  EXPECT_FALSE(SelectRandom(5, 6, &rng).ok());
}

TEST(SelectAllNodesTest, ReturnsEveryId) {
  EXPECT_EQ(SelectAllNodes(4), (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(SelectAllNodes(0).empty());
}

TEST(PolicyKindTest, NamesRoundTrip) {
  for (PolicyKind kind :
       {PolicyKind::kQueryDriven, PolicyKind::kRandom, PolicyKind::kAllNodes,
        PolicyKind::kGameTheory}) {
    EXPECT_EQ(ParsePolicyKind(PolicyKindName(kind)).value(), kind);
  }
  EXPECT_EQ(ParsePolicyKind("GT").value(), PolicyKind::kGameTheory);
  EXPECT_EQ(ParsePolicyKind("all").value(), PolicyKind::kAllNodes);
  EXPECT_FALSE(ParsePolicyKind("best-effort").ok());
}

}  // namespace
}  // namespace qens::selection
