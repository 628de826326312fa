// Tests for the paper's five-case overlap rate (Eq. 2, Figs. 3-4) plus the
// containment extension, degenerate geometry, both modes, and randomized
// property sweeps.

#include "qens/query/overlap.h"

#include <gtest/gtest.h>

#include "qens/common/rng.h"

namespace qens::query {
namespace {

DimensionOverlap Faithful(double qlo, double qhi, double klo, double khi) {
  return ComputeDimensionOverlap(Interval(qlo, qhi), Interval(klo, khi),
                                 OverlapMode::kFaithful);
}

DimensionOverlap Normalized(double qlo, double qhi, double klo, double khi) {
  return ComputeDimensionOverlap(Interval(qlo, qhi), Interval(klo, khi),
                                 OverlapMode::kNormalizedIntersection);
}

// ----- Case 1 (Fig. 3a): query inside cluster -----

TEST(OverlapCaseTest, QueryInsideCluster) {
  // q = [2, 4] inside k = [0, 10]: h = (4-2)/(10-0) = 0.2.
  const DimensionOverlap d = Faithful(2, 4, 0, 10);
  EXPECT_EQ(d.kase, OverlapCase::kQueryInsideCluster);
  EXPECT_DOUBLE_EQ(d.value, 0.2);
}

TEST(OverlapCaseTest, QueryEqualsClusterIsFullOverlap) {
  const DimensionOverlap d = Faithful(0, 10, 0, 10);
  EXPECT_EQ(d.kase, OverlapCase::kQueryInsideCluster);
  EXPECT_DOUBLE_EQ(d.value, 1.0);
}

// ----- Case 2 (Fig. 3b): only q_min inside cluster -----

TEST(OverlapCaseTest, QueryMinInside) {
  // k = [0, 10], q = [6, 14]: h = (k_max - q_min)/(q_max - k_min)
  //                             = (10-6)/(14-0) = 4/14.
  const DimensionOverlap d = Faithful(6, 14, 0, 10);
  EXPECT_EQ(d.kase, OverlapCase::kQueryMinInside);
  EXPECT_DOUBLE_EQ(d.value, 4.0 / 14.0);
}

TEST(OverlapCaseTest, QueryMinInsideClampsAtOne) {
  // A sliver of query sticking past a wide cluster can push the paper's
  // literal ratio above 1; the implementation clamps.
  // k = [0, 10], q = [9.99, 10.01]: literal = 0.01/10.01 < 1 -- fine;
  // instead use k = [0, 1], q = [0.5, 0.6]? That's case 1. Construct:
  // k = [0, 100], q = [99, 101]: (100-99)/(101-0) ~ 0.0099. Still < 1.
  // The clamp binds when q_max - k_min < k_max - q_min, e.g.
  // k = [0, 10], q = [1, 10.5] -> (10-1)/(10.5-0) = 0.857 < 1. The ratio
  // only exceeds 1 in degenerate near-touch setups; verify the bound holds
  // across a sweep instead.
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double klo = rng.Uniform(-10, 10);
    const double khi = klo + rng.Uniform(0, 10);
    const double qlo = rng.Uniform(klo, khi);  // q_min inside.
    const double qhi = khi + rng.Uniform(0.001, 10);  // q_max outside.
    const DimensionOverlap d = Faithful(qlo, qhi, klo, khi);
    EXPECT_GE(d.value, 0.0);
    EXPECT_LE(d.value, 1.0);
  }
}

// ----- Case 3 (Fig. 3c): only q_max inside cluster -----

TEST(OverlapCaseTest, QueryMaxInside) {
  // k = [0, 10], q = [-4, 6]: h = (q_max - k_min)/(k_max - q_min)
  //                             = (6-0)/(10-(-4)) = 6/14.
  const DimensionOverlap d = Faithful(-4, 6, 0, 10);
  EXPECT_EQ(d.kase, OverlapCase::kQueryMaxInside);
  EXPECT_DOUBLE_EQ(d.value, 6.0 / 14.0);
}

TEST(OverlapCaseTest, Cases2And3AreMirrorImages) {
  // Reflecting the geometry swaps case 2 <-> case 3 with the same value.
  const DimensionOverlap right = Faithful(6, 14, 0, 10);
  const DimensionOverlap left = Faithful(-14, -6, -10, 0);
  EXPECT_EQ(right.kase, OverlapCase::kQueryMinInside);
  EXPECT_EQ(left.kase, OverlapCase::kQueryMaxInside);
  EXPECT_DOUBLE_EQ(right.value, left.value);
}

// ----- Cases 4/5 (Fig. 4): disjoint -----

TEST(OverlapCaseTest, DisjointQueryRight) {
  const DimensionOverlap d = Faithful(20, 30, 0, 10);
  EXPECT_EQ(d.kase, OverlapCase::kDisjointQueryRight);
  EXPECT_DOUBLE_EQ(d.value, 0.0);
}

TEST(OverlapCaseTest, DisjointQueryLeft) {
  const DimensionOverlap d = Faithful(-30, -20, 0, 10);
  EXPECT_EQ(d.kase, OverlapCase::kDisjointQueryLeft);
  EXPECT_DOUBLE_EQ(d.value, 0.0);
}

TEST(OverlapCaseTest, TouchingEndpointIsNotDisjoint) {
  // q_min == k_max: strict inequality in the paper's case 4, so this is a
  // (zero-width) partial overlap, not disjoint.
  const DimensionOverlap d = Faithful(10, 20, 0, 10);
  EXPECT_NE(d.kase, OverlapCase::kDisjointQueryRight);
  EXPECT_DOUBLE_EQ(d.value, 0.0);  // (10-10)/(20-0) = 0.
}

// ----- Containment extension -----

TEST(OverlapCaseTest, ClusterInsideQueryIsFullCoverage) {
  const DimensionOverlap d = Faithful(0, 10, 3, 5);
  EXPECT_EQ(d.kase, OverlapCase::kClusterInsideQuery);
  EXPECT_DOUBLE_EQ(d.value, 1.0);
}

// ----- Degenerate intervals -----

TEST(OverlapCaseTest, PointClusterInsideQuery) {
  const DimensionOverlap d = Faithful(0, 10, 5, 5);
  EXPECT_EQ(d.kase, OverlapCase::kClusterInsideQuery);
  EXPECT_DOUBLE_EQ(d.value, 1.0);
}

TEST(OverlapCaseTest, PointQueryInsideCluster) {
  // Zero-width query in a wide cluster: requests measure-zero data.
  const DimensionOverlap d = Faithful(5, 5, 0, 10);
  EXPECT_EQ(d.kase, OverlapCase::kQueryInsideCluster);
  EXPECT_DOUBLE_EQ(d.value, 0.0);
}

TEST(OverlapCaseTest, PointOnPoint) {
  const DimensionOverlap same = Faithful(5, 5, 5, 5);
  EXPECT_DOUBLE_EQ(same.value, 1.0);
  const DimensionOverlap diff = Faithful(5, 5, 7, 7);
  EXPECT_DOUBLE_EQ(diff.value, 0.0);
}

// ----- Normalized-intersection mode -----

TEST(OverlapModeTest, NormalizedQueryInsideCluster) {
  // |q ∩ k| / |k| = 2/10.
  const DimensionOverlap d = Normalized(2, 4, 0, 10);
  EXPECT_DOUBLE_EQ(d.value, 0.2);
}

TEST(OverlapModeTest, NormalizedPartial) {
  // k = [0,10], q = [6,14]: intersection [6,10] -> 4/10.
  const DimensionOverlap d = Normalized(6, 14, 0, 10);
  EXPECT_DOUBLE_EQ(d.value, 0.4);
}

TEST(OverlapModeTest, NormalizedContainment) {
  const DimensionOverlap d = Normalized(0, 10, 3, 5);
  EXPECT_DOUBLE_EQ(d.value, 1.0);
}

// ----- Eq. 2 aggregation -----

TEST(OverlapRateTest, AveragesAcrossDimensions) {
  // Dim 0: case 1 value 0.2; dim 1: disjoint 0.0 -> mean 0.1.
  auto q = HyperRectangle::FromFlatBounds({2, 4, 20, 30}).value();
  auto k = HyperRectangle::FromFlatBounds({0, 10, 0, 10}).value();
  EXPECT_DOUBLE_EQ(ComputeOverlapRate(q, k).value(), 0.1);
}

TEST(OverlapRateTest, RateAveragesDimensionOverlaps) {
  auto q = HyperRectangle::FromFlatBounds({2, 4, 6, 14}).value();
  auto k = HyperRectangle::FromFlatBounds({0, 10, 0, 10}).value();
  const DimensionOverlap d0 =
      ComputeDimensionOverlap(q.dim(0), k.dim(0), OverlapMode::kFaithful);
  const DimensionOverlap d1 =
      ComputeDimensionOverlap(q.dim(1), k.dim(1), OverlapMode::kFaithful);
  EXPECT_EQ(d0.kase, OverlapCase::kQueryInsideCluster);
  EXPECT_EQ(d1.kase, OverlapCase::kQueryMinInside);
  EXPECT_EQ(ComputeOverlapRate(q, k).value(),
            ((0.0 + d0.value) + d1.value) / 2.0);
}

TEST(OverlapRateTest, Errors) {
  auto q1 = HyperRectangle::FromFlatBounds({0, 1}).value();
  auto k2 = HyperRectangle::FromFlatBounds({0, 1, 0, 1}).value();
  EXPECT_FALSE(ComputeOverlapRate(q1, k2).ok());
  EXPECT_FALSE(ComputeOverlapRate(HyperRectangle(), k2).ok());
}

// ----- Property sweeps -----

class OverlapPropertyTest : public ::testing::TestWithParam<OverlapMode> {};

TEST_P(OverlapPropertyTest, ValueAlwaysInUnitInterval) {
  const OverlapMode mode = GetParam();
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    double a = rng.Uniform(-100, 100), b = rng.Uniform(-100, 100);
    double c = rng.Uniform(-100, 100), d = rng.Uniform(-100, 100);
    Interval q(std::min(a, b), std::max(a, b));
    Interval k(std::min(c, d), std::max(c, d));
    const DimensionOverlap o = ComputeDimensionOverlap(q, k, mode);
    EXPECT_GE(o.value, 0.0);
    EXPECT_LE(o.value, 1.0);
  }
}

TEST_P(OverlapPropertyTest, ZeroIffStrictlyDisjointOrMeasureZero) {
  const OverlapMode mode = GetParam();
  Rng rng(123);
  for (int i = 0; i < 5000; ++i) {
    double a = rng.Uniform(-50, 50), b = rng.Uniform(-50, 50);
    double c = rng.Uniform(-50, 50), d = rng.Uniform(-50, 50);
    Interval q(std::min(a, b), std::max(a, b));
    Interval k(std::min(c, d), std::max(c, d));
    const DimensionOverlap o = ComputeDimensionOverlap(q, k, mode);
    if (!q.Intersects(k)) {
      EXPECT_DOUBLE_EQ(o.value, 0.0);
    }
    if (o.value > 0.0) {
      // Positive overlap implies a real geometric intersection.
      EXPECT_TRUE(q.Intersects(k));
    }
  }
}

TEST_P(OverlapPropertyTest, GrowingQueryNeverLeavesSupportedCluster) {
  // Widening the query around a fixed cluster can only keep overlap
  // positive once it is positive (monotone support).
  const OverlapMode mode = GetParam();
  Interval k(0, 10);
  double prev_positive = -1.0;
  for (double half = 0.5; half <= 30.0; half += 0.5) {
    Interval q(5 - half, 5 + half);
    const DimensionOverlap o = ComputeDimensionOverlap(q, k, mode);
    if (prev_positive > 0.0) {
      EXPECT_GT(o.value, 0.0);
    }
    prev_positive = o.value;
  }
}

TEST_P(OverlapPropertyTest, CaseClassificationIsExhaustiveAndConsistent) {
  const OverlapMode mode = GetParam();
  Rng rng(321);
  for (int i = 0; i < 5000; ++i) {
    double a = rng.Uniform(-20, 20), b = rng.Uniform(-20, 20);
    double c = rng.Uniform(-20, 20), d = rng.Uniform(-20, 20);
    Interval q(std::min(a, b), std::max(a, b));
    Interval k(std::min(c, d), std::max(c, d));
    const DimensionOverlap o = ComputeDimensionOverlap(q, k, mode);
    switch (o.kase) {
      case OverlapCase::kDisjointQueryRight:
        EXPECT_GT(q.lo, k.hi);
        break;
      case OverlapCase::kDisjointQueryLeft:
        EXPECT_LT(q.hi, k.lo);
        break;
      case OverlapCase::kQueryInsideCluster:
        EXPECT_TRUE(k.ContainsInterval(q));
        break;
      case OverlapCase::kClusterInsideQuery:
        EXPECT_TRUE(q.ContainsInterval(k));
        EXPECT_DOUBLE_EQ(o.value, 1.0);
        break;
      case OverlapCase::kQueryMinInside:
        EXPECT_TRUE(k.Contains(q.lo));
        EXPECT_GT(q.hi, k.hi);
        break;
      case OverlapCase::kQueryMaxInside:
        EXPECT_TRUE(k.Contains(q.hi));
        EXPECT_LT(q.lo, k.lo);
        break;
    }
  }
}

/// Re-derives the case label from the raw inequalities, independently of
/// the implementation's control flow, with the same tie-break precedence.
OverlapCase ClassifyReference(const Interval& q, const Interval& k) {
  if (q.lo > k.hi) return OverlapCase::kDisjointQueryRight;
  if (q.hi < k.lo) return OverlapCase::kDisjointQueryLeft;
  if (k.lo <= q.lo && q.hi <= k.hi) return OverlapCase::kQueryInsideCluster;
  if (q.lo <= k.lo && k.hi <= q.hi) return OverlapCase::kClusterInsideQuery;
  if (q.lo >= k.lo) return OverlapCase::kQueryMinInside;
  return OverlapCase::kQueryMaxInside;
}

TEST_P(OverlapPropertyTest, CaseAnalysisIsAnExhaustivePartition) {
  // Every valid (q, k) pair — including degenerate points and shared
  // endpoints — lands in exactly one case, matching an independent
  // classifier. Integer-grid coordinates force endpoint collisions that a
  // continuous sweep would almost never hit.
  const OverlapMode mode = GetParam();
  Rng rng(777);
  for (int i = 0; i < 8000; ++i) {
    auto draw = [&]() -> double {
      // Half the draws land on a small integer grid, the rest anywhere.
      return rng.Bernoulli(0.5) ? static_cast<double>(rng.UniformInt(
                                      int64_t{-5}, int64_t{5}))
                                : rng.Uniform(-5, 5);
    };
    double a = draw(), b = draw(), c = draw(), d = draw();
    Interval q(std::min(a, b), std::max(a, b));
    Interval k(std::min(c, d), std::max(c, d));
    const DimensionOverlap o = ComputeDimensionOverlap(q, k, mode);
    EXPECT_EQ(o.kase, ClassifyReference(q, k))
        << "q=[" << q.lo << "," << q.hi << "] k=[" << k.lo << "," << k.hi
        << "]";
    EXPECT_GE(o.value, 0.0);
    EXPECT_LE(o.value, 1.0);
  }
}

TEST_P(OverlapPropertyTest, DegenerateIntervalsAreWellDefined) {
  // Zero-length query and/or cluster intervals exercise the Ratio
  // `at_degenerate` guards: every answer must stay in [0, 1] and disjoint
  // geometry must still score 0.
  const OverlapMode mode = GetParam();
  Rng rng(4242);
  for (int i = 0; i < 4000; ++i) {
    double qlo = rng.Uniform(-5, 5);
    double qhi = rng.Bernoulli(0.5) ? qlo : qlo + rng.Uniform(0, 5);
    double klo = rng.Uniform(-5, 5);
    double khi = rng.Bernoulli(0.5) ? klo : klo + rng.Uniform(0, 5);
    Interval q(qlo, qhi), k(klo, khi);
    const DimensionOverlap o = ComputeDimensionOverlap(q, k, mode);
    EXPECT_GE(o.value, 0.0);
    EXPECT_LE(o.value, 1.0);
    if (!q.Intersects(k)) {
      EXPECT_DOUBLE_EQ(o.value, 0.0);
    }
    EXPECT_EQ(o.kase, ClassifyReference(q, k));
  }
}

TEST_P(OverlapPropertyTest, PointOnPointGeometry) {
  const OverlapMode mode = GetParam();
  // Identical points: the only all-degenerate geometry, full overlap via
  // the at_degenerate branch of case 1 in BOTH modes.
  const DimensionOverlap same =
      ComputeDimensionOverlap(Interval(5, 5), Interval(5, 5), mode);
  EXPECT_EQ(same.kase, OverlapCase::kQueryInsideCluster);
  EXPECT_DOUBLE_EQ(same.value, 1.0);
  // Distinct points: strictly disjoint.
  const DimensionOverlap diff =
      ComputeDimensionOverlap(Interval(5, 5), Interval(7, 7), mode);
  EXPECT_DOUBLE_EQ(diff.value, 0.0);
  // A point query at a wide cluster's edge requests measure-zero data.
  const DimensionOverlap edge =
      ComputeDimensionOverlap(Interval(5, 5), Interval(1, 5), mode);
  EXPECT_EQ(edge.kase, OverlapCase::kQueryInsideCluster);
  EXPECT_DOUBLE_EQ(edge.value, 0.0);
  // A point cluster inside a wide query is fully covered.
  const DimensionOverlap contained =
      ComputeDimensionOverlap(Interval(0, 10), Interval(5, 5), mode);
  EXPECT_EQ(contained.kase, OverlapCase::kClusterInsideQuery);
  EXPECT_DOUBLE_EQ(contained.value, 1.0);
}

TEST_P(OverlapPropertyTest, EveryOverlapValueIsAttainable) {
  // h ranges over ALL of [0, 1]: for any target t, q = [0, t] inside
  // k = [0, 1] scores exactly t in both modes (case 1 with |k| = 1).
  const OverlapMode mode = GetParam();
  for (int step = 0; step <= 100; ++step) {
    const double t = static_cast<double>(step) / 100.0;
    const DimensionOverlap o =
        ComputeDimensionOverlap(Interval(0, t), Interval(0, 1), mode);
    EXPECT_EQ(o.kase, OverlapCase::kQueryInsideCluster);
    EXPECT_DOUBLE_EQ(o.value, t);
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, OverlapPropertyTest,
                         ::testing::Values(
                             OverlapMode::kFaithful,
                             OverlapMode::kNormalizedIntersection));

TEST(OverlapNamesTest, CaseAndModeNames) {
  EXPECT_STREQ(OverlapCaseName(OverlapCase::kQueryInsideCluster),
               "query-inside-cluster");
  EXPECT_STREQ(OverlapModeName(OverlapMode::kFaithful), "faithful");
  EXPECT_STREQ(OverlapModeName(OverlapMode::kNormalizedIntersection),
               "normalized-intersection");
}

}  // namespace
}  // namespace qens::query
