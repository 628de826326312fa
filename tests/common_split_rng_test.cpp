// SplitRng: counter-based, hierarchically splittable streams. Pins the
// exact interop contract with the linear Rng (Split == Fork, Draw(i) ==
// the i-th Next()), the purpose-subspace separation, key-path uniqueness
// over large coordinate grids, collision freedom of the model-init seed
// derivation across sessions, and statistical smoke bounds
// (chi-square uniformity + pairwise correlation) over sibling streams.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/fl/seed_derivation.h"

namespace qens {
namespace {

TEST(SplitRngTest, SplitMatchesRngForkExactly) {
  // SplitRng(s).Split(c).ToRng() must be the same stream as Rng(s).Fork(c):
  // consumers that fork further from a split stream (per-round and
  // per-attempt fault draws) rely on it, so the equivalence must be exact,
  // not just statistical.
  for (const uint64_t seed : {0ull, 1ull, 17ull, 0xdeadbeefull,
                              0xffffffffffffffffull}) {
    for (const uint64_t coord : {0ull, 1ull, 2ull, 999983ull,
                                 0x123456789abcdefull}) {
      Rng forked = Rng(seed).Fork(coord);
      Rng split = SplitRng(seed).Split(coord).ToRng();
      for (int i = 0; i < 16; ++i) {
        ASSERT_EQ(forked.Next(), split.Next())
            << "seed " << seed << " coord " << coord << " draw " << i;
      }
    }
  }
}

TEST(SplitRngTest, DrawIsRandomAccessToTheSequentialStream) {
  for (const uint64_t seed : {0ull, 42ull, 0x9e3779b97f4a7c15ull}) {
    const SplitRng stream(seed);
    Rng rng = stream.ToRng();
    for (uint64_t i = 0; i < 64; ++i) {
      ASSERT_EQ(stream.Draw(i), rng.Next()) << "seed " << seed << " i " << i;
    }
  }
}

TEST(SplitRngTest, ChainedSplitMatchesChainedFork) {
  // A split child converted to Rng and then Fork'ed equals splitting
  // further first: the fault injector relies on this when it Fork(round)s
  // a coordinate-derived stream.
  const SplitRng root(99);
  Rng a = root.Split(7).Split(3).ToRng();
  Rng b = root.Split(7).ToRng().Fork(3);
  for (int i = 0; i < 16; ++i) ASSERT_EQ(a.Next(), b.Next()) << i;
}

TEST(SplitRngTest, PurposeSubspaceNeverCollidesWithSmallCoordinates) {
  // Purpose tags live in a disjoint coordinate subspace: a node id (or any
  // plausibly small integer coordinate) at the same tree level can never
  // alias a purpose split.
  const SplitRng root(1234);
  std::vector<uint64_t> purpose_keys;
  for (const RngPurpose p :
       {RngPurpose::kModelInit, RngPurpose::kSessionSeed,
        RngPurpose::kLocalTraining, RngPurpose::kTrainOrderInit,
        RngPurpose::kMinibatchShuffle, RngPurpose::kKMeansInit,
        RngPurpose::kFaultCrash, RngPurpose::kFaultStraggler,
        RngPurpose::kFaultDropout, RngPurpose::kFaultMessageLoss,
        RngPurpose::kFaultCorrupt, RngPurpose::kFaultCorruptActive,
        RngPurpose::kChurn, RngPurpose::kDrift,
        RngPurpose::kRandomSelection, RngPurpose::kVolatileDropout,
        RngPurpose::kStochasticSelection}) {
    purpose_keys.push_back(root.Split(p).key());
  }
  // All purposes distinct from each other.
  std::unordered_set<uint64_t> unique(purpose_keys.begin(),
                                      purpose_keys.end());
  EXPECT_EQ(unique.size(), purpose_keys.size());
  // And from every small-coordinate split.
  for (uint64_t coord = 0; coord < 4096; ++coord) {
    unique.insert(root.Split(coord).key());
  }
  EXPECT_EQ(unique.size(), purpose_keys.size() + 4096);
}

TEST(SplitRngTest, KeyPathsAreCollisionFreeOverRealisticGrids) {
  // Every stream the system derives is a key path
  // (seed, purpose, coordinate...); a collision would silently correlate
  // two unrelated consumers. Exhaust a realistic grid: 4 purposes x 64
  // sessions x 32 rounds x 64 nodes = 524288 leaf keys, all distinct.
  std::unordered_set<uint64_t> keys;
  const SplitRng root(17);
  for (const RngPurpose p :
       {RngPurpose::kLocalTraining, RngPurpose::kFaultDropout,
        RngPurpose::kDrift, RngPurpose::kModelInit}) {
    const SplitRng purpose = root.Split(p);
    for (uint64_t session = 0; session < 64; ++session) {
      const SplitRng s = purpose.Split(session);
      for (uint64_t round = 0; round < 32; ++round) {
        const SplitRng r = s.Split(round);
        for (uint64_t node = 0; node < 64; ++node) {
          keys.insert(r.Split(node).key());
        }
      }
    }
  }
  EXPECT_EQ(keys.size(), size_t{4} * 64 * 32 * 64);
}

TEST(SplitRngTest, SplitAvalanchesSingleBitCoordinateFlips) {
  // Full-avalanche mixing: flipping any single coordinate bit should flip
  // about half the key bits. Loose bounds — this is a smoke test, not a
  // SAC certification.
  const SplitRng root(555);
  const uint64_t base = root.Split(12345).key();
  double total_flips = 0.0;
  for (int bit = 0; bit < 64; ++bit) {
    const uint64_t flipped = root.Split(12345ull ^ (1ull << bit)).key();
    total_flips += std::popcount(base ^ flipped);
  }
  const double mean_flips = total_flips / 64.0;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

TEST(SplitRngTest, ModelInitSeedCollisionRegression) {
  // Model-init seeds are the registered key path, and distinct
  // (session seed, query id) pairs never collide. The grid includes pairs
  // an affine map seed * C + id would alias: (s, id) against (s + 1, id - C)
  // for every C below 4096.
  EXPECT_EQ(fl::ModelInitSeed(5, 999983),
            SplitRng(5).Split(RngPurpose::kModelInit).Split(999983).key());
  std::unordered_set<uint64_t> seeds;
  for (uint64_t session = 0; session < 64; ++session) {
    for (uint64_t query = 0; query < 4096; ++query) {
      seeds.insert(fl::ModelInitSeed(session, query));
    }
  }
  EXPECT_EQ(seeds.size(), size_t{64} * 4096);
}

TEST(SplitRngTest, SiblingStreamsPassChiSquareUniformitySmoke) {
  // First draw of 4096 sibling streams bucketed into 64 bins by the top 6
  // bits: the chi-square statistic (63 dof) should sit near 63. The bound
  // 110 is ~p=0.0002 — loose enough to be flake-free, tight enough to
  // catch a broken mix (a linear or low-entropy Split lands in the
  // thousands).
  const SplitRng root(2024);
  std::vector<size_t> bins(64, 0);
  const size_t kStreams = 4096;
  for (uint64_t i = 0; i < kStreams; ++i) {
    ++bins[root.Split(i).Draw(0) >> 58];
  }
  const double expected = static_cast<double>(kStreams) / 64.0;
  double chi2 = 0.0;
  for (const size_t observed : bins) {
    const double d = static_cast<double>(observed) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 110.0) << "chi2=" << chi2;
  EXPECT_GT(chi2, 25.0) << "suspiciously uniform: chi2=" << chi2;
}

TEST(SplitRngTest, AdjacentSiblingStreamsAreUncorrelated) {
  // Pairwise Pearson correlation between the unit-double sequences of
  // adjacent sibling streams. With n=512 samples, |r| for independent
  // streams concentrates under ~0.09 (2/sqrt(n)); 0.15 is a loose smoke
  // bound that still catches any structural coupling between siblings.
  const SplitRng root(31337);
  const size_t kSamples = 512;
  for (uint64_t s = 0; s < 8; ++s) {
    Rng a = root.Split(s).ToRng();
    Rng b = root.Split(s + 1).ToRng();
    double sum_a = 0, sum_b = 0, sum_aa = 0, sum_bb = 0, sum_ab = 0;
    for (size_t i = 0; i < kSamples; ++i) {
      const double x = a.Uniform(0.0, 1.0);
      const double y = b.Uniform(0.0, 1.0);
      sum_a += x;
      sum_b += y;
      sum_aa += x * x;
      sum_bb += y * y;
      sum_ab += x * y;
    }
    const double n = static_cast<double>(kSamples);
    const double cov = sum_ab / n - (sum_a / n) * (sum_b / n);
    const double var_a = sum_aa / n - (sum_a / n) * (sum_a / n);
    const double var_b = sum_bb / n - (sum_b / n) * (sum_b / n);
    const double corr = cov / std::sqrt(var_a * var_b);
    EXPECT_LT(std::abs(corr), 0.15) << "siblings " << s << "," << s + 1
                                    << " corr=" << corr;
  }
}

TEST(SplitRngTest, KeyIsStableAndEqualityIsKeyEquality) {
  const SplitRng a(7);
  const SplitRng b(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Split(3), b.Split(3));
  EXPECT_FALSE(a.Split(3) == b.Split(4));
  // Documented pinned value-class behavior: the key IS the identity.
  EXPECT_EQ(a.key(), 7u);
}

}  // namespace
}  // namespace qens
