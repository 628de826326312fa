// Tests for the deterministic RNG: reproducibility, distribution sanity,
// sampling helpers.

#include "qens/common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace qens {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

// Known answers, recorded before Next and UniformInt(n) moved inline into
// the header: no change to the generator may move a draw unseen.
TEST(RngTest, FirstOutputsAreKnown) {
  Rng zero(0);
  EXPECT_EQ(zero.Next(), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(zero.Next(), 0x06c45d188009454full);
  EXPECT_EQ(zero.Next(), 0xf88bb8a8724c81ecull);
  EXPECT_EQ(zero.Next(), 0x1b39896a51a8749bull);
  Rng answer(42);
  EXPECT_EQ(answer.Next(), 0x28efe333b266f103ull);
  EXPECT_EQ(answer.Next(), 0x47526757130f9f52ull);
  EXPECT_EQ(answer.Next(), 0x581ce1ff0e4ae394ull);
  EXPECT_EQ(answer.Next(), 0x09bc585a244823f2ull);
}

TEST(RngTest, UniformIntDrawsAreKnown) {
  Rng rng(42);
  EXPECT_EQ(rng.UniformInt(uint64_t{10}), 1u);
  EXPECT_EQ(rng.UniformInt(uint64_t{1000}), 858u);
  EXPECT_EQ(rng.UniformInt(uint64_t{3}), 0u);
  EXPECT_EQ(rng.UniformInt(uint64_t{1} << 63), 701532786141963250u);
  EXPECT_EQ(rng.UniformInt(~uint64_t{0} - 5), 16015981125662989062u);
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.5, 8.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 8.25);
  }
}

TEST(RngTest, UniformMeanApproximatesHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.Uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversDomainWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(uint64_t{10})];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

// The two-modulo form UniformInt used to have: accept below
// limit = max - max % n, return x % n. Counts the draws it rejects.
uint64_t TwoModuloUniformInt(Rng* rng, uint64_t n, uint64_t* rejected) {
  const uint64_t limit = Rng::max() - Rng::max() % n;
  uint64_t x;
  while ((x = rng->Next()) >= limit) ++*rejected;
  return x % n;
}

/// The seed of the Rng whose first Next() returns x. SplitMix64's output
/// mix is a bijection: undo each xor-shift and each odd multiplier (by its
/// inverse mod 2^64), then the two golden-ratio steps that Rng(seed) and
/// Next() add to the state.
uint64_t SeedForFirstOutput(uint64_t x) {
  auto unshift = [](uint64_t y, int s) {
    uint64_t z = y;
    for (int i = 0; i < 64 / s + 1; ++i) z = y ^ (z >> s);
    return z;
  };
  auto inverse = [](uint64_t m) {
    uint64_t inv = m;  // Newton's iteration doubles the correct low bits.
    for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;
    return inv;
  };
  uint64_t z = unshift(x, 31);
  z = unshift(z * inverse(0x94d049bb133111ebull), 27);
  z = unshift(z * inverse(0xbf58476d1ce4e5b9ull), 30);
  return z - 2 * 0x9e3779b97f4a7c15ull;
}

TEST(RngTest, UniformIntAcceptsExactlyBelowTheLastWholeMultiple) {
  // The draws at the acceptance boundary, ⌊max/n⌋·n - 1 (the last value
  // accepted) and ⌊max/n⌋·n (the first rejected), for n that divide max
  // (1, 3, 5, 65537 and max itself, where the first rejected value is max),
  // a power of two and the rejection-heavy sizes above.
  const uint64_t max = Rng::max();
  for (uint64_t n : {uint64_t{1}, uint64_t{3}, uint64_t{5}, uint64_t{7},
                     uint64_t{1000}, uint64_t{65537}, uint64_t{1} << 32,
                     (uint64_t{1} << 63) + 1, max / 3 * 2 + 1, max - 1,
                     max}) {
    const uint64_t limit = max / n * n;
    for (uint64_t x : {limit - 1, limit}) {
      const uint64_t seed = SeedForFirstOutput(x);
      ASSERT_EQ(Rng(seed).Next(), x);
      Rng a(seed);
      Rng b(seed);
      uint64_t rejected = 0;
      // ASSERT: a form that rejects too much never returns for n = max.
      ASSERT_EQ(a.UniformInt(n), TwoModuloUniformInt(&b, n, &rejected))
          << "n = " << n << ", x = " << x;
      // x = limit is rejected; later draws may be rejected too.
      ASSERT_EQ(rejected > 0, x == limit) << "n = " << n;
      ASSERT_EQ(a.Next(), b.Next()) << "n = " << n << ", x = " << x;
    }
  }
}

TEST(RngTest, UniformIntMatchesTheTwoModuloFormDrawForDraw) {
  // Same values and same generator state after every draw, where
  // rejections are rare (small n) and common (n just above 2^63 rejects
  // about half of all draws, n near (2/3)·2^64 about a third). SplitMix64's
  // output is a bijection of its state, so equal next outputs of copies
  // mean equal states.
  std::vector<uint64_t> ns;
  for (uint64_t n = 1; n <= 1000; ++n) ns.push_back(n);
  const uint64_t two_63 = uint64_t{1} << 63;
  const uint64_t two_thirds = Rng::max() / 3 * 2;
  for (uint64_t d = 0; d <= 4; ++d) {
    ns.insert(ns.end(), {two_63 - d, two_63 + d, two_thirds - d,
                         two_thirds + d, Rng::max() - d});
  }
  Rng a(41);
  Rng b(41);
  uint64_t rejected = 0;
  for (uint64_t n : ns) {
    const int draws = n <= 1000 ? 20 : 400;
    for (int i = 0; i < draws; ++i) {
      const uint64_t got = a.UniformInt(n);
      ASSERT_EQ(got, TwoModuloUniformInt(&b, n, &rejected)) << "n = " << n;
      ASSERT_LT(got, n);
      Rng next_a = a;
      Rng next_b = b;
      ASSERT_EQ(next_a.Next(), next_b.Next()) << "n = " << n;
    }
  }
  EXPECT_GT(rejected, 1000u);  // The rejection branch really ran.
}

// Known answers for Lemire's multiply-shift draw, recorded when it was
// added: the same state and sizes as UniformIntDrawsAreKnown.
TEST(RngTest, UniformIntMulShiftDrawsAreKnown) {
  Rng rng(42);
  EXPECT_EQ(rng.UniformIntMulShift(uint64_t{10}), 1u);
  EXPECT_EQ(rng.UniformIntMulShift(uint64_t{1000}), 278u);
  EXPECT_EQ(rng.UniformIntMulShift(uint64_t{3}), 1u);
  EXPECT_EQ(rng.UniformIntMulShift(uint64_t{1} << 63), 350766393070981625u);
  EXPECT_EQ(rng.UniformIntMulShift(~uint64_t{0} - 5), 16015981125662989056u);
}

TEST(RngTest, ShuffleMulShiftPermutationIsKnown) {
  Rng rng(25);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  rng.ShuffleMulShift(&v);
  EXPECT_EQ(v, (std::vector<int>{5, 7, 6, 8, 3, 1, 10, 4, 9, 2}));
}

/// 2^64 mod n, which is (2^64 - n) mod n: the multiply-shift draw rejects a
/// candidate whose low half is below it. Computed in 128 bits, apart from
/// the 64-bit form the generator uses.
uint64_t MulShiftThreshold(uint64_t n) {
  return static_cast<uint64_t>((static_cast<unsigned __int128>(1) << 64) % n);
}

// Lemire's draw written out plainly: every candidate is tested against the
// threshold (no low < n shortcut). Counts the candidates it rejects.
uint64_t ReferenceMulShift(Rng* rng, uint64_t n, uint64_t* rejected) {
  const uint64_t threshold = MulShiftThreshold(n);
  while (true) {
    const unsigned __int128 m =
        static_cast<unsigned __int128>(rng->Next()) * n;
    if (static_cast<uint64_t>(m) >= threshold) {
      return static_cast<uint64_t>(m >> 64);
    }
    ++*rejected;
  }
}

TEST(RngTest, UniformIntMulShiftStaysBelowN) {
  const uint64_t two_32 = uint64_t{1} << 32;
  for (uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{3}, two_32 - 1,
                     two_32 + 1, uint64_t{1} << 63, Rng::max()}) {
    Rng rng(17 + n);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_LT(rng.UniformIntMulShift(n), n) << "n = " << n;
    }
  }
}

TEST(RngTest, UniformIntMulShiftRejectsExactlyBelowTheThreshold) {
  // For odd n, x -> x * n mod 2^64 is a bijection, so there is a first
  // output whose candidate's low half is exactly threshold - 1 (the last
  // rejected value) or threshold (the first accepted one). The odd sizes
  // with a non-zero threshold: small, around 2^32, just above 2^63 (the
  // largest threshold, 2^63 - 1), near (2/3)·2^64 and 2^64 - 1.
  auto inverse = [](uint64_t m) {
    uint64_t inv = m;  // Newton's iteration doubles the correct low bits.
    for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;
    return inv;
  };
  const uint64_t two_32 = uint64_t{1} << 32;
  for (uint64_t n : {uint64_t{3}, uint64_t{7}, two_32 - 1, two_32 + 1,
                     (uint64_t{1} << 63) + 1, Rng::max() / 3 * 2 + 1,
                     Rng::max()}) {
    const uint64_t threshold = MulShiftThreshold(n);
    ASSERT_GT(threshold, 0u) << "n = " << n;
    for (uint64_t low : {threshold - 1, threshold}) {
      const uint64_t x = low * inverse(n);
      ASSERT_EQ(x * n, low);
      const uint64_t seed = SeedForFirstOutput(x);
      ASSERT_EQ(Rng(seed).Next(), x);
      Rng a(seed);
      Rng b(seed);
      uint64_t rejected = 0;
      const uint64_t got = a.UniformIntMulShift(n);
      ASSERT_EQ(got, ReferenceMulShift(&b, n, &rejected))
          << "n = " << n << ", low = " << low;
      ASSERT_LT(got, n);
      // low = threshold - 1 is rejected; later candidates may be too.
      ASSERT_EQ(rejected > 0, low < threshold) << "n = " << n;
      if (low == threshold) {
        ASSERT_EQ(got, static_cast<uint64_t>(
                           (static_cast<unsigned __int128>(x) * n) >> 64));
      }
      // One Next() per candidate: equal next outputs mean equal states.
      ASSERT_EQ(a.Next(), b.Next()) << "n = " << n << ", low = " << low;
    }
  }
}

TEST(RngTest, UniformIntMulShiftMatchesTheReferenceDrawForDraw) {
  // Same values and same generator state after every draw, where
  // rejections are rare (small n) and common (n just above 2^63 rejects
  // about half of all candidates, n near (2/3)·2^64 about a third).
  std::vector<uint64_t> ns;
  for (uint64_t n = 1; n <= 1000; ++n) ns.push_back(n);
  const uint64_t two_63 = uint64_t{1} << 63;
  const uint64_t two_thirds = Rng::max() / 3 * 2;
  for (uint64_t d = 0; d <= 4; ++d) {
    ns.insert(ns.end(), {two_63 - d, two_63 + d, two_thirds - d,
                         two_thirds + d, Rng::max() - d});
  }
  Rng a(43);
  Rng b(43);
  uint64_t rejected = 0;
  for (uint64_t n : ns) {
    const int draws = n <= 1000 ? 20 : 400;
    for (int i = 0; i < draws; ++i) {
      const uint64_t got = a.UniformIntMulShift(n);
      ASSERT_EQ(got, ReferenceMulShift(&b, n, &rejected)) << "n = " << n;
      ASSERT_LT(got, n);
      Rng next_a = a;
      Rng next_b = b;
      ASSERT_EQ(next_a.Next(), next_b.Next()) << "n = " << n;
    }
  }
  EXPECT_GT(rejected, 1000u);  // The rejection branch really ran.
}

TEST(RngTest, UniformIntMulShiftCoversDomainWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformIntMulShift(uint64_t{10})];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(15);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-2}, int64_t{2});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// Ranges whose span fits an int64 draw what they drew before UniformInt
// moved to uint64 arithmetic (recorded then), up to both ends of int64.
TEST(RngTest, UniformIntRangeDrawsAreKnown) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(int64_t{-2}, int64_t{2}), 2);
  EXPECT_EQ(rng.UniformInt(int64_t{-1000000007}, int64_t{5}), -193710551);
  EXPECT_EQ(rng.UniformInt(kMin / 2, kMax / 2), 3734393827073335770);
  EXPECT_EQ(rng.UniformInt(kMax - 3, kMax), 9223372036854775805);
  EXPECT_EQ(rng.UniformInt(kMin, kMin + 3), -9223372036854775806);
}

// The full int64 range has 2^64 values: its span does not fit a uint64,
// and hi - lo overflows an int64. Each value is lo plus one raw draw.
TEST(RngTest, UniformIntFullRangeIsOneRawDraw) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(21), twin(21);
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(kMin, kMax);
    EXPECT_EQ(static_cast<uint64_t>(v) - static_cast<uint64_t>(kMin),
              twin.Next());
    saw_negative |= v < 0;
    saw_positive |= v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

// [INT64_MIN, 0] spans 2^63 + 1 values: more than INT64_MAX, so hi - lo
// overflows an int64, but the span fits a uint64.
TEST(RngTest, UniformIntRangeWiderThanInt64Max) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Rng rng(23), twin(23);
  const uint64_t span = (uint64_t{1} << 63) + 1;
  bool saw_upper_half = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(kMin, int64_t{0});
    EXPECT_LE(v, 0);
    EXPECT_EQ(static_cast<uint64_t>(v) - static_cast<uint64_t>(kMin),
              twin.UniformInt(span));
    saw_upper_half |= v > kMin / 2;
  }
  EXPECT_TRUE(saw_upper_half);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(21);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double e = rng.Exponential(2.0);
    EXPECT_GE(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(25);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleMulShiftIsPermutation) {
  Rng rng(25);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.ShuffleMulShift(&v);
  EXPECT_NE(v, orig);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);

  std::vector<int> empty;
  rng.ShuffleMulShift(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.ShuffleMulShift(&one);
  EXPECT_EQ(one[0], 42);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(27);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.Shuffle(&one);
  EXPECT_EQ(one[0], 42);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<size_t> sample = rng.SampleWithoutReplacement(20, 8);
    ASSERT_EQ(sample.size(), 8u);
    std::set<size_t> distinct(sample.begin(), sample.end());
    EXPECT_EQ(distinct.size(), 8u);
    for (size_t s : sample) EXPECT_LT(s, 20u);
  }
}

TEST(RngTest, SampleAllElements) {
  Rng rng(31);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 5);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(33);
  const std::vector<double> w{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
}

TEST(RngTest, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(35);
  const std::vector<double> w{0.0, 0.0, 0.0, 0.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.WeightedIndex(w)];
  for (int c : counts) EXPECT_GT(c, 8000);
}

TEST(RngTest, WeightedIndexClampsNegativeWeights) {
  // A negative weight must behave exactly like a zero weight: never picked,
  // and not skewing the other entries' probabilities.
  Rng rng(37);
  const std::vector<double> w{-5.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
}

TEST(RngTest, WeightedIndexClampsNaNWeights) {
  // NaN must not poison the total (NaN total would make every comparison
  // false and always return the last index).
  Rng rng(39);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> w{nan, 2.0, nan, 2.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.5, 0.01);
}

TEST(RngTest, WeightedIndexAllNegativeOrNaNFallsBackToUniform) {
  Rng rng(41);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> w{-1.0, nan, -0.5, nan};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.WeightedIndex(w)];
  for (int c : counts) EXPECT_GT(c, 8000);
}

TEST(RngTest, WeightedIndexWarnsAboutClampingAtMostOncePerProcess) {
  Rng rng(47);
  const std::vector<double> w{-1.0, 1.0, 2.0};
  testing::internal::CaptureStderr();
  for (int i = 0; i < 10000; ++i) rng.WeightedIndex(w);
  const std::string err = testing::internal::GetCapturedStderr();
  size_t warnings = 0;
  for (size_t at = err.find("clamped to 0"); at != std::string::npos;
       at = err.find("clamped to 0", at + 1)) {
    ++warnings;
  }
  EXPECT_LE(warnings, 1u);
}

TEST(RngTest, WeightedIndexValidWeightsDrawIdenticalToClampedRun) {
  // Clamping must not change the draw sequence for valid inputs: a stream
  // fed {1, 2} and one fed {1, 2} after clamped calls stay in lockstep
  // because invalid entries consume no RNG state beyond the one draw.
  Rng a(43);
  Rng b(43);
  const std::vector<double> valid{1.0, 2.0, 4.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.WeightedIndex(valid), b.WeightedIndex(valid));
  }
}

TEST(RngTest, ForkIsDeterministicAndDecorrelated) {
  Rng parent(101);
  Rng f1 = parent.Fork(1);
  Rng f1_again = Rng(101).Fork(1);
  EXPECT_EQ(f1.Next(), f1_again.Next());
  Rng f2 = parent.Fork(2);
  int differing = 0;
  Rng g1 = parent.Fork(1);
  for (int i = 0; i < 32; ++i) {
    if (g1.Next() != f2.Next()) ++differing;
  }
  EXPECT_GT(differing, 30);
}

TEST(RngTest, ForkDoesNotAdvanceParent) {
  Rng a(55), b(55);
  (void)a.Fork(3);
  EXPECT_EQ(a.Next(), b.Next());
}

}  // namespace
}  // namespace qens
