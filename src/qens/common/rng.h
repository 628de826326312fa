#ifndef QENS_COMMON_RNG_H_
#define QENS_COMMON_RNG_H_

/// \file rng.h
/// Deterministic random number generation.
///
/// Every stochastic component in qens (k-means initialization, data
/// generation, query workload, random node selection, weight initialization)
/// takes an explicit seed so that experiments are bit-reproducible. `Rng`
/// wraps a SplitMix64 core (small state, excellent statistical quality for
/// non-cryptographic use) with the distributions the library needs.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qens {

/// Deterministic pseudo-random generator with convenience distributions.
///
/// Satisfies the essentials of UniformRandomBitGenerator so it can also be
/// handed to `std::shuffle`-like algorithms.
class Rng {
 public:
  using result_type = uint64_t;

  /// Construct with an explicit seed; equal seeds yield equal streams.
  explicit Rng(uint64_t seed) : state_(seed + kGolden) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Next raw 64-bit output (SplitMix64). Inline, as is UniformInt(n):
  /// a shuffle makes one draw per element, and a call per draw costs more
  /// than the draw.
  uint64_t Next() {
    state_ += kGolden;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  result_type operator()() { return Next(); }

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n) {
    assert(n > 0);
    // Rejection sampling to remove modulo bias: accept x iff it lies below
    // the largest multiple of n, ⌊max/n⌋·n. x - x % n is x's own multiple
    // of n, and it is below that bound iff it is at most max - n, so one
    // division per draw decides both the test and the value.
    uint64_t x;
    uint64_t r;
    do {
      x = Next();
      r = x % n;
    } while (x - r > max() - n);
    return r;
  }

  /// Uniform integer in [lo, hi] inclusive, for any lo <= hi, the full
  /// int64 range included.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box–Muller (cached second value).
  double Gaussian();

  /// Normal with given mean and standard deviation (stddev >= 0).
  double Gaussian(double mean, double stddev);

  /// Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Exponential with rate lambda > 0.
  double Exponential(double lambda);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n). Requires k <= n.
  /// The result order is random.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Draw an index in [0, weights.size()) proportionally to non-negative
  /// weights. If all weights are zero, draws uniformly.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Derive an independent child generator (stable function of this
  /// generator's seed and `stream`); does not advance this generator.
  Rng Fork(uint64_t stream) const;

 private:
  static constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;

  uint64_t state_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace qens

#endif  // QENS_COMMON_RNG_H_
