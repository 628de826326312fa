#include "qens/common/rng.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <numbers>

#include "qens/common/logging.h"

namespace qens {

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * Uniform();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  // In uint64 arithmetic, where wraparound is defined: hi - lo is the
  // span less one even when the span exceeds INT64_MAX, and lo + r wraps
  // back into [lo, hi]. A range that fits draws what it always drew; the
  // full range, whose span 2^64 does not fit, is lo plus one raw draw.
  const uint64_t span_less_one =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  const uint64_t r =
      span_less_one == max() ? Next() : UniformInt(span_less_one + 1);
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + r);
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - Uniform();
  double u2 = Uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  assert(stddev >= 0.0);
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

double Rng::Exponential(double lambda) {
  assert(lambda > 0.0);
  return -std::log(1.0 - Uniform()) / lambda;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  // Partial Fisher–Yates over an index vector; O(n) memory, O(n + k) time.
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(UniformInt(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  assert(!weights.empty());
  // Negative or NaN weights are clamped to zero rather than asserted:
  // `assert` compiles out in Release, where a negative weight would skew the
  // prefix-sum walk (and NaN would poison `total`) silently. Valid inputs
  // take exactly the same draws as before.
  bool clamped = false;
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) {
      total += w;
    } else if (w < 0.0 || std::isnan(w)) {
      clamped = true;
    }
  }
  // Warn once per process: a caller with a bad weight usually repeats it on
  // every draw, and the clamp itself is the documented behaviour.
  static std::atomic<bool> warned{false};
  if (clamped && !warned.exchange(true)) {
    QENS_LOG(Warning) << "Rng::WeightedIndex: negative or NaN weights "
                         "clamped to 0";
  }
  if (total <= 0.0) return static_cast<size_t>(UniformInt(weights.size()));
  double target = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i];
    if (w > 0.0) acc += w;
    if (target < acc) return i;
  }
  return weights.size() - 1;  // Numerical edge: target ~= total.
}

Rng Rng::Fork(uint64_t stream) const {
  // Mix the *current* state with the stream id through one SplitMix step so
  // forks are decorrelated from the parent and from each other.
  uint64_t z = state_ ^ (stream * 0xda942042e4dd58b5ull + kGolden);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return Rng(z ^ (z >> 31));
}

}  // namespace qens
