#ifndef QENS_OBS_METRICS_H_
#define QENS_OBS_METRICS_H_

/// \file metrics.h
/// Lightweight process-wide metrics: counters, gauges, and fixed-bucket
/// histograms.
///
/// The registry is strictly opt-in. Until `MetricsRegistry::Enable()` is
/// called nothing is allocated — `MetricsRegistry::Get()` returns nullptr
/// and every free helper (`Count`, `Gauge`, `Observe`) is a branch on a
/// single atomic flag. Instrumented hot paths (federation rounds, leader
/// ranking, k-means, the trainer, fault injection) therefore cost nothing
/// and change no output when metrics are off; enabling the layer only adds
/// bookkeeping, never extra RNG draws, so simulation outcomes stay
/// bit-identical either way.
///
/// All registry methods are thread-safe: local training fans out through
/// ThreadPool::ParallelUnits and instruments from worker threads.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qens::obs {

/// Frozen view of one fixed-bucket histogram. `bounds[i]` is the inclusive
/// upper edge of bucket i; one overflow bucket follows the last bound, so
/// `counts.size() == bounds.size() + 1`.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t total = 0;  ///< Number of observations.
  double sum = 0.0;    ///< Sum of observed values.
  double min = 0.0;    ///< Smallest observation (0 when total == 0).
  double max = 0.0;    ///< Largest observation (0 when total == 0).
};

/// Point-in-time copy of every metric in the registry.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// The process-wide metric store. Created on Enable(), destroyed on
/// Disable(); while disabled no instance (and no metric storage) exists.
class MetricsRegistry {
 public:
  /// True once Enable() has been called (and Disable() has not).
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Create the global registry (idempotent).
  static void Enable();

  /// Drop the global registry and everything it recorded (idempotent).
  static void Disable();

  /// The global registry, or nullptr while disabled.
  static MetricsRegistry* Get();

  /// Monotonic counter `name` += delta.
  void IncrCounter(std::string_view name, uint64_t delta = 1);

  /// Last-write-wins gauge.
  void SetGauge(std::string_view name, double value);

  /// Record `value` into the fixed-bucket histogram `name` (buckets are
  /// exponential decades from 1e-6 to 1e3 — spans in seconds land well).
  void Observe(std::string_view name, double value);

  /// Copy out every metric.
  MetricsSnapshot Snapshot() const;

  /// Clear all recorded values (the registry stays enabled).
  void Reset();

 private:
  MetricsRegistry() = default;

  struct Histogram {
    std::vector<uint64_t> counts;  ///< kBucketCount entries.
    uint64_t total = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  static const std::vector<double>& BucketBounds();

  static std::atomic<bool> enabled_;

  mutable std::mutex mutex_;
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// \name No-op-when-disabled helpers
/// The instrumentation entry points used throughout the library.
/// @{
inline void Count(std::string_view name, uint64_t delta = 1) {
  if (MetricsRegistry::Enabled()) {
    if (auto* r = MetricsRegistry::Get()) r->IncrCounter(name, delta);
  }
}

inline void Gauge(std::string_view name, double value) {
  if (MetricsRegistry::Enabled()) {
    if (auto* r = MetricsRegistry::Get()) r->SetGauge(name, value);
  }
}

inline void Observe(std::string_view name, double value) {
  if (MetricsRegistry::Enabled()) {
    if (auto* r = MetricsRegistry::Get()) r->Observe(name, value);
  }
}
/// @}

}  // namespace qens::obs

#endif  // QENS_OBS_METRICS_H_
