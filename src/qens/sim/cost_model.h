#ifndef QENS_SIM_COST_MODEL_H_
#define QENS_SIM_COST_MODEL_H_

/// \file cost_model.h
/// Deterministic time/cost model of the simulated edge environment.
///
/// The paper runs on physical nodes and reports model-building time
/// (Fig. 8). Our substrate is a simulator, so we model time as
///   training:  samples_trained * epochs / node_capacity
///   transfer:  latency + bytes / bandwidth
/// which preserves the *shape* of Fig. 8 (time proportional to the amount
/// of data trained on) while remaining machine-independent. Wall-clock time
/// of the real C++ training run is reported alongside by the harness.

#include <cstddef>

namespace qens::sim {

/// Tunable constants of the simulated platform.
struct CostModelOptions {
  /// Per-message one-way latency in seconds (e.g. edge LAN RTT/2).
  double link_latency_s = 0.005;
  /// Link bandwidth in bytes/second (default 10 MB/s edge uplink).
  double bandwidth_bytes_per_s = 10.0 * 1024 * 1024;
  /// Baseline node throughput in (sample * epoch)s per second for capacity
  /// 1.0. A node with capacity c trains c * base_throughput samples/s.
  double base_throughput = 50'000.0;
};

/// Computes simulated durations for training and communication.
class CostModel {
 public:
  explicit CostModel(CostModelOptions options = {}) : options_(options) {}

  const CostModelOptions& options() const { return options_; }

  /// Seconds to train `samples` rows for `epochs` passes on a node of
  /// relative compute `capacity` (> 0).
  double TrainingSeconds(size_t samples, size_t epochs,
                         double capacity) const;

  /// Seconds to ship `bytes` over one link.
  double TransferSeconds(size_t bytes) const;

 private:
  CostModelOptions options_;
};

}  // namespace qens::sim

#endif  // QENS_SIM_COST_MODEL_H_
