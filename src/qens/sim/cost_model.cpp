#include "qens/sim/cost_model.h"

#include <cassert>

namespace qens::sim {

double CostModel::TrainingSeconds(size_t samples, size_t epochs,
                                  double capacity) const {
  assert(capacity > 0.0);
  const double work =
      static_cast<double>(samples) * static_cast<double>(epochs);
  return work / (capacity * options_.base_throughput);
}

double CostModel::TransferSeconds(size_t bytes) const {
  return options_.link_latency_s +
         static_cast<double>(bytes) / options_.bandwidth_bytes_per_s;
}

}  // namespace qens::sim
