#include "qens/fl/protocol.h"

namespace qens::fl {

double QueryOutcome::DataFractionOfAll() const {
  return samples_all_nodes > 0 ? static_cast<double>(samples_used) /
                                     static_cast<double>(samples_all_nodes)
                               : 0.0;
}

}  // namespace qens::fl
