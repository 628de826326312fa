#ifndef QENS_FL_SEED_DERIVATION_H_
#define QENS_FL_SEED_DERIVATION_H_

/// \file seed_derivation.h
/// The one place the per-query model-initialization seed is derived. Every
/// caller that rebuilds a query's initial global model (the session's
/// round driver, a replay of it) must agree on it bit for bit.
///
/// The seed is the registered key path
/// `SplitRng(session_seed).Split(kModelInit).Split(query_id)`: a pure
/// function of its coordinates, and collision-free across sessions and
/// queries (see the stream key-path registry in docs/PERFORMANCE.md).

#include <cstdint>

#include "qens/common/split_rng.h"

namespace qens::fl {

/// Seed for the global model's weight initialization for `query_id` under
/// `session_seed`. Never inline the key path.
inline uint64_t ModelInitSeed(uint64_t session_seed, uint64_t query_id) {
  return SplitRng(session_seed)
      .Split(RngPurpose::kModelInit)
      .Split(query_id)
      .key();
}

}  // namespace qens::fl

#endif  // QENS_FL_SEED_DERIVATION_H_
