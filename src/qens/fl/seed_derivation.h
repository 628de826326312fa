#ifndef QENS_FL_SEED_DERIVATION_H_
#define QENS_FL_SEED_DERIVATION_H_

/// \file seed_derivation.h
/// The one place the per-query model-initialization seed is derived — the
/// planner and the session MUST agree on it bit-for-bit, or the planner's
/// dry-run model (and therefore its byte estimates under the text
/// serializer) would diverge from the model the session actually trains.
///
/// Two derivations coexist, selected by a flag that defaults to the older:
///
///  1. Historical affine map `seed * 1000003 + query_id`. NOT injective
///     across sessions: (seed, id) and (seed + 1, id - 1000003) collide
///     whenever ids reach 1000003, so two different sessions can initialize
///     identical models for different queries. Kept as the default for
///     byte-identical legacy outputs.
///  2. `splittable` (FederationOptions::splittable_rng /
///     PlannerOptions::splittable_rng): the registered key path
///     `SplitRng(session_seed).Split(kModelInit).Split(query_id)`. This is
///     the collision-free derivation the splittable-RNG mode uses.

#include <cstdint>

#include "qens/common/split_rng.h"

namespace qens::fl {

/// Seed for the global model's weight initialization for `query_id` under
/// `session_seed`. Both the QuerySession round driver and the Planner's
/// dry-run must call this — never inline the formula.
inline uint64_t ModelInitSeed(uint64_t session_seed, uint64_t query_id,
                              bool splittable = false) {
  if (splittable) {
    // Registered key path (RngPurpose::kModelInit): collision-free across
    // sessions and auditable against the registry in docs/PERFORMANCE.md.
    return SplitRng(session_seed)
        .Split(RngPurpose::kModelInit)
        .Split(query_id)
        .key();
  }
  // Historical affine map (collision-prone across sessions, kept for
  // byte-identical default outputs).
  return session_seed * 1000003ull + query_id;
}

}  // namespace qens::fl

#endif  // QENS_FL_SEED_DERIVATION_H_
