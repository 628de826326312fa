#ifndef QENS_COMMON_SPLIT_RNG_H_
#define QENS_COMMON_SPLIT_RNG_H_

/// \file split_rng.h
/// Counter-based, hierarchically splittable random streams.
///
/// `Rng` (rng.h) is a linear state machine: the value of draw i depends on
/// how many draws happened before it, so any consumer that shares an `Rng`
/// across work units ties its output to execution order. `SplitRng` removes
/// that coupling. A `SplitRng` is nothing but a 64-bit *key*; child streams
/// are derived by folding logical coordinates (session id, round, node id,
/// purpose tag, chunk index, ...) into the key through a full-avalanche
/// SplitMix64 mix, and the i-th output of a stream is a pure function of
/// (key, i). Two consequences:
///
///  1. Any unit of work can reconstruct its exact stream from its logical
///     coordinates alone — never from draw order or thread identity — so a
///     stream is invariant to query arrival order as well as to scheduling.
///  2. Streams can be audited: the full key path of every stream in the
///     system is documented in the purpose registry (docs/PERFORMANCE.md).
///
/// Interop with `Rng` is exact by construction:
///   - `SplitRng(s).Split(c)` has the same key as the seed of `Rng` state s
///     forked with stream c — i.e. `SplitRng(s).Split(c).ToRng()` produces
///     the same outputs as `Rng(s).Fork(c)`.
///   - `Draw(i)` equals the i-th output of `ToRng()` without materializing
///     a generator or advancing any state (counter-based access).
///
/// Purpose tags live in their own coordinate subspace (offset by a large
/// constant) so a purpose can never collide with a small integer coordinate
/// such as a node id at the same tree level.

#include <cstdint>

#include "qens/common/rng.h"

namespace qens {

/// Key-path purpose registry. Exactly one entry per documented stream
/// consumer; values are permanent — never renumber or reuse one, append
/// only. A retired purpose keeps its value and has no consumer. The
/// authoritative table mapping each purpose to its consumer and full key
/// path is in docs/PERFORMANCE.md ("Stream key-path registry").
enum class RngPurpose : uint64_t {
  kModelInit = 1,             ///< fl/seed_derivation.h — per-query model init.
  kSessionSeed = 2,           ///< fl/query_server.cpp — per-session base seed.
  kLocalTraining = 3,         ///< Retired: local training roots at seed + id.
  kTrainOrderInit = 4,        ///< ml/trainer.cpp — initial sample order.
  kMinibatchShuffle = 5,      ///< ml/trainer.cpp — per-epoch minibatch order.
  kKMeansInit = 6,            ///< Retired: k-means seeds from Rng(seed).
  kFaultCrash = 7,            ///< sim/fault_injection.cpp — crash-round draw.
  kFaultStraggler = 8,        ///< sim/fault_injection.cpp — slowdown draw.
  kFaultDropout = 9,          ///< sim/fault_injection.cpp — per-round dropout.
  kFaultMessageLoss = 10,     ///< sim/fault_injection.cpp — per-link loss.
  kFaultCorrupt = 11,         ///< sim/fault_injection.cpp — corruption pick.
  kFaultCorruptActive = 12,   ///< sim/fault_injection.cpp — intermittent gate.
  kChurn = 13,                ///< sim/churn.cpp — join/leave interval draws.
  kDrift = 14,                ///< fl/dynamic_fleet.cpp — per-round drift.
  kRandomSelection = 15,      ///< fl/query_session.cpp — Random policy picks.
  kVolatileDropout = 16,      ///< fl/query_session.cpp — volatile-node drops.
  kStochasticSelection = 17,  ///< fl/query_session.cpp — stochastic policy.
  kFaultAttackers = 18,       ///< sim/fault_injection.cpp — attacker set.
};

/// An immutable stream key. Copy freely; all operations are const and
/// allocation-free. Not a generator itself: call `ToRng()` for sequential
/// draws with the full distribution toolkit, or `Draw(i)` for random access
/// to the raw 64-bit outputs.
class SplitRng {
 public:
  /// Root of a stream tree; equal seeds yield equal trees.
  explicit constexpr SplitRng(uint64_t base_seed) : key_(base_seed) {}

  /// The stream key. Stable across platforms and library versions; safe to
  /// persist (it fully identifies the stream).
  constexpr uint64_t key() const { return key_; }

  /// Child stream for coordinate `coord` (node id, round, chunk, ...).
  /// Pure function of (key, coord); full-avalanche, so adjacent coordinates
  /// yield decorrelated children.
  SplitRng Split(uint64_t coord) const;

  /// Child stream for a registered purpose. Purposes are offset into a
  /// disjoint coordinate subspace, so `Split(RngPurpose::k...)` can never
  /// collide with `Split(small_integer)` at the same level.
  SplitRng Split(RngPurpose purpose) const {
    return Split(static_cast<uint64_t>(purpose) + kPurposeBase);
  }

  /// Sequential generator over this stream. The i-th `Next()` equals
  /// `Draw(i)`.
  Rng ToRng() const { return Rng(key_); }

  /// Random access: the i-th raw output of this stream, without state.
  uint64_t Draw(uint64_t i) const;

  friend bool operator==(const SplitRng& a, const SplitRng& b) {
    return a.key_ == b.key_;
  }

 private:
  static constexpr uint64_t kPurposeBase = 0x9f0a4c1d5e3b7280ull;

  uint64_t key_;
};

}  // namespace qens

#endif  // QENS_COMMON_SPLIT_RNG_H_
