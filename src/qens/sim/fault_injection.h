#ifndef QENS_SIM_FAULT_INJECTION_H_
#define QENS_SIM_FAULT_INJECTION_H_

/// \file fault_injection.h
/// Seeded fault injection for the simulated edge environment.
///
/// Real edge deployments are unequal and unreliable: nodes crash, go
/// offline for a round, straggle behind their nominal capacity, and links
/// drop messages. The happy-path simulator hides all of that, so the
/// federation loop (and every bench built on it) never exercises its
/// failure handling. This module provides the missing substrate:
///
///   FaultPlan     — a per-node schedule (permanent crash round, straggler
///                   slowdown factor) drawn once from a single seed;
///   FaultInjector — a stateless oracle over a plan answering per-round
///                   questions: is node i up in round t? how slow is it?
///                   was this message transmission lost?
///
/// Every answer is a pure function of (seed, node, round[, link, attempt])
/// via chained Rng::Fork, so two injectors built from the same options
/// agree on the entire schedule regardless of query order — a failure
/// scenario is reproducible from its seed alone.

#include <cstdint>
#include <string>
#include <vector>

#include "qens/common/status.h"

namespace qens::sim {

/// Byzantine corruption modes a misbehaving node can apply. All but
/// kLabelFlipPoisoning corrupt the *returned model parameters* after local
/// training; label poisoning corrupts the participant's local training
/// targets before training (the model itself trains honestly on bad data).
enum class CorruptionKind {
  kNone = 0,            ///< Honest behaviour.
  kNanUpdate,           ///< Every returned parameter is NaN.
  kInfUpdate,           ///< Every returned parameter is +Inf.
  kScaledUpdate,        ///< Returned update (w_i - w) scaled by gamma.
  kSignFlip,            ///< Returned parameters negated.
  kLabelFlipPoisoning,  ///< Local training labels mirrored in-range.
};

/// Stable wire name ("none", "nan", "inf", "scale", "sign_flip",
/// "label_flip").
const char* CorruptionKindName(CorruptionKind kind);

/// Inverse of CorruptionKindName; InvalidArgument on an unknown name.
Result<CorruptionKind> ParseCorruptionKind(const std::string& name);

/// Parse a comma-separated list of corruption kind names ("nan,sign_flip").
/// Empty input yields an empty list.
Result<std::vector<CorruptionKind>> ParseCorruptionKinds(
    const std::string& csv);

/// Fault-schedule knobs; all rates are probabilities in [0, 1]. The
/// defaults describe a fault-free environment.
struct FaultPlanOptions {
  /// Root of every plan draw; each draw hangs off a registered SplitRng
  /// purpose path (kFaultCrash, kFaultStraggler, ... — see the registry in
  /// docs/PERFORMANCE.md).
  uint64_t seed = 0;
  /// Probability that a node permanently crashes at some round drawn
  /// uniformly from [0, crash_horizon).
  double crash_rate = 0.0;
  /// Rounds over which crash times are spread.
  size_t crash_horizon = 20;
  /// Per-node per-round probability of a transient dropout (offline for
  /// that round only).
  double dropout_rate = 0.0;
  /// Probability that a node is a persistent straggler.
  double straggler_rate = 0.0;
  /// Straggler training-time multiplier range (>= 1).
  double straggler_slowdown_min = 2.0;
  double straggler_slowdown_max = 8.0;
  /// Per-transmission probability that a message is lost in flight.
  double message_loss_rate = 0.0;
  /// Fraction of the nodes that are Byzantine (persistent attackers): the
  /// plan marks exactly ceil(corruption_rate * num_nodes) of them, chosen
  /// by a keyed permutation of the node ids (rounding noise in the product
  /// is ignored, so 0.07 of 100 nodes is 7, not 8). Each attacker is
  /// assigned one corruption mode drawn uniformly from `corruption_kinds`
  /// at plan time.
  double corruption_rate = 0.0;
  /// Attack modes to mix across attackers. Must be non-empty and must not
  /// contain kNone when corruption_rate > 0.
  std::vector<CorruptionKind> corruption_kinds;
  /// Per-node per-round probability that an attacker actually corrupts
  /// that round (1 = attacks every round it participates in).
  double corruption_active_rate = 1.0;
  /// Multiplier applied to the update by kScaledUpdate attackers.
  double corruption_gamma = 10.0;
};

/// One node's precomputed fate under a plan.
struct NodeFaultProfile {
  bool crashes = false;
  size_t crash_round = 0;  ///< Meaningful only when `crashes`.
  bool straggler = false;
  double slowdown = 1.0;   ///< >= 1; 1.0 for non-stragglers.
  bool byzantine = false;
  CorruptionKind corruption = CorruptionKind::kNone;  ///< When `byzantine`.
};

/// The per-node schedule drawn from one seed. Transient events (dropout,
/// message loss) are not materialized here — they are pure functions the
/// injector evaluates on demand.
class FaultPlan {
 public:
  /// Validate options and draw the per-node profiles. Fails on rates
  /// outside [0, 1], a slowdown range below 1, or an inverted range.
  static Result<FaultPlan> Create(size_t num_nodes,
                                  const FaultPlanOptions& options);

  size_t num_nodes() const { return profiles_.size(); }
  const FaultPlanOptions& options() const { return options_; }
  const NodeFaultProfile& node(size_t i) const { return profiles_[i]; }
  const std::vector<NodeFaultProfile>& profiles() const { return profiles_; }

  /// Human-readable schedule summary ("node 3: crash@r5; node 7: 4.2x
  /// straggler; ...") for logging and scenario reproduction.
  std::string Describe() const;

 private:
  FaultPlan(std::vector<NodeFaultProfile> profiles, FaultPlanOptions options)
      : profiles_(std::move(profiles)), options_(options) {}

  std::vector<NodeFaultProfile> profiles_;
  FaultPlanOptions options_;
};

/// Stateless oracle over a FaultPlan. All methods are const and
/// deterministic: equal plans give equal answers in any call order.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  const FaultPlan& plan() const { return plan_; }

  /// Node crashed at or before `round` (crashes are permanent).
  bool IsCrashed(size_t node, size_t round) const;

  /// Node is transiently offline for exactly this round.
  bool IsDroppedOut(size_t node, size_t round) const;

  /// Up and reachable this round: neither crashed nor dropped out.
  bool IsAvailable(size_t node, size_t round) const;

  /// Training-time multiplier for this node in this round (>= 1).
  double SlowdownFactor(size_t node, size_t round) const;

  /// The `attempt`-th transmission of a message over (from -> to) in
  /// `round` is lost in flight.
  bool LoseMessage(size_t from, size_t to, size_t round,
                   size_t attempt) const;

  /// The corruption this node applies in this round: kNone for honest
  /// nodes and for rounds where the attacker lies dormant
  /// (corruption_active_rate < 1).
  CorruptionKind CorruptionFor(size_t node, size_t round) const;

 private:
  FaultPlan plan_;
};

}  // namespace qens::sim

#endif  // QENS_SIM_FAULT_INJECTION_H_
