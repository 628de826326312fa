#include "qens/sim/fault_injection.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/common/string_util.h"
#include "qens/obs/metrics.h"

namespace qens::sim {
namespace {

/// The per-dimension stream for one node: the registered purpose path
/// seed -> purpose -> coord. Per-round and per-attempt draws fork it
/// further, so every answer is a pure function of its coordinates.
Rng DimensionRng(const FaultPlanOptions& options, RngPurpose purpose,
                 uint64_t coord) {
  return SplitRng(options.seed).Split(purpose).Split(coord).ToRng();
}

/// ceil(rate * num_nodes) for a rate in [0, 1]. The product is shrunk by
/// a few ulps first: 0.07 * 100 evaluates to 7.000000000000001 in
/// binary64, and seven attackers are meant, not eight.
size_t AttackerCount(size_t num_nodes, double rate) {
  const double scaled = rate * static_cast<double>(num_nodes) *
                        (1.0 - 4.0 * std::numeric_limits<double>::epsilon());
  return std::min(num_nodes, static_cast<size_t>(std::ceil(scaled)));
}

Status ValidateRate(double rate, const char* what) {
  if (rate < 0.0 || rate > 1.0) {
    return Status::InvalidArgument(
        StrFormat("fault plan: %s must be in [0, 1], got %g", what, rate));
  }
  return Status::OK();
}

}  // namespace

const char* CorruptionKindName(CorruptionKind kind) {
  switch (kind) {
    case CorruptionKind::kNone:
      return "none";
    case CorruptionKind::kNanUpdate:
      return "nan";
    case CorruptionKind::kInfUpdate:
      return "inf";
    case CorruptionKind::kScaledUpdate:
      return "scale";
    case CorruptionKind::kSignFlip:
      return "sign_flip";
    case CorruptionKind::kLabelFlipPoisoning:
      return "label_flip";
  }
  return "none";
}

Result<CorruptionKind> ParseCorruptionKind(const std::string& name) {
  const std::string n = ToLower(Trim(name));
  if (n == "none") return CorruptionKind::kNone;
  if (n == "nan") return CorruptionKind::kNanUpdate;
  if (n == "inf") return CorruptionKind::kInfUpdate;
  if (n == "scale" || n == "scaled") return CorruptionKind::kScaledUpdate;
  if (n == "sign_flip" || n == "sign-flip") return CorruptionKind::kSignFlip;
  if (n == "label_flip" || n == "label-flip") {
    return CorruptionKind::kLabelFlipPoisoning;
  }
  return Status::InvalidArgument("unknown corruption kind: '" + name + "'");
}

Result<std::vector<CorruptionKind>> ParseCorruptionKinds(
    const std::string& csv) {
  std::vector<CorruptionKind> kinds;
  if (Trim(csv).empty()) return kinds;
  for (const std::string& part : Split(csv, ',')) {
    QENS_ASSIGN_OR_RETURN(CorruptionKind kind, ParseCorruptionKind(part));
    kinds.push_back(kind);
  }
  return kinds;
}

Result<FaultPlan> FaultPlan::Create(size_t num_nodes,
                                    const FaultPlanOptions& options) {
  QENS_RETURN_NOT_OK(ValidateRate(options.crash_rate, "crash_rate"));
  QENS_RETURN_NOT_OK(ValidateRate(options.dropout_rate, "dropout_rate"));
  QENS_RETURN_NOT_OK(ValidateRate(options.straggler_rate, "straggler_rate"));
  QENS_RETURN_NOT_OK(
      ValidateRate(options.message_loss_rate, "message_loss_rate"));
  if (options.straggler_slowdown_min < 1.0 ||
      options.straggler_slowdown_max < options.straggler_slowdown_min) {
    return Status::InvalidArgument(
        "fault plan: slowdown range must satisfy 1 <= min <= max");
  }
  if (options.crash_rate > 0.0 && options.crash_horizon == 0) {
    return Status::InvalidArgument(
        "fault plan: crash_horizon must be > 0 when crash_rate > 0");
  }
  QENS_RETURN_NOT_OK(ValidateRate(options.corruption_rate, "corruption_rate"));
  QENS_RETURN_NOT_OK(
      ValidateRate(options.corruption_active_rate, "corruption_active_rate"));
  if (options.corruption_rate > 0.0) {
    if (options.corruption_kinds.empty()) {
      return Status::InvalidArgument(
          "fault plan: corruption_kinds must be non-empty when "
          "corruption_rate > 0");
    }
    for (CorruptionKind kind : options.corruption_kinds) {
      if (kind == CorruptionKind::kNone) {
        return Status::InvalidArgument(
            "fault plan: corruption_kinds must not contain 'none'");
      }
    }
    if (!std::isfinite(options.corruption_gamma)) {
      return Status::InvalidArgument(
          "fault plan: corruption_gamma must be finite");
    }
  }

  std::vector<NodeFaultProfile> profiles(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    NodeFaultProfile& p = profiles[i];
    Rng crash_rng = DimensionRng(options, RngPurpose::kFaultCrash, i);
    if (crash_rng.Bernoulli(options.crash_rate)) {
      p.crashes = true;
      p.crash_round =
          static_cast<size_t>(crash_rng.UniformInt(options.crash_horizon));
    }
    Rng straggler_rng = DimensionRng(options, RngPurpose::kFaultStraggler, i);
    if (straggler_rng.Bernoulli(options.straggler_rate)) {
      p.straggler = true;
      p.slowdown = straggler_rng.Uniform(options.straggler_slowdown_min,
                                         options.straggler_slowdown_max);
    }
  }
  // The attackers are the first AttackerCount() entries of a keyed
  // permutation of the node ids; each draws its mode from its own stream.
  Rng attacker_rng =
      SplitRng(options.seed).Split(RngPurpose::kFaultAttackers).ToRng();
  for (size_t i : attacker_rng.SampleWithoutReplacement(
           num_nodes, AttackerCount(num_nodes, options.corruption_rate))) {
    NodeFaultProfile& p = profiles[i];
    Rng corrupt_rng = DimensionRng(options, RngPurpose::kFaultCorrupt, i);
    p.byzantine = true;
    p.corruption = options.corruption_kinds[static_cast<size_t>(
        corrupt_rng.UniformInt(options.corruption_kinds.size()))];
  }
  return FaultPlan(std::move(profiles), options);
}

std::string FaultPlan::Describe() const {
  std::string out = StrFormat("fault plan (seed %llu, %zu nodes):",
                              static_cast<unsigned long long>(options_.seed),
                              profiles_.size());
  bool any = false;
  for (size_t i = 0; i < profiles_.size(); ++i) {
    const NodeFaultProfile& p = profiles_[i];
    if (p.crashes) {
      out += StrFormat(" node %zu: crash@r%zu;", i, p.crash_round);
      any = true;
    }
    if (p.straggler) {
      out += StrFormat(" node %zu: %.2fx straggler;", i, p.slowdown);
      any = true;
    }
    if (p.byzantine) {
      out += StrFormat(" node %zu: byzantine (%s);", i,
                       CorruptionKindName(p.corruption));
      any = true;
    }
  }
  if (!any) out += " no scheduled node faults;";
  out += StrFormat(" dropout %.0f%%, message loss %.0f%%",
                   options_.dropout_rate * 100.0,
                   options_.message_loss_rate * 100.0);
  return out;
}

bool FaultInjector::IsCrashed(size_t node, size_t round) const {
  const NodeFaultProfile& p = plan_.node(node);
  const bool crashed = p.crashes && round >= p.crash_round;
  if (crashed) obs::Count("faults.crash_hits");
  return crashed;
}

bool FaultInjector::IsDroppedOut(size_t node, size_t round) const {
  const double rate = plan_.options().dropout_rate;
  if (rate <= 0.0) return false;
  Rng rng = DimensionRng(plan_.options(), RngPurpose::kFaultDropout, node)
                .Fork(round);
  const bool dropped = rng.Bernoulli(rate);
  if (dropped) obs::Count("faults.dropouts");
  return dropped;
}

bool FaultInjector::IsAvailable(size_t node, size_t round) const {
  return !IsCrashed(node, round) && !IsDroppedOut(node, round);
}

double FaultInjector::SlowdownFactor(size_t node, size_t round) const {
  (void)round;  // Slowdowns are persistent; round kept for future transients.
  return plan_.node(node).slowdown;
}

bool FaultInjector::LoseMessage(size_t from, size_t to, size_t round,
                                size_t attempt) const {
  const double rate = plan_.options().message_loss_rate;
  if (rate <= 0.0) return false;
  Rng rng = DimensionRng(plan_.options(), RngPurpose::kFaultMessageLoss,
                         from * 0x10001 + to)
                .Fork(round)
                .Fork(attempt);
  const bool lost = rng.Bernoulli(rate);
  if (lost) obs::Count("faults.messages_lost");
  return lost;
}

CorruptionKind FaultInjector::CorruptionFor(size_t node, size_t round) const {
  const NodeFaultProfile& p = plan_.node(node);
  if (!p.byzantine) return CorruptionKind::kNone;
  const double active = plan_.options().corruption_active_rate;
  if (active < 1.0) {
    Rng rng =
        DimensionRng(plan_.options(), RngPurpose::kFaultCorruptActive, node)
            .Fork(round);
    if (!rng.Bernoulli(active)) return CorruptionKind::kNone;
  }
  obs::Count("faults.corruptions");
  return p.corruption;
}

}  // namespace qens::sim
