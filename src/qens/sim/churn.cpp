#include "qens/sim/churn.h"

#include <algorithm>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/common/string_util.h"

namespace qens::sim {
Result<ChurnPlan> ChurnPlan::Create(size_t num_nodes,
                                    const ChurnPlanOptions& options) {
  if (options.churn_rate < 0.0 || options.churn_rate > 1.0) {
    return Status::InvalidArgument(
        StrFormat("churn plan: churn_rate must be in [0, 1], got %g",
                  options.churn_rate));
  }
  std::vector<NodeChurnProfile> profiles(num_nodes);
  if (options.churn_rate > 0.0) {
    if (options.churn_horizon == 0) {
      return Status::InvalidArgument(
          "churn plan: churn_horizon must be > 0 when churn_rate > 0");
    }
    if (options.min_down_rounds < 1 ||
        options.max_down_rounds < options.min_down_rounds) {
      return Status::InvalidArgument(
          "churn plan: down-interval range must satisfy 1 <= min <= max");
    }
    if (options.min_up_rounds < 1 ||
        options.max_up_rounds < options.min_up_rounds) {
      return Status::InvalidArgument(
          "churn plan: up-interval range must satisfy 1 <= min <= max");
    }
    const SplitRng churn_stream =
        SplitRng(options.seed).Split(RngPurpose::kChurn);
    for (size_t i = 0; i < num_nodes; ++i) {
      // The churner draw and interval lengths: a pure function of
      // (seed, node).
      Rng rng = churn_stream.Split(i).ToRng();
      if (!rng.Bernoulli(options.churn_rate)) continue;
      NodeChurnProfile& p = profiles[i];
      p.churner = true;
      // Alternate up/down intervals from round 0 (starting present) out to
      // the horizon; the node keeps its final state past the horizon.
      size_t cursor = 0;
      bool up = true;
      while (cursor < options.churn_horizon) {
        const size_t len =
            up ? static_cast<size_t>(rng.UniformInt(
                     static_cast<int64_t>(options.min_up_rounds),
                     static_cast<int64_t>(options.max_up_rounds)))
               : static_cast<size_t>(rng.UniformInt(
                     static_cast<int64_t>(options.min_down_rounds),
                     static_cast<int64_t>(options.max_down_rounds)));
        cursor += len;
        up = !up;
        if (cursor >= options.churn_horizon) break;
        p.transitions.push_back(cursor);
      }
    }
  }
  return ChurnPlan(std::move(profiles), options);
}

bool ChurnPlan::IsPresent(size_t node, size_t round) const {
  const NodeChurnProfile& p = profiles_[node];
  if (!p.churner || p.transitions.empty()) return true;
  // Present iff an even number of flips happened at or before `round`.
  const size_t flips = static_cast<size_t>(
      std::upper_bound(p.transitions.begin(), p.transitions.end(), round) -
      p.transitions.begin());
  return (flips % 2) == 0;
}

size_t ChurnPlan::NumChurners() const {
  size_t n = 0;
  for (const NodeChurnProfile& p : profiles_) {
    if (p.churner) ++n;
  }
  return n;
}

std::string ChurnPlan::Describe() const {
  std::string out = StrFormat("churn plan (seed %llu, %zu nodes):",
                              static_cast<unsigned long long>(options_.seed),
                              profiles_.size());
  bool any = false;
  for (size_t i = 0; i < profiles_.size(); ++i) {
    const NodeChurnProfile& p = profiles_[i];
    if (!p.churner || p.transitions.empty()) continue;
    any = true;
    out += StrFormat(" node %zu: down@", i);
    for (size_t t = 0; t < p.transitions.size(); t += 2) {
      if (t > 0) out.push_back(',');
      if (t + 1 < p.transitions.size()) {
        out += StrFormat("[r%zu,r%zu)", p.transitions[t],
                         p.transitions[t + 1]);
      } else {
        out += StrFormat("[r%zu,horizon)", p.transitions[t]);
      }
    }
    out.push_back(';');
  }
  if (!any) out += " no churners;";
  out += StrFormat(" churn %.0f%%, horizon %zu rounds",
                   options_.churn_rate * 100.0, options_.churn_horizon);
  return out;
}

}  // namespace qens::sim
