#include "qens/selection/policies.h"

#include <algorithm>

#include "qens/common/string_util.h"

namespace qens::selection {

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kQueryDriven:
      return "query-driven";
    case PolicyKind::kRandom:
      return "random";
    case PolicyKind::kAllNodes:
      return "all-nodes";
    case PolicyKind::kGameTheory:
      return "game-theory";
  }
  return "unknown";
}

Result<PolicyKind> ParsePolicyKind(const std::string& name) {
  const std::string n = ToLower(Trim(name));
  if (n == "query-driven" || n == "querydriven" || n == "qens") {
    return PolicyKind::kQueryDriven;
  }
  if (n == "random") return PolicyKind::kRandom;
  if (n == "all-nodes" || n == "all") return PolicyKind::kAllNodes;
  if (n == "game-theory" || n == "gt") return PolicyKind::kGameTheory;
  return Status::InvalidArgument("unknown policy: '" + name + "'");
}

Result<size_t> QueryDrivenCutLength(std::span<const NodeRank> ranked,
                                    const QueryDrivenOptions& options) {
  size_t kept = 0;
  if (options.use_threshold) {
    if (options.psi <= 0.0) {
      return Status::InvalidArgument("SelectByThreshold: psi must be > 0");
    }
    while (kept < ranked.size() && ranked[kept].ranking >= options.psi) {
      ++kept;
    }
    return kept;
  }
  if (options.top_l == 0) {
    return Status::InvalidArgument("SelectTopL: l must be > 0");
  }
  const size_t limit = std::min(options.top_l, ranked.size());
  while (kept < limit &&
         !(options.drop_zero_rank && ranked[kept].ranking <= 0.0)) {
    ++kept;
  }
  return kept;
}

Result<std::vector<NodeRank>> SelectQueryDriven(
    const std::vector<NodeRank>& ranked, const QueryDrivenOptions& options) {
  QENS_ASSIGN_OR_RETURN(const size_t kept,
                        QueryDrivenCutLength(ranked, options));
  return std::vector<NodeRank>(ranked.begin(),
                               ranked.begin() + static_cast<ptrdiff_t>(kept));
}

Result<std::vector<NodeRank>> SelectTopL(const std::vector<NodeRank>& ranked,
                                         size_t l, bool drop_zero_rank) {
  QueryDrivenOptions options;
  options.top_l = l;
  options.drop_zero_rank = drop_zero_rank;
  return SelectQueryDriven(ranked, options);
}

Result<std::vector<NodeRank>> SelectByThreshold(
    const std::vector<NodeRank>& ranked, double psi) {
  QueryDrivenOptions options;
  options.use_threshold = true;
  options.psi = psi;
  return SelectQueryDriven(ranked, options);
}

Result<std::vector<size_t>> SelectRandom(size_t num_nodes, size_t l,
                                         Rng* rng) {
  if (l == 0) return Status::InvalidArgument("SelectRandom: l must be > 0");
  if (l > num_nodes) {
    return Status::InvalidArgument(
        StrFormat("SelectRandom: l=%zu > num_nodes=%zu", l, num_nodes));
  }
  std::vector<size_t> picked = rng->SampleWithoutReplacement(num_nodes, l);
  std::sort(picked.begin(), picked.end());
  return picked;
}

std::vector<size_t> SelectAllNodes(size_t num_nodes) {
  std::vector<size_t> ids(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) ids[i] = i;
  return ids;
}

}  // namespace qens::selection
