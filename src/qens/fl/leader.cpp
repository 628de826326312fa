#include "qens/fl/leader.h"

#include "qens/common/string_util.h"
#include "qens/obs/metrics.h"
#include "qens/obs/trace.h"

namespace qens::fl {

std::vector<double> SelectionDecision::SelectedRankings() const {
  std::vector<double> out;
  out.reserve(selected.size());
  for (const auto& r : selected) out.push_back(r.ranking);
  return out;
}

std::vector<size_t> SelectionDecision::SelectedNodeIds() const {
  std::vector<size_t> out;
  out.reserve(selected.size());
  for (const auto& r : selected) out.push_back(r.node_id);
  return out;
}

Result<std::vector<selection::NodeRank>> Leader::Rank(
    const query::RangeQuery& query) const {
  obs::TraceSpan span("leader.rank");
  obs::Count("leader.rankings");
  return selection::RankNodes(profiles(), query, ranking_options_);
}

Result<SelectionDecision> Leader::Decide(
    const query::RangeQuery& query) const {
  obs::TraceSpan span("leader.decide");
  SelectionDecision decision;
  QENS_ASSIGN_OR_RETURN(decision.all_ranks, Rank(query));
  QENS_ASSIGN_OR_RETURN(
      decision.selected,
      selection::SelectQueryDriven(decision.all_ranks, selection_options_));
  obs::Count("leader.decisions");
  obs::Count("leader.nodes_selected", decision.selected.size());
  return decision;
}

namespace {

/// Index of node_id in `profiles`, or npos. All mutators probe the const
/// view first so a no-op (unknown id, unchanged value) never triggers the
/// copy-on-write materialization.
size_t FindProfile(const std::vector<selection::NodeProfile>& profiles,
                   size_t node_id) {
  for (size_t i = 0; i < profiles.size(); ++i) {
    if (profiles[i].node_id == node_id) return i;
  }
  return static_cast<size_t>(-1);
}

}  // namespace

std::vector<selection::NodeProfile>& Leader::MutableProfiles() {
  if (shared_profiles_ != nullptr) {
    owned_profiles_ = *shared_profiles_;  // Deep copy, once per leader.
    shared_profiles_.reset();
    obs::Count("leader.profile_copies");
  }
  return owned_profiles_;
}

void Leader::SetStaleRounds(size_t node_id, size_t stale_rounds) {
  const size_t at = FindProfile(profiles(), node_id);
  if (at == static_cast<size_t>(-1)) return;
  if (profiles()[at].stale_rounds == stale_rounds) return;
  MutableProfiles()[at].stale_rounds = stale_rounds;
}

Status Leader::PublishRefreshedProfile(const selection::NodeProfile& fresh) {
  const size_t at = FindProfile(profiles(), fresh.node_id);
  if (at == static_cast<size_t>(-1)) {
    return Status::NotFound(StrFormat(
        "PublishRefreshedProfile: unknown node id %zu", fresh.node_id));
  }
  selection::NodeProfile& profile = MutableProfiles()[at];
  profile.clusters = fresh.clusters;
  profile.total_samples = fresh.total_samples;
  profile.stale_rounds = 0;  // The digest matches the data again.
  // Reliability history is the leader's own observation — it survives.
  ++fleet_epoch_;
  obs::Count("leader.profile_refreshes");
  return Status::OK();
}

void Leader::RecordRoundResult(size_t node_id, RoundResult result) {
  const size_t at = FindProfile(profiles(), node_id);
  if (at == static_cast<size_t>(-1)) return;
  selection::NodeProfile& profile = MutableProfiles()[at];
  switch (result) {
    case RoundResult::kCompleted:
      profile.reliability.RecordCompleted();
      break;
    case RoundResult::kFailed:
      profile.reliability.RecordFailure();
      break;
    case RoundResult::kMissedDeadline:
      profile.reliability.RecordDeadlineMiss();
      break;
    case RoundResult::kRejected:
      profile.reliability.RecordRejected();
      break;
  }
}

}  // namespace qens::fl
