#include "qens/fl/dynamic_fleet.h"

#include <cmath>
#include <utility>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/common/string_util.h"
#include "qens/fl/leader.h"
#include "qens/fl/query_session.h"
#include "qens/obs/metrics.h"

namespace qens::fl {
namespace {

/// `data` with every row's features moved by `offset` (one per feature).
Result<data::Dataset> Shifted(const data::Dataset& data,
                              const std::vector<double>& offset) {
  Matrix features = data.features();
  for (size_t r = 0; r < features.rows(); ++r) {
    for (size_t d = 0; d < offset.size(); ++d) features(r, d) += offset[d];
  }
  return data::Dataset::Create(std::move(features), data.targets(),
                               data.feature_names(), data.target_name());
}

}  // namespace

DynamicFleet::DynamicFleet(std::shared_ptr<const Fleet> fleet,
                           size_t num_nodes, std::vector<double> span)
    : fleet_(std::move(fleet)),
      present_(num_nodes, 1),
      drifted_(num_nodes),
      stale_rounds_(num_nodes, 0),
      dirty_(num_nodes, 0),
      cum_offset_(num_nodes, std::vector<double>(span.size(), 0.0)),
      published_offset_(num_nodes, std::vector<double>(span.size(), 0.0)),
      span_(std::move(span)) {}

Result<DynamicFleet> DynamicFleet::Create(std::shared_ptr<const Fleet> fleet) {
  if (fleet == nullptr) {
    return Status::InvalidArgument("dynamic fleet: null fleet");
  }
  const DynamicFleetOptions& dyn = fleet->options.dynamic;
  if (dyn.drift.rate < 0.0 || dyn.drift.rate > 1.0) {
    return Status::InvalidArgument(StrFormat(
        "dynamic fleet: drift rate must be in [0, 1], got %g",
        dyn.drift.rate));
  }
  if (dyn.drift.feature_shift < 0.0) {
    return Status::InvalidArgument(
        "dynamic fleet: drift feature_shift must be >= 0");
  }
  if (dyn.refresh && !(dyn.refresh_threshold > 0.0)) {
    return Status::InvalidArgument(
        "dynamic fleet: refresh_threshold must be > 0");
  }

  const size_t num_nodes = fleet->environment.num_nodes();
  QENS_ASSIGN_OR_RETURN(query::HyperRectangle space,
                        fleet->environment.GlobalDataSpace());
  std::vector<double> span(space.dims(), 0.0);
  for (size_t d = 0; d < space.dims(); ++d) {
    const double s = space.dim(d).hi - space.dim(d).lo;
    span[d] = (std::isfinite(s) && s > 0.0) ? s : 0.0;
  }

  // Always run the plan's validation; keep the plan only when churn is on.
  QENS_ASSIGN_OR_RETURN(sim::ChurnPlan plan,
                        sim::ChurnPlan::Create(num_nodes, dyn.churn));
  DynamicFleet dynamic(std::move(fleet), num_nodes, std::move(span));
  if (dyn.churn.churn_rate > 0.0) dynamic.churn_.emplace(std::move(plan));
  return dynamic;
}

bool DynamicFleet::IsPresent(size_t node_id) const {
  return present_[node_id] != 0;
}

const sim::EdgeNode& DynamicFleet::node(size_t node_id) const {
  if (drifted_[node_id].has_value()) return *drifted_[node_id];
  return fleet_->environment.node(node_id);
}

Result<data::Dataset> DynamicFleet::QueryRegionTestData(
    const query::RangeQuery& query) const {
  QENS_ASSIGN_OR_RETURN(query::RangeQuery internal,
                        fleet_->InternalQuery(query));
  // A drifted node's test rows are matched and returned shifted by its
  // accumulated offset; the shifted copies live until the pool is gathered.
  const size_t n = fleet_->test_shards.size();
  std::vector<std::optional<data::Dataset>> shifted(n);
  std::vector<const data::Dataset*> shards(n);
  for (size_t i = 0; i < n; ++i) {
    shards[i] = &fleet_->test_shards[i];
    if (!drifted_[i].has_value()) continue;
    QENS_ASSIGN_OR_RETURN(shifted[i], Shifted(*shards[i], cum_offset_[i]));
    shards[i] = &*shifted[i];
  }
  return Fleet::PoolRegionRows(internal, shards);
}

Result<sim::EdgeNode*> DynamicFleet::MutableNode(size_t i) {
  if (!drifted_[i].has_value()) {
    // First drift event: materialize the session-private copy (data +
    // quantized state, both still matching the published digest).
    drifted_[i].emplace(fleet_->environment.node(i));
  }
  return &*drifted_[i];
}

Status DynamicFleet::ApplyDrift(size_t i, const std::vector<double>& offset) {
  QENS_ASSIGN_OR_RETURN(sim::EdgeNode * node, MutableNode(i));
  const data::Dataset& data = node->local_data();
  if (data.NumFeatures() != offset.size()) {
    return Status::Internal(StrFormat(
        "dynamic fleet: node %zu has %zu features, drift has %zu offsets",
        i, data.NumFeatures(), offset.size()));
  }
  QENS_ASSIGN_OR_RETURN(data::Dataset replaced, Shifted(data, offset));
  QENS_RETURN_NOT_OK(node->ReplaceLocalData(std::move(replaced)));
  for (size_t d = 0; d < offset.size(); ++d) {
    cum_offset_[i][d] += offset[d];
  }
  return Status::OK();
}

Result<DynamicFleet::RoundStats> DynamicFleet::BeginRound(Leader* leader) {
  if (leader == nullptr) {
    return Status::InvalidArgument("dynamic fleet: BeginRound needs a leader");
  }
  const DynamicFleetOptions& dyn = fleet_->options.dynamic;
  const size_t round = round_++;
  const size_t num_nodes = present_.size();
  RoundStats stats;

  // Churn transitions: compare this round's scheduled presence with the
  // previous round's. Round 0 never transitions (plans start present).
  if (churn_.has_value()) {
    for (size_t i = 0; i < num_nodes; ++i) {
      const char now = churn_->IsPresent(i, round) ? 1 : 0;
      if (now == present_[i]) continue;
      present_[i] = now;
      if (now != 0) {
        ++stats.nodes_joined;
        obs::Count("federation.fleet.nodes_joined");
      } else {
        ++stats.nodes_left;
        obs::Count("federation.fleet.nodes_left");
      }
    }
  }

  // Drift events: data drifts on the device whether or not the node is
  // currently participating (an absent node comes back with drifted data).
  if (dyn.drift.rate > 0.0) {
    // Every event is a pure function of (seed, node, round).
    const SplitRng drift_stream =
        SplitRng(dyn.drift.seed).Split(RngPurpose::kDrift);
    for (size_t i = 0; i < num_nodes; ++i) {
      Rng rng = drift_stream.Split(i).Split(round).ToRng();
      if (!rng.Bernoulli(dyn.drift.rate)) continue;
      std::vector<double> offset(span_.size(), 0.0);
      for (size_t d = 0; d < span_.size(); ++d) {
        offset[d] = rng.Uniform(-dyn.drift.feature_shift,
                                dyn.drift.feature_shift) *
                    span_[d];
      }
      QENS_RETURN_NOT_OK(ApplyDrift(i, offset));
      dirty_[i] = 1;
      obs::Count("federation.fleet.drift_events");
    }
  }

  // Age staleness: every round a node carries unpublished drift counts.
  for (size_t i = 0; i < num_nodes; ++i) {
    if (dirty_[i] != 0) ++stale_rounds_[i];
  }

  // Online cluster refresh: a PRESENT node whose accumulated unpublished
  // offset trips the detector re-quantizes its current data and publishes
  // the new digest. The detector is exact — constant per-dimension shifts
  // move the true mean by exactly the offset sum, so no data recompute is
  // needed. Absent nodes refresh after they rejoin.
  if (dyn.refresh) {
    for (size_t i = 0; i < num_nodes; ++i) {
      if (dirty_[i] == 0 || present_[i] == 0) continue;
      double worst = 0.0;
      for (size_t d = 0; d < span_.size(); ++d) {
        if (span_[d] <= 0.0) continue;
        const double rel =
            std::fabs(cum_offset_[i][d] - published_offset_[i][d]) / span_[d];
        if (rel > worst) worst = rel;
      }
      if (worst < dyn.refresh_threshold) continue;
      QENS_ASSIGN_OR_RETURN(sim::EdgeNode * node, MutableNode(i));
      QENS_RETURN_NOT_OK(
          node->Quantize(fleet_->options.environment.kmeans));
      QENS_ASSIGN_OR_RETURN(const selection::NodeProfile* profile,
                            node->profile());
      QENS_RETURN_NOT_OK(leader->PublishRefreshedProfile(*profile));
      published_offset_[i] = cum_offset_[i];
      dirty_[i] = 0;
      stale_rounds_[i] = 0;
      ++stats.refreshes;
      obs::Count("federation.fleet.refreshes");
    }
  }

  // Hand the leader every node's current staleness (no-ops when unchanged;
  // the record is kept even at staleness_weight 0, mirroring reliability).
  size_t stale_sum = 0;
  for (size_t i = 0; i < num_nodes; ++i) {
    leader->SetStaleRounds(fleet_->environment.node(i).id(),
                           stale_rounds_[i]);
    stale_sum += stale_rounds_[i];
  }
  stats.stale_rounds = stale_sum;
  stats.fleet_epoch = leader->fleet_epoch();
  return stats;
}

}  // namespace qens::fl
