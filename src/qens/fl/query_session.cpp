#include "qens/fl/query_session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/common/stopwatch.h"
#include "qens/common/string_util.h"
#include "qens/data/splitter.h"
#include "qens/fl/aggregation.h"
#include "qens/fl/round_engine.h"
#include "qens/fl/seed_derivation.h"
#include "qens/ml/loss.h"
#include "qens/ml/model_codec.h"
#include "qens/ml/model_io.h"
#include "qens/obs/metrics.h"
#include "qens/obs/trace.h"
#include "qens/selection/policies.h"

namespace qens::fl {

Result<std::shared_ptr<Fleet>> Fleet::Create(
    std::vector<data::Dataset> node_data, const FederationOptions& options) {
  if (node_data.empty()) {
    return Status::InvalidArgument("federation: no nodes");
  }
  if (options.test_fraction <= 0.0 || options.test_fraction >= 1.0) {
    return Status::InvalidArgument(
        "federation: test_fraction must be in (0, 1)");
  }

  std::vector<data::Dataset> train_shards;
  std::vector<data::Dataset> test_shards;
  train_shards.reserve(node_data.size());
  test_shards.reserve(node_data.size());
  for (size_t i = 0; i < node_data.size(); ++i) {
    QENS_ASSIGN_OR_RETURN(
        data::TrainTestSplit split,
        data::SplitTrainTest(node_data[i], options.test_fraction,
                             options.seed + 31 * i));
    train_shards.push_back(std::move(split.train));
    test_shards.push_back(std::move(split.test));
  }

  // Raw-unit global data space: hull of every node's (train) feature box.
  QENS_ASSIGN_OR_RETURN(query::HyperRectangle raw_space,
                        train_shards[0].FeatureSpace());
  for (size_t i = 1; i < train_shards.size(); ++i) {
    QENS_ASSIGN_OR_RETURN(query::HyperRectangle space,
                          train_shards[i].FeatureSpace());
    QENS_ASSIGN_OR_RETURN(raw_space, raw_space.Hull(space));
  }

  // Leader-coordinated min-max normalization: the scaling constants are the
  // global per-dimension bounds, which in the real protocol come straight
  // from the cluster boundaries the nodes already publish.
  std::optional<data::Normalizer> feature_norm;
  std::optional<data::Normalizer> target_norm;
  if (options.normalize) {
    // Pool features/targets to fit the global bounds (numerically equal to
    // the hull of per-node bounds for min-max scaling).
    QENS_ASSIGN_OR_RETURN(data::Dataset pooled,
                          data::StackShards(train_shards));
    QENS_ASSIGN_OR_RETURN(
        data::Normalizer fn,
        data::Normalizer::Fit(pooled.features(), data::ScalingKind::kMinMax));
    QENS_ASSIGN_OR_RETURN(
        data::Normalizer tn,
        data::Normalizer::Fit(pooled.targets(), data::ScalingKind::kMinMax));
    feature_norm = std::move(fn);
    target_norm = std::move(tn);

    auto transform_shard = [&](data::Dataset* shard) -> Status {
      QENS_ASSIGN_OR_RETURN(Matrix f,
                            feature_norm->Transform(shard->features()));
      QENS_ASSIGN_OR_RETURN(Matrix t, target_norm->Transform(shard->targets()));
      QENS_ASSIGN_OR_RETURN(
          *shard, data::Dataset::Create(std::move(f), std::move(t),
                                        shard->feature_names(),
                                        shard->target_name()));
      return Status::OK();
    };
    for (auto& shard : train_shards) QENS_RETURN_NOT_OK(transform_shard(&shard));
    for (auto& shard : test_shards) QENS_RETURN_NOT_OK(transform_shard(&shard));
  }

  QENS_ASSIGN_OR_RETURN(
      sim::EdgeEnvironment environment,
      sim::EdgeEnvironment::Create(std::move(train_shards),
                                   options.environment));

  // The published profiles are immutable cluster metadata: extract them
  // from the environment exactly once and share them with every session's
  // leader (copy-on-write). The counter pins the once-per-fleet contract.
  QENS_ASSIGN_OR_RETURN(std::vector<selection::NodeProfile> published,
                        environment.Profiles());
  obs::Count("fleet.profile_builds");
  auto profiles = std::make_shared<const std::vector<selection::NodeProfile>>(
      std::move(published));

  return std::make_shared<Fleet>(
      Fleet{std::move(environment), std::move(test_shards), options,
            std::move(raw_space), std::move(feature_norm),
            std::move(target_norm), std::move(profiles)});
}

Result<query::RangeQuery> Fleet::InternalQuery(
    const query::RangeQuery& query) const {
  if (!feature_norm.has_value()) return query;
  query::RangeQuery internal = query;
  QENS_ASSIGN_OR_RETURN(internal.region,
                        feature_norm->TransformBox(query.region));
  return internal;
}

double Fleet::DenormalizeMse(double mse) const {
  if (!target_norm.has_value()) return mse;
  const double scale = target_norm->scale()[0];  // y_norm = (y - off) * scale
  if (scale == 0.0) return mse;
  return mse / (scale * scale);
}

Result<data::Dataset> Fleet::QueryRegionTestData(
    const query::RangeQuery& query) const {
  QENS_ASSIGN_OR_RETURN(query::RangeQuery internal, InternalQuery(query));
  std::vector<const data::Dataset*> shards;
  for (const data::Dataset& shard : test_shards) shards.push_back(&shard);
  return PoolRegionRows(internal, shards);
}

Result<data::Dataset> Fleet::PoolRegionRows(
    const query::RangeQuery& internal,
    std::span<const data::Dataset* const> shards) {
  std::vector<std::vector<size_t>> matches(shards.size());
  std::vector<data::RowView> views;
  for (size_t i = 0; i < shards.size(); ++i) {
    QENS_ASSIGN_OR_RETURN(matches[i],
                          internal.MatchingRows(shards[i]->features()));
    if (!matches[i].empty()) views.push_back({shards[i], matches[i]});
  }
  if (views.empty()) {
    return Status::NotFound("no test rows inside the query region");
  }
  return data::GatherRows(views);
}

Result<QuerySession> QuerySession::Create(std::shared_ptr<const Fleet> fleet,
                                          const QuerySessionOptions& options) {
  if (fleet == nullptr) {
    return Status::InvalidArgument("query session: null fleet");
  }
  const FederationOptions& fopts = fleet->options;
  const size_t num_nodes = fleet->environment.num_nodes();

  // The session's leader starts from the fleet's published profiles and
  // accumulates its own reliability observations from there. The profiles
  // are SHARED (copy-on-write): no per-session rebuild of the immutable
  // cluster metadata, and no copy at all until this leader first mutates.
  Leader leader(fleet->profiles, fopts.ranking, fopts.query_driven, nullptr,
                fleet->fleet_epoch);
  sim::Network network(sim::CostModel(fopts.environment.cost),
                       options.network);
  QuerySession session(std::move(fleet), options.session_id,
                       options.seed.value_or(fopts.seed), std::move(leader),
                       std::move(network));

  if (fopts.fault_tolerance.enabled) {
    if (fopts.fault_tolerance.max_send_attempts == 0) {
      return Status::InvalidArgument(
          "federation: max_send_attempts must be >= 1");
    }
    if (fopts.fault_tolerance.min_quorum_frac < 0.0 ||
        fopts.fault_tolerance.min_quorum_frac > 1.0) {
      return Status::InvalidArgument(
          "federation: min_quorum_frac must be in [0, 1]");
    }
    QENS_ASSIGN_OR_RETURN(
        sim::FaultPlan plan,
        sim::FaultPlan::Create(num_nodes, fopts.fault_tolerance.faults));
    session.fault_injector_.emplace(std::move(plan));
  }
  if (fopts.byzantine.enabled) {
    const ByzantineOptions& byz = fopts.byzantine;
    if (!IsParameterSpace(byz.aggregator)) {
      return Status::InvalidArgument(
          StrFormat("federation: byzantine aggregator must be "
                    "parameter-space, got %s",
                    AggregationKindName(byz.aggregator)));
    }
    if (!(byz.trim_beta >= 0.0) || byz.trim_beta >= 0.5) {
      return Status::InvalidArgument(
          "federation: byzantine trim_beta must be in [0, 0.5)");
    }
    if (byz.aggregator == AggregationKind::kNormClippedFedAvg &&
        !(byz.clip_norm > 0.0 && std::isfinite(byz.clip_norm))) {
      return Status::InvalidArgument(
          "federation: byzantine clip_norm must be finite and > 0");
    }
    QENS_ASSIGN_OR_RETURN(UpdateValidator validator,
                          UpdateValidator::Create(byz.validator));
    session.validator_.emplace(std::move(validator));
    session.quarantine_until_.assign(num_nodes, 0);
  }
  if (fopts.dynamic.enabled) {
    QENS_ASSIGN_OR_RETURN(DynamicFleet dynamic,
                          DynamicFleet::Create(session.fleet_));
    session.dynamic_.emplace(std::move(dynamic));
  }
  return session;
}

Result<std::vector<size_t>> QuerySession::ChooseNodes(
    const query::RangeQuery& query, selection::PolicyKind policy,
    QueryOutcome* outcome) {
  const sim::EdgeEnvironment& environment = fleet_->environment;
  const FederationOptions& options = fleet_->options;
  const size_t n = environment.num_nodes();
  switch (policy) {
    case selection::PolicyKind::kQueryDriven: {
      QENS_ASSIGN_OR_RETURN(SelectionDecision decision,
                            leader_.Decide(query));
      outcome->selected_rankings = decision.SelectedRankings();
      return decision.SelectedNodeIds();
    }
    case selection::PolicyKind::kRandom: {
      // A fresh stream per query, keyed by query id: independent across
      // the workload, reproducible for the session seed, and invariant to
      // query arrival order.
      Rng rng = SplitRng(seed_)
                    .Split(RngPurpose::kRandomSelection)
                    .Split(query.id)
                    .ToRng();
      const size_t l = std::min(options.random_l, n);
      return selection::SelectRandom(n, std::max<size_t>(1, l), &rng);
    }
    case selection::PolicyKind::kAllNodes:
      return selection::SelectAllNodes(n);
    case selection::PolicyKind::kDataCentric: {
      // Query-agnostic device scoring [8]: data volume/diversity, compute,
      // and link quality — note the query never enters the decision.
      std::vector<selection::NodeProfile> profiles;
      std::vector<double> capacities, latencies;
      for (size_t i = 0; i < n; ++i) {
        QENS_ASSIGN_OR_RETURN(const selection::NodeProfile* p,
                              environment.node(i).profile());
        profiles.push_back(*p);
        capacities.push_back(environment.node(i).capacity());
        latencies.push_back(
            environment.cost_model().options().link_latency_s);
      }
      return selection::SelectDataCentric(profiles, capacities, latencies,
                                          options.data_centric);
    }
    case selection::PolicyKind::kStochastic: {
      // Fair stochastic selection [12]: ranking-weighted draw with a
      // fairness boost; stateful across the session's query stream.
      // The selector's fairness state is inherently sequential over the
      // query stream; only its seed comes from the registry.
      StochasticParticipation();  // Builds the selector on first use.
      QENS_ASSIGN_OR_RETURN(std::vector<selection::NodeRank> ranks,
                            leader_.Rank(query));
      return stochastic_->Select(ranks);
    }
    case selection::PolicyKind::kGameTheory: {
      // GT probes with the leader's local (train) data against every node's
      // local data — a full pre-round per query (its defining cost).
      std::vector<data::Dataset> node_sets;
      node_sets.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        node_sets.push_back(environment.node(i).local_data());
      }
      selection::GameTheoryOptions gt = options.game_theory;
      gt.model = options.hyper.kind;
      gt.seed = seed_ + query.id;
      QENS_ASSIGN_OR_RETURN(
          selection::GameTheorySelection sel,
          selection::RunGameTheorySelection(
              environment.node(environment.leader_index()).local_data(),
              node_sets, gt));
      outcome->gt_preround_seconds = sel.pre_round_seconds;
      // The pre-round is leader-side training over its own data; charge it
      // through the cost model as well.
      outcome->sim_time_total += environment.cost_model().TrainingSeconds(
          environment.node(environment.leader_index()).NumSamples(),
          options.hyper.epochs,
          environment.node(environment.leader_index()).capacity());
      return sel.selected;
    }
  }
  return Status::Internal("ChooseNodes: unhandled policy");
}

const std::vector<size_t>& QuerySession::StochasticParticipation() {
  if (!stochastic_.has_value()) {
    selection::StochasticOptions so = fleet_->options.stochastic;
    so.seed = SplitRng(seed_).Split(RngPurpose::kStochasticSelection).key();
    stochastic_.emplace(fleet_->environment.num_nodes(), so);
  }
  return stochastic_->participation_counts();
}

Result<QueryOutcome> QuerySession::RunQuery(const query::RangeQuery& query,
                                            selection::PolicyKind policy,
                                            bool data_selectivity) {
  return RunQueryMultiRound(query, policy, data_selectivity, /*rounds=*/1);
}

Result<QueryOutcome> QuerySession::RunQueryMultiRound(
    const query::RangeQuery& query, selection::PolicyKind policy,
    bool data_selectivity, size_t rounds) {
  if (rounds == 0) {
    return Status::InvalidArgument("RunQueryMultiRound: rounds must be > 0");
  }
  obs::TraceSpan query_span("federation.query");
  obs::Count("federation.queries");
  Stopwatch watch;
  const sim::EdgeEnvironment& environment = fleet_->environment;
  const FederationOptions& options = fleet_->options;
  QueryOutcome outcome;
  outcome.query = query;
  outcome.policy = policy;
  outcome.data_selectivity = data_selectivity;
  outcome.rounds = rounds;
  outcome.samples_all_nodes = environment.TotalSamples();

  // All internal work (ranking, matching, training) happens in the
  // fleet's internal (normalized) space.
  QENS_ASSIGN_OR_RETURN(query::RangeQuery internal,
                        fleet_->InternalQuery(query));

  // Ground truth: pooled held-out rows inside the query region. Under the
  // dynamic layer the held-out rows drift with their devices, so the query
  // is answered against the fleet's current reality.
  Result<data::Dataset> test = dynamic_.has_value()
                                   ? dynamic_->QueryRegionTestData(query)
                                   : fleet_->QueryRegionTestData(query);
  if (!test.ok()) {
    obs::Count("federation.queries.skipped");
    outcome.skipped = true;
    outcome.wall_seconds = watch.ElapsedSeconds();
    return outcome;
  }
  outcome.test_rows = test->NumSamples();

  QENS_ASSIGN_OR_RETURN(std::vector<size_t> chosen,
                        ChooseNodes(internal, policy, &outcome));

  // Volatile clients: selected nodes may be offline for this query.
  if (options.dropout_rate > 0.0) {
    if (options.dropout_rate > 1.0) {
      return Status::InvalidArgument("dropout_rate must be in [0, 1]");
    }
    Rng drop_rng = SplitRng(seed_)
                       .Split(RngPurpose::kVolatileDropout)
                       .Split(query.id)
                       .ToRng();
    std::vector<size_t> alive;
    for (size_t id : chosen) {
      if (drop_rng.Bernoulli(options.dropout_rate)) {
        outcome.dropped_nodes.push_back(id);
      } else {
        alive.push_back(id);
      }
    }
    chosen = std::move(alive);
  }
  if (chosen.empty()) {
    obs::Count("federation.queries.skipped");
    outcome.skipped = true;
    outcome.wall_seconds = watch.ElapsedSeconds();
    return outcome;
  }

  // Rankings for selectivity: the query-driven policy computed them in
  // ChooseNodes; for baselines with selectivity requested we still need
  // per-node supporting clusters, so rank on demand.
  std::vector<selection::NodeRank> all_ranks;
  if (data_selectivity) {
    QENS_ASSIGN_OR_RETURN(all_ranks, leader_.Rank(internal));
  }
  auto rank_of_node = [&](size_t node_id) -> const selection::NodeRank* {
    for (const auto& r : all_ranks) {
      if (r.node_id == node_id) return &r;
    }
    return nullptr;
  };

  // Broadcast the initial global model w.
  Rng init_rng(ModelInitSeed(seed_, query.id));
  QENS_ASSIGN_OR_RETURN(
      ml::SequentialModel global,
      ml::BuildModel(options.hyper,
                     environment.node(0).local_data().NumFeatures(),
                     &init_rng));
  // Down-link price per broadcast: closed-form from the architecture (the
  // codec's size, or the raw binary64 size with the wire layer off), so one
  // number is exact for every round.
  const ml::WireOptions& wire = options.wire;
  const size_t model_bytes =
      wire.enabled ? ml::EncodedModelBytes(global, ml::DownlinkKind(wire),
                                           wire.top_k_fraction)
                   : ml::SerializedModelBytes(global);

  // Per-node trainer streams hang off SplitRng(seed + query id) -> node
  // (see participant.cpp); minibatch shuffles are pure functions of
  // (trainer seed, epoch).
  LocalTrainOptions local_options;
  local_options.hyper = options.hyper;
  local_options.epochs_per_cluster = options.epochs_per_cluster;
  local_options.seed = seed_ + query.id;

  // Assemble the per-node training jobs once (node id, Eq. 7 weight, and
  // the supporting-cluster set under data selectivity).
  std::vector<TrainJob> jobs;
  for (size_t node_id : chosen) {
    TrainJob job{node_id, 1.0, data_selectivity, {}};
    if (data_selectivity) {
      const selection::NodeRank* rank = rank_of_node(node_id);
      if (rank == nullptr || rank->supporting_clusters == 0) {
        // Nothing in this node matches the query; it contributes no model.
        continue;
      }
      job.rank_weight = rank->ranking;
      job.supporting = rank->SupportingClusterIds();
    }
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {
    // No selected node can contribute a model (e.g. nothing supports the
    // query under selectivity): the query is unanswerable, faults or not.
    obs::Count("federation.queries.skipped");
    outcome.skipped = true;
    outcome.wall_seconds = watch.ElapsedSeconds();
    return outcome;
  }

  // Drive the rounds through the shared engine.
  RoundEngineContext ctx;
  ctx.environment = &environment;
  ctx.network = &network_;
  ctx.leader = &leader_;
  ctx.options = &options;
  ctx.injector = fault_injector_.has_value() ? &*fault_injector_ : nullptr;
  ctx.fault_round = &fault_round_;
  ctx.validator = validator_.has_value() ? &*validator_ : nullptr;
  ctx.quarantine_until = &quarantine_until_;
  ctx.byz_round = &byz_round_;
  ctx.pool = &pool_;
  ctx.session_id = session_id_;
  ctx.dynamic = dynamic_.has_value() ? &*dynamic_ : nullptr;
  RoundEngine engine(ctx);
  QENS_ASSIGN_OR_RETURN(
      RoundEngine::RoundSetResult rr,
      engine.Run(jobs, std::move(global), rounds, query.id, policy,
                 local_options, model_bytes, &test.value(), &outcome));

  std::vector<ml::SequentialModel> local_models = std::move(rr.local_models);
  std::vector<double> eq7_weights = std::move(rr.eq7_weights);
  const ml::SequentialModel& last_global = rr.global;
  const ByzantineOptions& byz = options.byzantine;
  const bool byz_on = byz.enabled;

  outcome.selected_nodes = chosen;

  // Eq. 7 weights: rankings when ranked selection produced them; otherwise
  // (Random/All/GT) weighted averaging degenerates to Eq. 6. A degenerate
  // all-zero ranking vector also falls back to equal weights.
  double weight_sum = 0.0;
  for (double w : eq7_weights) weight_sum += w;
  if (weight_sum <= 0.0) {
    std::fill(eq7_weights.begin(), eq7_weights.end(), 1.0);
  }

  QENS_ASSIGN_OR_RETURN(
      EnsembleModel ensemble,
      EnsembleModel::Create(std::move(local_models), eq7_weights));

  const Matrix& x_test = test->features();
  const Matrix& y_test = test->targets();
  // Eq. 6 and Eq. 7 share one prediction per member.
  QENS_ASSIGN_OR_RETURN(AveragedPredictions averaged,
                        ensemble.PredictAveraged(x_test));
  QENS_ASSIGN_OR_RETURN(
      outcome.loss_model_avg,
      ml::ComputeLoss(ml::LossKind::kMse, averaged.model_averaging, y_test));
  QENS_ASSIGN_OR_RETURN(
      outcome.loss_weighted,
      ml::ComputeLoss(ml::LossKind::kMse, averaged.weighted_averaging,
                      y_test));
  QENS_ASSIGN_OR_RETURN(
      Matrix pred_fedavg,
      ensemble.Predict(x_test, AggregationKind::kFedAvgParameters));
  QENS_ASSIGN_OR_RETURN(
      outcome.loss_fedavg,
      ml::ComputeLoss(ml::LossKind::kMse, pred_fedavg, y_test));

  if (byz_on) {
    // Robust final answer under the configured aggregator, against the
    // last committed global model as the clipping reference.
    RobustAggregationOptions robust;
    robust.trim_beta = byz.trim_beta;
    robust.clip_norm = byz.clip_norm;
    robust.reference = &last_global;
    QENS_ASSIGN_OR_RETURN(Matrix pred_robust,
                          ensemble.Predict(x_test, byz.aggregator, robust));
    QENS_ASSIGN_OR_RETURN(
        outcome.loss_robust,
        ml::ComputeLoss(ml::LossKind::kMse, pred_robust, y_test));
    outcome.has_loss_robust = true;
  }

  // Report losses in raw target units, comparable to the paper's numbers.
  outcome.loss_model_avg = fleet_->DenormalizeMse(outcome.loss_model_avg);
  outcome.loss_weighted = fleet_->DenormalizeMse(outcome.loss_weighted);
  outcome.loss_fedavg = fleet_->DenormalizeMse(outcome.loss_fedavg);
  if (outcome.has_loss_robust) {
    outcome.loss_robust = fleet_->DenormalizeMse(outcome.loss_robust);
  }

  if (!outcome.round_records.empty()) {
    // The final record carries the evaluated answer quality (Eq. 7 loss).
    outcome.round_records.back().has_loss = true;
    outcome.round_records.back().loss = outcome.loss_weighted;
  }

  outcome.wall_seconds = watch.ElapsedSeconds();
  return outcome;
}

}  // namespace qens::fl
