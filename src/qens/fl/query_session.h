#ifndef QENS_FL_QUERY_SESSION_H_
#define QENS_FL_QUERY_SESSION_H_

/// \file query_session.h
/// The query driver of the serving engine: a shared, immutable `Fleet` and
/// any number of `QuerySession` streams over it.
///
/// A `Fleet` is the immutable part of a deployment: the environment (nodes,
/// train shards, cost model), the held-out test shards, the configuration,
/// and the normalization constants. It is built once and then shared
/// read-only by any number of sessions.
///
/// A `QuerySession` is one independent query stream over that fleet. It
/// owns every piece of mutable state the protocol touches — the leader's
/// reliability bookkeeping, the RNG streams (random policy, dropout,
/// stochastic selection), the fault injector, the Byzantine quarantine
/// ledger, the training pool, and the sim::Network its traffic is
/// accounted in — so two sessions never share mutable state and can run
/// concurrently while each stays bit-identical to running alone.
///
/// One RunQuery call executes the paper's end-to-end per-query protocol
/// (Section IV-B), layered as (see docs/ARCHITECTURE.md):
///
///   1. the session maps the query into internal units, pools the
///      ground-truth test rows, and picks N'(q) — the leader's ranked cut
///      (query-driven) or a baseline policy (random / all / game-theory /
///      data-centric / stochastic);
///   2. the session builds one TrainJob per contributing node (supporting
///      clusters only under data selectivity) and initializes the global
///      model w;
///   3. the RoundEngine drives the round(s): broadcast w over the
///      session's network, train locally on every node (optionally in
///      parallel), collect the returning models, screen/quarantine them
///      when the Byzantine layer is on, gate them on deadlines/quorum when
///      the fault layer is on, and FedAvg-merge between rounds;
///   4. the session aggregates the surviving local models (Eq. 6/7 or
///      FedAvg) and answers the query;
///   5. the outcome is evaluated on held-out test rows that fall inside the
///      query region, pooled across ALL nodes (ground truth independent of
///      the selection decision).
///
/// Every message is accounted through the session's network, and training
/// time through the cost model, so Fig. 7/8/9-style records fall out of
/// each RunQuery call.
///
/// Seed contract: every per-query stream is a pure function of the session
/// seed and the query's coordinates (docs/PERFORMANCE.md, "Stream key-path
/// registry"): model init `fl::ModelInitSeed(seed, query.id)`, local
/// training rooted at `seed + query.id`, and the Random, dropout and
/// stochastic draws on registered SplitRng purpose paths keyed by query id
/// (GT probes with `seed + query.id`). Two sessions with the same seed over
/// the same fleet therefore produce the same outcomes byte for byte, and no
/// stream depends on query arrival order except the stochastic policy's
/// fairness state.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "qens/common/status.h"
#include "qens/common/thread_pool.h"
#include "qens/data/dataset.h"
#include "qens/data/normalizer.h"
#include "qens/fl/dynamic_fleet.h"
#include "qens/fl/leader.h"
#include "qens/fl/protocol.h"
#include "qens/sim/network.h"

namespace qens::fl {

/// The immutable, shareable part of a deployment. Built once by
/// Fleet::Create; nothing writes to it afterwards. Sessions hold it through
/// shared_ptr<const Fleet>; the environment-owned network holds only the
/// profile shipping of EdgeEnvironment::Create, and each session accounts
/// its own traffic in its own network.
struct Fleet {
  sim::EdgeEnvironment environment;
  std::vector<data::Dataset> test_shards;  ///< By node id, internal units.
  FederationOptions options;
  query::HyperRectangle raw_space;  ///< Raw-unit global data space.
  std::optional<data::Normalizer> feature_norm;
  std::optional<data::Normalizer> target_norm;
  /// Always null: the next benchmark PR removes it and Leader's 4th param.
  static constexpr std::nullptr_t ranking_index = nullptr;
  /// The published per-node profiles (cluster digests + sample counts),
  /// extracted from the environment ONCE at fleet build and shared
  /// read-only by every session's leader (copy-on-write: a leader only
  /// deep-copies when it first mutates reliability/staleness state). This
  /// is the immutable cluster metadata the serving engine used to rebuild
  /// per session — a 10k-query workload paid O(sessions x nodes) setup for
  /// state that never changes. Counter "fleet.profile_builds" pins the
  /// build to once per fleet.
  std::shared_ptr<const std::vector<selection::NodeProfile>> profiles;
  /// Base fleet-state version. Each session's leader starts its epoch
  /// here; online cluster refresh advances the leader's copy (the shared
  /// Fleet itself never changes — see fl/dynamic_fleet.h).
  uint64_t fleet_epoch = 0;

  /// Split every node's dataset into train/test, normalize when configured,
  /// and build the environment on the train shards. Fails on empty input or
  /// a test_fraction outside (0, 1).
  static Result<std::shared_ptr<Fleet>> Create(
      std::vector<data::Dataset> node_data, const FederationOptions& options);

  /// Map a raw-unit query into the fleet's internal (possibly normalized)
  /// feature space. Identity when normalization is off.
  Result<query::RangeQuery> InternalQuery(const query::RangeQuery& query) const;

  /// Convert an internal-space MSE back to raw target units (identity when
  /// normalization is off or the target range is degenerate).
  double DenormalizeMse(double mse) const;

  /// Pooled test rows (across all nodes) inside the query region. The query
  /// is in raw units; the returned dataset is in internal units.
  Result<data::Dataset> QueryRegionTestData(
      const query::RangeQuery& query) const;

  /// Rows of `shards` inside the internal-space query `internal`: every
  /// shard's matching row ids, then one data::GatherRows in shard-then-row
  /// order. NotFound when no row matches.
  static Result<data::Dataset> PoolRegionRows(
      const query::RangeQuery& internal,
      std::span<const data::Dataset* const> shards);
};

/// Session construction knobs.
struct QuerySessionOptions {
  /// Tags this session's RoundRecords; 0 (the default) is left out of
  /// their JSON.
  uint64_t session_id = 0;
  /// Seed all the session's RNG streams derive from. Unset = the fleet's
  /// FederationOptions::seed.
  std::optional<uint64_t> seed;
  /// Accounting options for the session's network.
  sim::NetworkOptions network;
};

/// One independent query stream over a shared fleet.
class QuerySession {
 public:
  /// Build a session over `fleet`, with its own network (priced by the
  /// fleet's cost model, counters zeroed). Validates the fault-tolerance
  /// and Byzantine options.
  static Result<QuerySession> Create(std::shared_ptr<const Fleet> fleet,
                                     const QuerySessionOptions& options);

  /// Execute one query under `policy`. `data_selectivity` controls whether
  /// selected nodes train only on supporting clusters (the paper's
  /// mechanism: kQueryDriven with selectivity) or on their whole local
  /// data. Random/All/GT policies ignore rankings and always train on full
  /// node data unless selectivity is explicitly requested AND the node has
  /// supporting clusters.
  Result<QueryOutcome> RunQuery(const query::RangeQuery& query,
                                selection::PolicyKind policy,
                                bool data_selectivity);

  /// Multi-round extension: repeat the leader -> participants -> leader
  /// exchange `rounds` times over ONE node selection, FedAvg-merging the
  /// local models (weighted by samples trained) between rounds — the
  /// standard federated loop, with the paper's single-round protocol as
  /// rounds == 1. The final round is aggregated and evaluated exactly like
  /// RunQuery.
  Result<QueryOutcome> RunQueryMultiRound(const query::RangeQuery& query,
                                          selection::PolicyKind policy,
                                          bool data_selectivity,
                                          size_t rounds);

  /// Per-node participation counts accumulated by the stochastic policy.
  const std::vector<size_t>& StochasticParticipation();

  uint64_t session_id() const { return session_id_; }
  uint64_t seed() const { return seed_; }
  const Fleet& fleet() const { return *fleet_; }
  const Leader& leader() const { return leader_; }

  /// The network this session's traffic is accounted in.
  const sim::Network& network() const { return network_; }

  /// The active fault injector, or nullptr when fault tolerance is off.
  const sim::FaultInjector* fault_injector() const {
    return fault_injector_.has_value() ? &*fault_injector_ : nullptr;
  }

  /// The session's dynamic-fleet state (churn/drift/refresh), or nullptr
  /// when FederationOptions::dynamic is off.
  const DynamicFleet* dynamic_fleet() const {
    return dynamic_.has_value() ? &*dynamic_ : nullptr;
  }

  /// Global round counter the fault schedule is evaluated against (advances
  /// once per executed round when fault tolerance is on, so crashes persist
  /// across the session's queries).
  size_t fault_round() const { return fault_round_; }

 private:
  QuerySession(std::shared_ptr<const Fleet> fleet, uint64_t session_id,
               uint64_t seed, Leader leader, sim::Network network)
      : fleet_(std::move(fleet)),
        session_id_(session_id),
        seed_(seed),
        leader_(std::move(leader)),
        network_(std::move(network)) {}

  /// Per-policy node choice; fills rankings for ranked policies. The query
  /// must already be in internal units.
  Result<std::vector<size_t>> ChooseNodes(const query::RangeQuery& query,
                                          selection::PolicyKind policy,
                                          QueryOutcome* outcome);

  std::shared_ptr<const Fleet> fleet_;
  uint64_t session_id_ = 0;
  uint64_t seed_ = 0;
  Leader leader_;  ///< Session-local ranking + reliability state.
  sim::Network network_;  ///< This session's traffic only.
  std::optional<selection::StochasticSelector> stochastic_;  ///< Lazy.
  std::optional<sim::FaultInjector> fault_injector_;  ///< When enabled.
  size_t fault_round_ = 0;  ///< Rounds executed under fault injection.
  std::optional<DynamicFleet> dynamic_;  ///< When dynamic.enabled.
  std::optional<UpdateValidator> validator_;  ///< When byzantine.enabled.
  /// Shared worker pool for parallel local training; created lazily on the
  /// first parallel round, then reused across rounds and queries.
  std::unique_ptr<common::ThreadPool> pool_;
  /// Per node: first byzantine round index the node may rejoin (quarantine
  /// expiry). Sized num_nodes when byzantine.enabled, else empty.
  std::vector<size_t> quarantine_until_;
  size_t byz_round_ = 0;  ///< Rounds executed under the byzantine layer.
};

}  // namespace qens::fl

#endif  // QENS_FL_QUERY_SESSION_H_
