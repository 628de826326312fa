#include "qens/fl/round_engine.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "qens/fl/aggregation.h"
#include "qens/fl/dynamic_fleet.h"
#include "qens/ml/model_codec.h"
#include "qens/ml/model_io.h"
#include "qens/obs/metrics.h"
#include "qens/obs/trace.h"

namespace qens::fl {
namespace {

/// Apply a model-space corruption to a returned model, in place. Label
/// poisoning is handled participant-side; kNone and kLabelFlipPoisoning
/// leave the model untouched.
void ApplyModelCorruption(ml::SequentialModel* model,
                          sim::CorruptionKind kind, double gamma,
                          const ml::SequentialModel& reference) {
  if (kind == sim::CorruptionKind::kNone ||
      kind == sim::CorruptionKind::kLabelFlipPoisoning) {
    return;
  }
  std::vector<double> params = model->GetParameters();
  switch (kind) {
    case sim::CorruptionKind::kNanUpdate:
      for (double& p : params) p = std::numeric_limits<double>::quiet_NaN();
      break;
    case sim::CorruptionKind::kInfUpdate:
      for (double& p : params) p = std::numeric_limits<double>::infinity();
      break;
    case sim::CorruptionKind::kSignFlip:
      for (double& p : params) p = -p;
      break;
    case sim::CorruptionKind::kScaledUpdate: {
      const std::vector<double> ref = reference.GetParameters();
      for (size_t i = 0; i < params.size(); ++i) {
        params[i] = ref[i] + gamma * (params[i] - ref[i]);
      }
      break;
    }
    case sim::CorruptionKind::kNone:
    case sim::CorruptionKind::kLabelFlipPoisoning:
      break;
  }
  (void)model->SetParameters(params);  // Same size: cannot fail.
}

}  // namespace

Result<RoundEngine::RoundSetResult> RoundEngine::Run(
    const std::vector<TrainJob>& jobs, ml::SequentialModel global,
    size_t rounds, size_t query_id, selection::PolicyKind policy,
    const LocalTrainOptions& local_options, size_t model_bytes,
    const data::Dataset* holdout, QueryOutcome* outcome) {
  const bool obs_on = obs::MetricsRegistry::Enabled();
  const sim::EdgeEnvironment& environment = *ctx_.environment;
  const FederationOptions& options = *ctx_.options;

  // Fault layer (opt-in). With no injector the loop below reproduces the
  // fault-free protocol exactly: every job trains, every send succeeds.
  const FaultToleranceOptions& ft = options.fault_tolerance;
  sim::FaultInjector* injector = ctx_.injector;
  const size_t leader_id = environment.leader_index();

  // Byzantine layer (opt-in): validator + quarantine + robust aggregation.
  const ByzantineOptions& byz = options.byzantine;
  const bool byz_on = byz.enabled;

  // Dynamic-fleet layer (opt-in): churn presence, drifted node data, and
  // online refresh. Like the fault layer, a departed node fails its round
  // and the quorum gate decides whether the partial update commits.
  const bool dyn_on = ctx_.dynamic != nullptr;

  // Wire layer (opt-in): with it off, no codec is ever invoked and every
  // transfer is priced at the raw binary64 size. Either way both link
  // directions are closed-form sizes — O(layers), architecture-determined,
  // identical for every trained model — so a query's link bytes follow
  // exactly from the architecture and the number of engaged nodes.
  const ml::WireOptions& wire = options.wire;
  const bool wire_on = wire.enabled;
  const ml::WireCodecKind down_kind = ml::DownlinkKind(wire);
  const ml::WireCodecKind up_kind = ml::UplinkKind(wire);
  const size_t up_bytes =
      wire_on ? ml::EncodedModelBytes(global, up_kind, wire.top_k_fraction)
              : ml::SerializedModelBytes(global);

  // Per-job fate this round, precomputed from the injector's pure schedule
  // so training can still fan out in parallel.
  struct JobFate {
    bool quarantined = false;   ///< Sat out: still serving a quarantine.
    bool unavailable = false;   ///< Crashed or transiently offline.
    size_t down_attempts = 1;   ///< model-down transmissions performed.
    bool down_delivered = true;
    double slowdown = 1.0;
    sim::CorruptionKind corruption = sim::CorruptionKind::kNone;
  };

  auto record_once = [](std::vector<size_t>* list, size_t node_id) {
    if (std::find(list->begin(), list->end(), node_id) == list->end()) {
      list->push_back(node_id);
    }
  };

  std::vector<ml::SequentialModel> local_models;
  std::vector<double> eq7_weights;
  std::vector<double> fedavg_weights;  // Samples trained, per local model.
  std::vector<size_t> survivor_jobs;   // Job index behind each local model.
  std::vector<bool> final_alive(jobs.size(), false);
  for (size_t round = 0; round < rounds; ++round) {
    obs::TraceSpan round_span("federation.round");
    obs::Count("federation.rounds");

    // Advance the dynamic fleet before any node work: churn transitions,
    // drift events, and (when enabled) profile refreshes all land here, on
    // the driving thread, so the trajectory is worker-count independent.
    DynamicFleet::RoundStats dyn_stats;
    if (dyn_on) {
      QENS_ASSIGN_OR_RETURN(dyn_stats, ctx_.dynamic->BeginRound(ctx_.leader));
      outcome->nodes_joined += dyn_stats.nodes_joined;
      outcome->nodes_left += dyn_stats.nodes_left;
      outcome->fleet_refreshes += dyn_stats.refreshes;
      outcome->fleet_epoch = dyn_stats.fleet_epoch;
    }
    local_models.clear();
    eq7_weights.clear();
    fedavg_weights.clear();
    survivor_jobs.clear();
    std::fill(final_alive.begin(), final_alive.end(), false);
    double round_parallel = 0.0;
    double round_train = 0.0;
    double round_comm = 0.0;
    size_t round_wire_down = 0;  ///< Bytes offered down-link (wire layer).
    size_t round_wire_up = 0;    ///< Bytes offered up-link (wire layer).

    // Under a lossy down-link codec the participants train on exactly what
    // the wire delivers: decode(encode(global)). Raw keeps `global` itself
    // (bit-exact round-trip), so the fault-free raw run matches the
    // wire-off run in everything but byte accounting.
    const ml::SequentialModel* broadcast = &global;
    ml::SequentialModel broadcast_storage;
    if (wire_on && ml::WireCodecIsLossy(down_kind)) {
      QENS_ASSIGN_OR_RETURN(
          const std::string encoded,
          ml::EncodeModel(global, down_kind, wire.top_k_fraction));
      QENS_ASSIGN_OR_RETURN(broadcast_storage, ml::DecodeModel(encoded));
      broadcast = &broadcast_storage;
    }

    obs::RoundRecord record;
    if (obs_on) {
      record.session = ctx_.session_id;
      record.query_id = query_id;
      record.round = round;
      record.policy = selection::PolicyKindName(policy);
      record.aggregation = round + 1 < rounds ? "fedavg" : "ensemble";
      record.engaged = jobs.size();
      record.nodes.reserve(jobs.size());
    }
    auto record_node = [&](size_t node_id, obs::NodeFate node_fate,
                           double train_s, double comm_s, size_t samples,
                           bool straggler) {
      if (!obs_on) return;
      obs::NodeRoundStat stat;
      stat.node_id = node_id;
      stat.fate = node_fate;
      stat.train_seconds = train_s;
      stat.comm_seconds = comm_s;
      stat.samples_used = samples;
      stat.straggler = straggler;
      record.nodes.push_back(stat);
    };

    // Evaluate this round's fate for every job before any training runs.
    const size_t fault_round = injector ? (*ctx_.fault_round)++ : 0;
    const size_t byz_round = byz_on ? (*ctx_.byz_round)++ : 0;
    std::vector<JobFate> fates(jobs.size());
    if (byz_on && byz.quarantine_rounds > 0) {
      for (size_t j = 0; j < jobs.size(); ++j) {
        if ((*ctx_.quarantine_until)[jobs[j].node_id] > byz_round) {
          fates[j].quarantined = true;
        }
      }
    }
    if (dyn_on) {
      // Churn: a selected node that is absent this round simply fails it
      // (no transfer is attempted — the device is gone, not slow).
      for (size_t j = 0; j < jobs.size(); ++j) {
        if (fates[j].quarantined) continue;
        if (!ctx_.dynamic->IsPresent(jobs[j].node_id)) {
          fates[j].unavailable = true;
        }
      }
    }
    if (injector) {
      for (size_t j = 0; j < jobs.size(); ++j) {
        JobFate& fate = fates[j];
        if (fate.quarantined || fate.unavailable) continue;
        if (!injector->IsAvailable(jobs[j].node_id, fault_round)) {
          fate.unavailable = true;
          continue;
        }
        fate.slowdown = injector->SlowdownFactor(jobs[j].node_id, fault_round);
        fate.corruption = injector->CorruptionFor(jobs[j].node_id, fault_round);
        fate.down_delivered = false;
        fate.down_attempts = 0;
        for (size_t attempt = 0; attempt < ft.max_send_attempts; ++attempt) {
          ++fate.down_attempts;
          if (!injector->LoseMessage(leader_id, jobs[j].node_id, fault_round,
                                     attempt)) {
            fate.down_delivered = true;
            break;
          }
        }
      }
    }
    auto job_trains = [&](size_t j) {
      return !fates[j].quarantined && !fates[j].unavailable &&
             fates[j].down_delivered;
    };

    // Run every training job (concurrently when configured), then account
    // the results in job order so outcomes stay deterministic.
    auto run_job = [&](const TrainJob& job, sim::CorruptionKind corruption)
        -> Result<LocalTrainResult> {
      // Under the dynamic layer training reads the session's drifted copy
      // of the node (identical to the fleet's until its first drift event).
      const sim::EdgeNode& node = ctx_.dynamic != nullptr
                                      ? ctx_.dynamic->node(job.node_id)
                                      : environment.node(job.node_id);
      LocalTrainOptions job_options = local_options;
      if (corruption == sim::CorruptionKind::kLabelFlipPoisoning) {
        job_options.poison_labels = true;
      }
      if (job.selective) {
        return TrainOnSupportingClusters(node, *broadcast, job.supporting,
                                         job_options,
                                         environment.cost_model());
      }
      return TrainOnFullData(node, *broadcast, job_options,
                             environment.cost_model());
    };
    std::vector<std::optional<Result<LocalTrainResult>>> results(jobs.size());
    const bool parallel = options.max_parallel_nodes > 1 && jobs.size() > 1;
    if (parallel && *ctx_.pool == nullptr) {
      // The calling thread claims jobs too, so at most W jobs at once takes
      // a pool of W - 1 workers.
      *ctx_.pool =
          std::make_unique<common::ThreadPool>(options.max_parallel_nodes - 1);
    }
    if (parallel) {
      // Jobs are claimed off the shared pool (created once, reused across
      // rounds and queries) by ParallelUnits. Every job's randomness comes
      // from its own coordinates (SplitRng keys of its node) and its result
      // lands in its own slot; the accounting below reads the slots in
      // ascending job order, so the outcome is independent of the worker
      // count and of which thread ran which job.
      (*ctx_.pool)->ParallelUnits(jobs.size(), [&](size_t j) {
        if (!job_trains(j)) return;
        results[j] = run_job(jobs[j], fates[j].corruption);
      });
    } else {
      for (size_t j = 0; j < jobs.size(); ++j) {
        if (job_trains(j)) results[j] = run_job(jobs[j], fates[j].corruption);
      }
    }

    for (size_t j = 0; j < jobs.size(); ++j) {
      const TrainJob& job = jobs[j];
      const size_t node_id = job.node_id;
      const sim::EdgeNode& node =
          dyn_on ? ctx_.dynamic->node(node_id) : environment.node(node_id);
      if (round == 0) outcome->samples_selected += node.NumSamples();
      const double rank_weight = job.rank_weight;
      const JobFate& fate = fates[j];

      if (fate.quarantined) {
        // Serving a quarantine: skipped without a reliability penalty (the
        // node was never asked to train this round).
        record_once(&outcome->quarantined_nodes, node_id);
        ++outcome->quarantined_skips;
        obs::Count("federation.nodes.quarantined");
        record_node(node_id, obs::NodeFate::kQuarantined, 0.0, 0.0, 0, false);
        if (obs_on) ++record.quarantined;
        continue;
      }
      if (fate.unavailable) {
        // Crashed or offline: contributes nothing, costs nothing.
        record_once(&outcome->failed_nodes, node_id);
        ctx_.leader->RecordRoundResult(node_id, Leader::RoundResult::kFailed);
        obs::Count("federation.nodes.unavailable");
        record_node(node_id, obs::NodeFate::kUnavailable, 0.0, 0.0, 0, false);
        continue;
      }
      if (results[j].has_value()) {
        QENS_RETURN_NOT_OK(results[j]->status());
      }

      // Model-down transfer(s): lost transmissions are retried with
      // backoff; all time is accounted against the round.
      double down_seconds = 0.0;
      for (size_t attempt = 0; attempt < fate.down_attempts; ++attempt) {
        const bool lost =
            attempt + 1 < fate.down_attempts || !fate.down_delivered;
        if (wire_on && obs_on) round_wire_down += model_bytes;
        down_seconds += ctx_.network->Send(
            leader_id, node_id, model_bytes,
            lost ? "model-down-lost" : "model-down");
        if (lost) {
          down_seconds += ft.retry_backoff_s;
          ++outcome->messages_lost;
          obs::Count("federation.messages.lost");
        }
      }
      outcome->send_retries += fate.down_attempts - 1;
      outcome->sim_time_comm += down_seconds;
      round_comm += down_seconds;
      if (!fate.down_delivered) {
        // The global model never reached the node: no training happened,
        // but the leader still spent the failed transmissions + backoff on
        // this participant, so that wait is on the round's critical path
        // (capped at the deadline like any other wait).
        record_once(&outcome->failed_nodes, node_id);
        ctx_.leader->RecordRoundResult(node_id, Leader::RoundResult::kFailed);
        round_parallel = std::max(
            round_parallel, ft.round_deadline_s > 0.0
                                ? std::min(down_seconds, ft.round_deadline_s)
                                : down_seconds);
        obs::Count("federation.nodes.send_failed");
        record_node(node_id, obs::NodeFate::kSendFailed, 0.0, down_seconds, 0,
                    false);
        continue;
      }

      LocalTrainResult& result = results[j]->value();
      if (injector && fate.corruption != sim::CorruptionKind::kNone) {
        // Byzantine node: the model that goes on the wire is the corrupted
        // one (upload bytes and all downstream screening see it). The
        // corruption is applied node-side, so its reference is the model
        // the node actually received (the decoded broadcast).
        ApplyModelCorruption(&result.model, fate.corruption,
                             injector->plan().options().corruption_gamma,
                             *broadcast);
      }
      if (round == 0) outcome->samples_used += result.samples_used;
      const double train_seconds = result.sim_train_seconds * fate.slowdown;
      outcome->sim_time_total += train_seconds;
      round_train += train_seconds;
      double node_seconds = down_seconds + train_seconds;

      // Deadline gate 1: a straggler whose download + training already
      // exceeds the deadline is cut before it even uploads; the leader
      // stops waiting at the deadline.
      if (injector && ft.round_deadline_s > 0.0 &&
          node_seconds > ft.round_deadline_s) {
        record_once(&outcome->deadline_missed_nodes, node_id);
        ctx_.leader->RecordRoundResult(node_id,
                                       Leader::RoundResult::kMissedDeadline);
        round_parallel = std::max(round_parallel, ft.round_deadline_s);
        obs::Count("federation.nodes.missed_deadline");
        record_node(node_id, obs::NodeFate::kMissedDeadline, train_seconds,
                    down_seconds, result.samples_used, fate.slowdown > 1.0);
        continue;
      }

      // Model-up transfer(s), with the same retry/backoff policy.
      bool up_delivered = true;
      size_t up_attempts = 1;
      if (injector) {
        up_delivered = false;
        up_attempts = 0;
        for (size_t attempt = 0; attempt < ft.max_send_attempts; ++attempt) {
          ++up_attempts;
          if (!injector->LoseMessage(node_id, leader_id, fault_round,
                                     attempt)) {
            up_delivered = true;
            break;
          }
        }
      }
      double up_seconds = 0.0;
      for (size_t attempt = 0; attempt < up_attempts; ++attempt) {
        const bool lost = attempt + 1 < up_attempts || !up_delivered;
        if (wire_on && obs_on) round_wire_up += up_bytes;
        up_seconds += ctx_.network->Send(
            node_id, leader_id, up_bytes, lost ? "model-up-lost" : "model-up");
        if (lost) {
          up_seconds += ft.retry_backoff_s;
          ++outcome->messages_lost;
          obs::Count("federation.messages.lost");
        }
      }
      outcome->send_retries += up_attempts - 1;
      outcome->sim_time_comm += up_seconds;
      round_comm += up_seconds;
      node_seconds += up_seconds;

      if (!up_delivered) {
        record_once(&outcome->failed_nodes, node_id);
        ctx_.leader->RecordRoundResult(node_id, Leader::RoundResult::kFailed);
        round_parallel = std::max(
            round_parallel, ft.round_deadline_s > 0.0
                                ? std::min(node_seconds, ft.round_deadline_s)
                                : node_seconds);
        obs::Count("federation.nodes.send_failed");
        record_node(node_id, obs::NodeFate::kSendFailed, train_seconds,
                    down_seconds + up_seconds, result.samples_used,
                    fate.slowdown > 1.0);
        continue;
      }
      // Deadline gate 2: the upload itself can push a participant past
      // the deadline (e.g. retry backoff) — the model arrives too late.
      if (injector && ft.round_deadline_s > 0.0 &&
          node_seconds > ft.round_deadline_s) {
        record_once(&outcome->deadline_missed_nodes, node_id);
        ctx_.leader->RecordRoundResult(node_id,
                                       Leader::RoundResult::kMissedDeadline);
        round_parallel = std::max(round_parallel, ft.round_deadline_s);
        obs::Count("federation.nodes.missed_deadline");
        record_node(node_id, obs::NodeFate::kMissedDeadline, train_seconds,
                    down_seconds + up_seconds, result.samples_used,
                    fate.slowdown > 1.0);
        continue;
      }

      if (injector) {
        // Under the byzantine layer the completion credit waits until the
        // validator has ruled on this update (a rejection books the round
        // as kRejected instead).
        if (!byz_on) {
          ctx_.leader->RecordRoundResult(node_id,
                                         Leader::RoundResult::kCompleted);
        }
        // Under faults the round's critical path includes transfers,
        // retries, and the straggler slowdown.
        round_parallel = std::max(round_parallel, node_seconds);
      } else {
        round_parallel = std::max(round_parallel, train_seconds);
      }
      obs::Count("federation.nodes.completed");
      record_node(node_id, obs::NodeFate::kCompleted, train_seconds,
                  down_seconds + up_seconds, result.samples_used,
                  fate.slowdown > 1.0);
      if (wire_on && ml::WireCodecIsLossy(up_kind)) {
        // What the leader aggregates is what the wire delivered: the
        // broadcast plus the decoded (quantized / sparsified) delta. Note a
        // quantized delta cannot transmit NaN/Inf — non-finite coordinates
        // collapse to the broadcast value (top-k sends them verbatim).
        QENS_ASSIGN_OR_RETURN(
            const std::string encoded,
            ml::EncodeModelDelta(result.model, *broadcast, up_kind,
                                 wire.top_k_fraction));
        QENS_ASSIGN_OR_RETURN(result.model,
                              ml::DecodeModelDelta(encoded, *broadcast));
      }
      final_alive[j] = true;
      local_models.push_back(result.model);
      eq7_weights.push_back(rank_weight);
      fedavg_weights.push_back(
          std::max(1.0, static_cast<double>(result.samples_used)));
      survivor_jobs.push_back(j);
    }
    // Byzantine screening: every delivered update faces the validator
    // before it can influence any aggregate. Rejected updates are dropped
    // from the survivor set, booked against the node's reliability, and
    // (optionally) start a quarantine.
    if (byz_on && !local_models.empty()) {
      const Matrix* holdout_x = nullptr;
      const Matrix* holdout_y = nullptr;
      if (ctx_.validator->wants_holdout()) {
        holdout_x = &holdout->features();
        holdout_y = &holdout->targets();
      }
      QENS_ASSIGN_OR_RETURN(
          ValidationReport screening,
          ctx_.validator->Validate(local_models, global, holdout_x,
                                   holdout_y));
      if (screening.rejected() > 0) {
        outcome->rejected_non_finite += screening.rejected_non_finite;
        outcome->rejected_abs_norm += screening.rejected_abs_norm;
        outcome->rejected_norm_outlier += screening.rejected_norm_outlier;
        outcome->rejected_holdout += screening.rejected_holdout;
        std::vector<ml::SequentialModel> kept_models;
        std::vector<double> kept_eq7;
        std::vector<double> kept_fedavg;
        std::vector<size_t> kept_jobs;
        for (size_t i = 0; i < local_models.size(); ++i) {
          const size_t j = survivor_jobs[i];
          const size_t node_id = jobs[j].node_id;
          if (screening.verdicts[i].accepted) {
            ctx_.leader->RecordRoundResult(node_id,
                                           Leader::RoundResult::kCompleted);
            kept_models.push_back(std::move(local_models[i]));
            kept_eq7.push_back(eq7_weights[i]);
            kept_fedavg.push_back(fedavg_weights[i]);
            kept_jobs.push_back(j);
            continue;
          }
          final_alive[j] = false;
          record_once(&outcome->rejected_nodes, node_id);
          ++outcome->rejected_updates;
          ctx_.leader->RecordRoundResult(node_id,
                                         Leader::RoundResult::kRejected);
          if (byz.quarantine_rounds > 0) {
            (*ctx_.quarantine_until)[node_id] =
                byz_round + 1 + byz.quarantine_rounds;
          }
          obs::Count("federation.nodes.rejected");
          if (obs_on) {
            ++record.rejected;
            for (obs::NodeRoundStat& stat : record.nodes) {
              if (stat.node_id == node_id &&
                  stat.fate == obs::NodeFate::kCompleted) {
                stat.fate = obs::NodeFate::kRejected;
                break;
              }
            }
          }
        }
        local_models = std::move(kept_models);
        eq7_weights = std::move(kept_eq7);
        fedavg_weights = std::move(kept_fedavg);
        survivor_jobs = std::move(kept_jobs);
      } else {
        // Every delivered update passed: book the deferred completions.
        for (size_t i = 0; i < local_models.size(); ++i) {
          ctx_.leader->RecordRoundResult(jobs[survivor_jobs[i]].node_id,
                                         Leader::RoundResult::kCompleted);
        }
      }
    }

    // Rounds run in parallel across nodes but sequentially in time.
    outcome->sim_time_parallel += round_parallel;
    outcome->round_survivors.push_back(local_models.size());

    if (obs_on) {
      record.survivors = local_models.size();
      record.quorum_met =
          MeetsQuorum(local_models.size(), jobs.size(), ft.min_quorum_frac);
      record.fleet_epoch = dyn_stats.fleet_epoch;
      record.nodes_joined = dyn_stats.nodes_joined;
      record.nodes_left = dyn_stats.nodes_left;
      record.refreshes = dyn_stats.refreshes;
      record.stale_rounds = dyn_stats.stale_rounds;
      record.parallel_seconds = round_parallel;
      record.total_train_seconds = round_train;
      record.comm_seconds = round_comm;
      record.wire_down_bytes = round_wire_down;
      record.wire_up_bytes = round_wire_up;
      obs::Observe("federation.round.parallel_seconds", round_parallel);
      outcome->round_records.push_back(std::move(record));
    }

    if (!MeetsQuorum(local_models.size(), jobs.size(), ft.min_quorum_frac)) {
      // Below quorum: discard the partial update; the previous global
      // model carries into the next round (or becomes the final answer).
      ++outcome->degraded_rounds;
      obs::Count("federation.rounds.degraded");
      local_models.clear();
      eq7_weights.clear();
      fedavg_weights.clear();
      survivor_jobs.clear();
      std::fill(final_alive.begin(), final_alive.end(), false);
      continue;
    }
    if (round + 1 < rounds) {
      // Merge the locals into the next round's global model: FedAvg on the
      // paper path, the configured robust aggregator under the byzantine
      // layer (norm clipping is measured against the incoming global).
      const RobustAggregationOptions robust{byz.trim_beta, byz.clip_norm,
                                            &global};
      QENS_ASSIGN_OR_RETURN(
          global,
          MergeParameters(
              byz_on ? byz.aggregator : AggregationKind::kFedAvgParameters,
              local_models, fedavg_weights, robust));
    }
  }

  if (local_models.empty()) {
    // Graceful degradation: answer with the last committed global model
    // rather than failing the query outright.
    local_models.push_back(global.Clone());
    eq7_weights.push_back(1.0);
  }

  if (injector && std::find(final_alive.begin(), final_alive.end(), true) !=
                      final_alive.end()) {
    // Survivor-renormalized Eq. 7 weights over the engaged jobs (exposed
    // for diagnostics; the final ensemble normalizes equivalently).
    std::vector<double> job_weights(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
      job_weights[j] = jobs[j].rank_weight;
    }
    QENS_ASSIGN_OR_RETURN(outcome->survivor_weights,
                          PartialWeights(job_weights, final_alive));
  }

  return RoundSetResult{std::move(local_models), std::move(eq7_weights),
                        std::move(global)};
}

}  // namespace qens::fl
