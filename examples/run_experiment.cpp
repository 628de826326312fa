// Config-driven experiment runner: the full evaluation pipeline
// parameterized by an INI file, so deployments can be explored without
// recompiling.
//
// Usage:
//   run_experiment <config.ini>
//   run_experiment --print-default     (emit a template config and exit)
//
// See examples/configs/paper.ini for the paper's Section V setup.

#include <cstdio>
#include <cstring>

#include "qens/common/config.h"
#include "qens/common/string_util.h"
#include "qens/fl/experiment.h"
#include "qens/ml/model_codec.h"
#include "qens/fl/query_server.h"
#include "qens/obs/export.h"
#include "qens/obs/metrics.h"
#include "qens/obs/round_record.h"

using namespace qens;

namespace {

constexpr char kDefaultConfig[] = R"(# qens experiment configuration
[data]
stations = 10
samples_per_station = 1500
heterogeneous = true
single_feature = true
seed = 2023

[quantization]
k = 5

[selection]
epsilon = 0.15
top_l = 3
use_threshold = false
psi = 0.5

[model]
kind = lr            ; lr | nn
epochs = 40
epochs_per_cluster = 15

[federation]
random_l = 3
test_fraction = 0.2
dropout_rate = 0.0
rounds = 1
seed = 7

[workload]
queries = 60
min_width_frac = 0.15
max_width_frac = 0.5
seed = 99

[faults]
enabled = false
seed = 1337
crash_rate = 0.0
crash_horizon = 20
dropout_rate = 0.0
straggler_rate = 0.0
straggler_slowdown_min = 2.0
straggler_slowdown_max = 8.0
message_loss_rate = 0.0
round_deadline_s = 0.0
max_send_attempts = 3
retry_backoff_s = 0.005
min_quorum_frac = 0.5
corruption_rate = 0.0        ; fraction of nodes that are Byzantine
corruption_kinds =           ; csv of nan|inf|scale|sign_flip|label_flip
corruption_gamma = 10.0      ; multiplier for scale attacks
corruption_active_rate = 1.0 ; per-round attack probability per attacker

[byzantine]
enabled = false
max_update_norm = 0.0        ; absolute L2 bound on updates (0 = off)
norm_mad_k = 0.0             ; reject norms > k MADs above median (0 = off)
holdout_loss_factor = 0.0    ; reject holdout loss > factor x median (0 = off)
holdout_max_rows = 256
quarantine_rounds = 0        ; rounds a rejected node sits out
aggregator = fedavg-parameters ; fedavg-parameters | coordinate-median |
                               ; trimmed-mean | norm-clipped-fedavg
trim_beta = 0.1
clip_norm = 1.0

[wire]
enabled = false          ; binary wire format + codec byte accounting
codec = raw              ; raw | q8 | q4 | q2 | topk (docs/WIRE_FORMAT.md)
top_k_fraction = 0.1     ; fraction of delta coords kept by topk

[churn]
enabled = false          ; dynamic fleet: nodes leave and rejoin mid-stream
seed = 4242
rate = 0.0               ; fraction of nodes that churn
horizon = 64             ; rounds the presence schedule covers
min_down_rounds = 1      ; shortest absence
max_down_rounds = 4      ; longest absence
min_up_rounds = 2        ; shortest stay between absences
max_up_rounds = 8        ; longest stay between absences

[drift]
enabled = false          ; dynamic fleet: seeded per-round data drift
seed = 0
rate = 0.0               ; per-(node, round) drift event probability
feature_shift = 0.05     ; max offset as a fraction of each dim's span
refresh = false          ; online cluster refresh (docs/ROBUSTNESS.md)
refresh_threshold = 0.1  ; unpublished |offset|/span that trips a refresh

[metrics]
enabled = false
round_jsonl =        ; per-round records, one JSON object per line
summary_json =       ; final counter/gauge/histogram snapshot

[serving]
sessions = 0             ; concurrent query sessions (0 = no serving phase)
workers = 0              ; session worker threads (0 or 1 = sequential)
queries_per_session = 8  ; workload queries each session serves (cycled)
queue_capacity = 1024    ; pending requests per session (0 = none; unset = inf)
arrival_spacing_s = 0.0  ; virtual seconds between request arrivals
class_pattern = standard ; csv of interactive|standard|batch, cycled
deadline_interactive_s = 0.0 ; per-class virtual SLO deadline (0 = none)
deadline_standard_s = 0.0
deadline_batch_s = 0.0
round_budget_interactive = 0 ; per-class admitted-round budget (0 = inf)
round_budget_standard = 0
round_budget_batch = 0
)";

/// Export destinations parsed from the [metrics] section.
struct MetricsOutputs {
  bool enabled = false;
  std::string round_jsonl;
  std::string summary_json;
};

template <typename T>
T Die(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "error (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

Result<fl::ExperimentConfig> BuildConfig(const Config& ini) {
  fl::ExperimentConfig config;
  QENS_ASSIGN_OR_RETURN(config.data.num_stations,
                        ini.GetCount("data.stations", 10));
  QENS_ASSIGN_OR_RETURN(config.data.samples_per_station,
                        ini.GetCount("data.samples_per_station", 1500));
  QENS_ASSIGN_OR_RETURN(bool heterogeneous,
                        ini.GetBool("data.heterogeneous", true));
  QENS_ASSIGN_OR_RETURN(bool single_feature,
                        ini.GetBool("data.single_feature", true));
  QENS_ASSIGN_OR_RETURN(int64_t data_seed, ini.GetInt("data.seed", 2023));
  config.data.heterogeneity = heterogeneous
                                  ? data::Heterogeneity::kHeterogeneous
                                  : data::Heterogeneity::kHomogeneous;
  config.data.single_feature = single_feature;
  config.data.seed = static_cast<uint64_t>(data_seed);

  QENS_ASSIGN_OR_RETURN(config.federation.environment.kmeans.k,
                        ini.GetCount("quantization.k", 5));

  QENS_ASSIGN_OR_RETURN(config.federation.ranking.epsilon,
                        ini.GetDouble("selection.epsilon", 0.15));
  QENS_ASSIGN_OR_RETURN(config.federation.query_driven.top_l,
                        ini.GetCount("selection.top_l", 3));
  QENS_ASSIGN_OR_RETURN(config.federation.query_driven.use_threshold,
                        ini.GetBool("selection.use_threshold", false));
  QENS_ASSIGN_OR_RETURN(config.federation.query_driven.psi,
                        ini.GetDouble("selection.psi", 0.5));

  QENS_ASSIGN_OR_RETURN(ml::ModelKind kind,
                        ml::ParseModelKind(ini.GetString("model.kind", "lr")));
  config.federation.hyper = ml::PaperHyperParams(kind);
  QENS_ASSIGN_OR_RETURN(config.federation.hyper.epochs,
                        ini.GetCount("model.epochs", 40));
  QENS_ASSIGN_OR_RETURN(config.federation.epochs_per_cluster,
                        ini.GetCount("model.epochs_per_cluster", 15));

  QENS_ASSIGN_OR_RETURN(config.federation.random_l,
                        ini.GetCount("federation.random_l", 3));
  QENS_ASSIGN_OR_RETURN(config.federation.test_fraction,
                        ini.GetDouble("federation.test_fraction", 0.2));
  QENS_ASSIGN_OR_RETURN(config.federation.dropout_rate,
                        ini.GetDouble("federation.dropout_rate", 0.0));
  QENS_ASSIGN_OR_RETURN(int64_t fed_seed, ini.GetInt("federation.seed", 7));
  config.federation.seed = static_cast<uint64_t>(fed_seed);

  QENS_ASSIGN_OR_RETURN(config.workload.num_queries,
                        ini.GetCount("workload.queries", 60));
  QENS_ASSIGN_OR_RETURN(config.workload.min_width_frac,
                        ini.GetDouble("workload.min_width_frac", 0.15));
  QENS_ASSIGN_OR_RETURN(config.workload.max_width_frac,
                        ini.GetDouble("workload.max_width_frac", 0.5));
  QENS_ASSIGN_OR_RETURN(int64_t wl_seed, ini.GetInt("workload.seed", 99));
  config.workload.seed = static_cast<uint64_t>(wl_seed);

  fl::FaultToleranceOptions& ft = config.federation.fault_tolerance;
  QENS_ASSIGN_OR_RETURN(ft.enabled, ini.GetBool("faults.enabled", false));
  QENS_ASSIGN_OR_RETURN(int64_t fault_seed, ini.GetInt("faults.seed", 1337));
  ft.faults.seed = static_cast<uint64_t>(fault_seed);
  QENS_ASSIGN_OR_RETURN(ft.faults.crash_rate,
                        ini.GetDouble("faults.crash_rate", 0.0));
  QENS_ASSIGN_OR_RETURN(ft.faults.crash_horizon,
                        ini.GetCount("faults.crash_horizon", 20));
  QENS_ASSIGN_OR_RETURN(ft.faults.dropout_rate,
                        ini.GetDouble("faults.dropout_rate", 0.0));
  QENS_ASSIGN_OR_RETURN(ft.faults.straggler_rate,
                        ini.GetDouble("faults.straggler_rate", 0.0));
  QENS_ASSIGN_OR_RETURN(ft.faults.straggler_slowdown_min,
                        ini.GetDouble("faults.straggler_slowdown_min", 2.0));
  QENS_ASSIGN_OR_RETURN(ft.faults.straggler_slowdown_max,
                        ini.GetDouble("faults.straggler_slowdown_max", 8.0));
  QENS_ASSIGN_OR_RETURN(ft.faults.message_loss_rate,
                        ini.GetDouble("faults.message_loss_rate", 0.0));
  QENS_ASSIGN_OR_RETURN(ft.round_deadline_s,
                        ini.GetDouble("faults.round_deadline_s", 0.0));
  QENS_ASSIGN_OR_RETURN(ft.max_send_attempts,
                        ini.GetCount("faults.max_send_attempts", 3));
  QENS_ASSIGN_OR_RETURN(ft.retry_backoff_s,
                        ini.GetDouble("faults.retry_backoff_s", 0.005));
  QENS_ASSIGN_OR_RETURN(ft.min_quorum_frac,
                        ini.GetDouble("faults.min_quorum_frac", 0.5));
  QENS_ASSIGN_OR_RETURN(ft.faults.corruption_rate,
                        ini.GetDouble("faults.corruption_rate", 0.0));
  QENS_ASSIGN_OR_RETURN(
      ft.faults.corruption_kinds,
      sim::ParseCorruptionKinds(ini.GetString("faults.corruption_kinds", "")));
  QENS_ASSIGN_OR_RETURN(ft.faults.corruption_gamma,
                        ini.GetDouble("faults.corruption_gamma", 10.0));
  QENS_ASSIGN_OR_RETURN(
      ft.faults.corruption_active_rate,
      ini.GetDouble("faults.corruption_active_rate", 1.0));

  fl::ByzantineOptions& byz = config.federation.byzantine;
  QENS_ASSIGN_OR_RETURN(byz.enabled, ini.GetBool("byzantine.enabled", false));
  QENS_ASSIGN_OR_RETURN(
      byz.validator.max_update_norm,
      ini.GetDouble("byzantine.max_update_norm", 0.0));
  QENS_ASSIGN_OR_RETURN(byz.validator.norm_mad_k,
                        ini.GetDouble("byzantine.norm_mad_k", 0.0));
  QENS_ASSIGN_OR_RETURN(
      byz.validator.holdout_loss_factor,
      ini.GetDouble("byzantine.holdout_loss_factor", 0.0));
  QENS_ASSIGN_OR_RETURN(byz.validator.holdout_max_rows,
                        ini.GetCount("byzantine.holdout_max_rows", 256));
  QENS_ASSIGN_OR_RETURN(byz.quarantine_rounds,
                        ini.GetCount("byzantine.quarantine_rounds", 0));
  QENS_ASSIGN_OR_RETURN(
      byz.aggregator,
      fl::ParseAggregationKind(
          ini.GetString("byzantine.aggregator", "fedavg-parameters")));
  QENS_ASSIGN_OR_RETURN(byz.trim_beta,
                        ini.GetDouble("byzantine.trim_beta", 0.1));
  QENS_ASSIGN_OR_RETURN(byz.clip_norm,
                        ini.GetDouble("byzantine.clip_norm", 1.0));

  ml::WireOptions& wire = config.federation.wire;
  QENS_ASSIGN_OR_RETURN(wire.enabled, ini.GetBool("wire.enabled", false));
  QENS_ASSIGN_OR_RETURN(
      wire.codec, ml::ParseWireCodecKind(ini.GetString("wire.codec", "raw")));
  QENS_ASSIGN_OR_RETURN(wire.top_k_fraction,
                        ini.GetDouble("wire.top_k_fraction", 0.1));

  // Dynamic-fleet layer: [churn] and [drift] each have their own enable so
  // churn-only and drift-only deployments read naturally; the layer itself
  // switches on when either does.
  fl::DynamicFleetOptions& dyn = config.federation.dynamic;
  QENS_ASSIGN_OR_RETURN(bool churn_enabled,
                        ini.GetBool("churn.enabled", false));
  QENS_ASSIGN_OR_RETURN(int64_t churn_seed, ini.GetInt("churn.seed", 4242));
  dyn.churn.seed = static_cast<uint64_t>(churn_seed);
  QENS_ASSIGN_OR_RETURN(dyn.churn.churn_rate,
                        ini.GetDouble("churn.rate", 0.0));
  QENS_ASSIGN_OR_RETURN(dyn.churn.churn_horizon,
                        ini.GetCount("churn.horizon", 64));
  QENS_ASSIGN_OR_RETURN(dyn.churn.min_down_rounds,
                        ini.GetCount("churn.min_down_rounds", 1));
  QENS_ASSIGN_OR_RETURN(dyn.churn.max_down_rounds,
                        ini.GetCount("churn.max_down_rounds", 4));
  QENS_ASSIGN_OR_RETURN(dyn.churn.min_up_rounds,
                        ini.GetCount("churn.min_up_rounds", 2));
  QENS_ASSIGN_OR_RETURN(dyn.churn.max_up_rounds,
                        ini.GetCount("churn.max_up_rounds", 8));
  if (!churn_enabled) dyn.churn.churn_rate = 0.0;
  QENS_ASSIGN_OR_RETURN(bool drift_enabled,
                        ini.GetBool("drift.enabled", false));
  QENS_ASSIGN_OR_RETURN(int64_t drift_seed, ini.GetInt("drift.seed", 0));
  dyn.drift.seed = static_cast<uint64_t>(drift_seed);
  QENS_ASSIGN_OR_RETURN(dyn.drift.rate, ini.GetDouble("drift.rate", 0.0));
  QENS_ASSIGN_OR_RETURN(dyn.drift.feature_shift,
                        ini.GetDouble("drift.feature_shift", 0.05));
  QENS_ASSIGN_OR_RETURN(dyn.refresh, ini.GetBool("drift.refresh", false));
  QENS_ASSIGN_OR_RETURN(dyn.refresh_threshold,
                        ini.GetDouble("drift.refresh_threshold", 0.1));
  if (!drift_enabled) dyn.drift.rate = 0.0;
  dyn.enabled = churn_enabled || drift_enabled;
  return config;
}

/// The default template doubles as the key schema: any key the template
/// does not know is a typo (wrong section or misspelled name), and typos
/// must not silently fall back to defaults.
Status ValidateConfigKeys(const Config& ini) {
  QENS_ASSIGN_OR_RETURN(const Config known, Config::Parse(kDefaultConfig));
  for (const std::string& key : ini.Keys()) {
    if (known.Has(key)) continue;
    const size_t dot = key.find('.');
    const std::string section =
        dot == std::string::npos ? "" : key.substr(0, dot);
    const std::string name =
        dot == std::string::npos ? key : key.substr(dot + 1);
    return Status::InvalidArgument(
        StrFormat("unknown config key '%s' in section [%s]", name.c_str(),
                  section.c_str()));
  }
  return Status::OK();
}

Result<MetricsOutputs> BuildMetricsOutputs(const Config& ini) {
  MetricsOutputs outputs;
  QENS_ASSIGN_OR_RETURN(outputs.enabled,
                        ini.GetBool("metrics.enabled", false));
  outputs.round_jsonl = ini.GetString("metrics.round_jsonl", "");
  outputs.summary_json = ini.GetString("metrics.summary_json", "");
  // Export destinations imply collection.
  if (!outputs.round_jsonl.empty() || !outputs.summary_json.empty()) {
    outputs.enabled = true;
  }
  return outputs;
}

/// The [serving] worker count and admission gates. A gate whose key is
/// absent stays off (AdmissionOptions{} admits everything).
Result<fl::ServingOptions> BuildServingOptions(const Config& ini) {
  fl::ServingOptions options;
  QENS_ASSIGN_OR_RETURN(options.num_workers,
                        ini.GetCount("serving.workers", 0));
  fl::AdmissionOptions& adm = options.admission_options;
  QENS_ASSIGN_OR_RETURN(
      adm.queue_capacity,
      ini.GetCount("serving.queue_capacity", adm.queue_capacity));
  QENS_ASSIGN_OR_RETURN(adm.interactive_deadline_s,
                        ini.GetDouble("serving.deadline_interactive_s", 0.0));
  QENS_ASSIGN_OR_RETURN(adm.standard_deadline_s,
                        ini.GetDouble("serving.deadline_standard_s", 0.0));
  QENS_ASSIGN_OR_RETURN(adm.batch_deadline_s,
                        ini.GetDouble("serving.deadline_batch_s", 0.0));
  QENS_ASSIGN_OR_RETURN(adm.interactive_round_budget,
                        ini.GetCount("serving.round_budget_interactive", 0));
  QENS_ASSIGN_OR_RETURN(adm.standard_round_budget,
                        ini.GetCount("serving.round_budget_standard", 0));
  QENS_ASSIGN_OR_RETURN(adm.batch_round_budget,
                        ini.GetCount("serving.round_budget_batch", 0));
  return options;
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "error (%s): %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--print-default") == 0) {
    std::printf("%s", kDefaultConfig);
    return 0;
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: %s <config.ini> | --print-default\n", argv[0]);
    return 2;
  }

  Config ini = Die(Config::Load(argv[1]), "load config");
  Check(ValidateConfigKeys(ini), "validate config");
  fl::ExperimentConfig config = Die(BuildConfig(ini), "build config");
  const size_t rounds = Die(ini.GetCount("federation.rounds", 1), "rounds");
  const MetricsOutputs metrics = Die(BuildMetricsOutputs(ini), "metrics");
  // [serving] is parsed up front so a bad value fails before any training.
  const size_t sessions = Die(ini.GetCount("serving.sessions", 0), "serving");
  const size_t per_session =
      Die(ini.GetCount("serving.queries_per_session", 8), "serving");
  const fl::ServingOptions serving_options =
      Die(BuildServingOptions(ini), "serving");
  const double spacing =
      Die(ini.GetDouble("serving.arrival_spacing_s", 0.0), "serving");
  std::vector<fl::QueryClass> classes;
  for (const std::string& name :
       Split(ini.GetString("serving.class_pattern", "standard"), ',')) {
    const std::string trimmed = Trim(name);
    if (trimmed.empty()) continue;
    classes.push_back(Die(fl::ParseQueryClass(trimmed), "class_pattern"));
  }
  if (classes.empty()) classes.push_back(fl::QueryClass::kStandard);

  if (metrics.enabled) obs::MetricsRegistry::Enable();

  std::printf("loaded %s (%zu keys)\n", argv[1], ini.size());
  std::printf(
      "environment: %zu stations x %zu samples (%s), K = %zu, %zu queries, "
      "model = %s, rounds = %zu\n",
      config.data.num_stations, config.data.samples_per_station,
      data::HeterogeneityName(config.data.heterogeneity),
      config.federation.environment.kmeans.k, config.workload.num_queries,
      ml::ModelKindName(config.federation.hyper.kind), rounds);

  fl::ExperimentRunner runner =
      Die(fl::ExperimentRunner::Create(config), "build experiment");

  if (const auto* injector = runner.session().fault_injector()) {
    std::printf("%s\n", injector->plan().Describe().c_str());
  }

  std::vector<obs::RoundRecord> round_records;
  if (rounds <= 1) {
    std::vector<fl::MechanismStats> rows;
    for (const fl::Mechanism& mechanism : fl::Figure7Mechanisms()) {
      std::printf("running %-10s ...\n", mechanism.label.c_str());
      rows.push_back(Die(runner.RunMechanism(mechanism), "run"));
    }
    std::printf("\n%s", fl::FormatMechanismTable(rows).c_str());
    round_records = runner.collected_round_records();
  } else {
    // Multi-round variant: the paper's mechanism only.
    stats::RunningStats loss, time;
    size_t run = 0, skipped = 0;
    for (const auto& q : runner.queries()) {
      auto outcome = runner.session().RunQueryMultiRound(
          q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true,
          rounds);
      if (!outcome.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     outcome.status().ToString().c_str());
        return 1;
      }
      for (auto& record : outcome->round_records) {
        round_records.push_back(std::move(record));
      }
      if (outcome->skipped) {
        ++skipped;
        continue;
      }
      ++run;
      loss.Add(outcome->loss_weighted);
      time.Add(outcome->sim_time_total + outcome->sim_time_comm);
    }
    std::printf(
        "\nquery-driven x %zu rounds: avg loss %.3f, avg sim time %.4fs "
        "(%zu run, %zu skipped)\n",
        rounds, loss.mean(), time.mean(), run, skipped);
  }

  // Optional serving phase: replay the workload as concurrent sessions of
  // timed, classed requests over the same fleet. Arrivals, classes and
  // admission gates come from [serving]; every decision runs on the
  // deterministic virtual clock, so outcomes are bit-identical at every
  // worker count. Round records are tagged with their 1-based session id.
  if (sessions > 0) {
    const auto& pool = runner.queries();
    std::vector<fl::SessionSpec> specs;
    size_t next = 0;
    for (size_t s = 0; s < sessions; ++s) {
      fl::SessionSpec spec;
      spec.rounds = rounds;
      for (size_t q = 0; q < per_session && !pool.empty(); ++q) {
        fl::QueryRequest request;
        request.query = pool[next % pool.size()];
        request.query_class = classes[next % classes.size()];
        request.arrival_s = spacing * static_cast<double>(q);
        spec.requests.push_back(std::move(request));
        ++next;
      }
      specs.push_back(std::move(spec));
    }

    fl::QueryServer server =
        Die(fl::QueryServer::Create(runner.fleet(), serving_options),
            "build query server");
    std::printf("\nserving %zu session(s) x %zu queries, %zu worker(s)\n",
                sessions, per_session, serving_options.num_workers);
    const std::vector<fl::SessionResult> served = server.Serve(specs);
    const fl::ServingTelemetry telemetry = fl::SummarizeServing(served);
    std::printf(
        "  %-12s %9s %9s %9s %9s %10s %10s %10s\n", "class", "requests",
        "executed", "rejected", "shed", "vt_p50_s", "vt_p95_s", "vt_p99_s");
    for (size_t cls = 0; cls < fl::kNumQueryClasses; ++cls) {
      const fl::QueryClassStats& stats = telemetry.per_class[cls];
      if (stats.requests == 0) continue;
      std::printf("  %-12s %9zu %9zu %9zu %9zu %10.4f %10.4f %10.4f\n",
                  fl::QueryClassName(static_cast<fl::QueryClass>(cls)),
                  stats.requests, stats.executed, stats.rejected, stats.shed,
                  stats.virtual_latency.p50, stats.virtual_latency.p95,
                  stats.virtual_latency.p99);
    }
    size_t total_run = 0, total_skipped = 0, total_shed = 0,
           total_rejected = 0, total_bytes = 0;
    for (const fl::SessionResult& result : served) {
      if (!result.status.ok()) {
        std::fprintf(stderr, "  session %llu failed: %s\n",
                     static_cast<unsigned long long>(result.session_id),
                     result.status.ToString().c_str());
      }
      std::printf(
          "  session %llu: %zu run, %zu skipped, %zu msgs, %zu bytes, "
          "%.4fs comm\n",
          static_cast<unsigned long long>(result.session_id),
          result.queries_run, result.queries_skipped, result.comm_messages,
          result.comm_bytes, result.comm_seconds);
      total_run += result.queries_run;
      total_skipped += result.queries_skipped;
      total_shed += result.queries_shed;
      total_rejected += result.queries_rejected;
      total_bytes += result.comm_bytes;
      for (const fl::QueryOutcome& outcome : result.outcomes) {
        for (const obs::RoundRecord& record : outcome.round_records) {
          round_records.push_back(record);
        }
      }
    }
    std::printf(
        "served %zu queries (%zu skipped, %zu shed, %zu rejected), "
        "%zu bytes total\n",
        total_run, total_skipped, total_shed, total_rejected, total_bytes);
  }

  if (!metrics.round_jsonl.empty()) {
    Check(obs::WriteRoundRecordsJsonl(round_records, metrics.round_jsonl),
          "write round jsonl");
    std::printf("wrote %zu round records to %s\n", round_records.size(),
                metrics.round_jsonl.c_str());
  }
  if (!metrics.summary_json.empty()) {
    if (const auto* registry = obs::MetricsRegistry::Get()) {
      Check(obs::WriteMetricsSnapshotJson(registry->Snapshot(),
                                          metrics.summary_json),
            "write metrics summary");
      std::printf("wrote metrics summary to %s\n",
                  metrics.summary_json.c_str());
    }
  }
  return 0;
}
