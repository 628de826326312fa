#ifndef QENS_BENCH_BENCH_UTIL_H_
#define QENS_BENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// Shared configuration for the experiment benches. One place defines the
/// "paper-scale" environment (Section V-A: N = 10 nodes, K = 5 clusters,
/// 200 queries) so every table/figure bench runs the same deployment.

#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qens/common/stopwatch.h"
#include "qens/data/air_quality_generator.h"
#include "qens/data/normalizer.h"
#include "qens/fl/experiment.h"
#include "qens/ml/loss.h"
#include "qens/ml/model_factory.h"
#include "qens/obs/json.h"
#include "qens/tensor/stats.h"

namespace qens::bench {

/// The paper's environment: 10 stations, K = 5, 200 queries, LR model.
/// `heterogeneity` selects the Table I vs Table II/Fig. 7 regime.
inline fl::ExperimentConfig PaperConfig(data::Heterogeneity heterogeneity,
                                        uint64_t seed = 2023) {
  fl::ExperimentConfig config;
  config.data.num_stations = 10;          // Section V-A: N = 10.
  config.data.samples_per_station = 1500;
  config.data.heterogeneity = heterogeneity;
  config.data.seed = seed;
  config.data.single_feature = true;      // "one important feature and labels".

  config.federation.environment.kmeans.k = 5;  // Section V-A: K = 5.
  config.federation.ranking.epsilon = 0.15;
  config.federation.query_driven.top_l = 3;
  config.federation.hyper =
      ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  config.federation.hyper.epochs = 40;  // Scaled from 100 for bench runtime;
                                        // LR converges well before 40 epochs.
  config.federation.epochs_per_cluster = 15;
  config.federation.random_l = 3;
  config.federation.game_theory.loss_quantile = 0.5;
  config.federation.test_fraction = 0.2;
  config.federation.seed = seed + 1;

  config.workload.num_queries = 200;     // Section V-A: 200 queries.
  config.workload.min_width_frac = 0.15;
  config.workload.max_width_frac = 0.5;
  config.workload.seed = seed + 2;
  return config;
}

/// Abort-with-message helper for bench mains.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
inline T ValueOrDie(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// Failed shape checks so far in this process.
inline int& ShapeCheckFailures() {
  static int failures = 0;
  return failures;
}

/// A shape check: one of the paper's qualitative claims, verified by the
/// bench. Returns the "yes" or "NO" the bench prints for it, so its text
/// stays as it was; a failure is also named on stderr and counted, and
/// ShapeCheckExitCode() then ends main non-zero.
inline const char* ShapeCheck(const char* name, bool ok) {
  if (!ok) {
    ++ShapeCheckFailures();
    std::fprintf(stderr, "shape check failed: %s\n", name);
  }
  return ok ? "yes" : "NO";
}

/// main's exit code: 1 when any shape check failed, else 0.
inline int ShapeCheckExitCode() { return ShapeCheckFailures() == 0 ? 0 : 1; }

inline void PrintHeader(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

/// Shared by the Table I and Table II benches: the Section II pre-test.
/// The leader trains an LR model on its own data and tests it against the
/// other participants; "all-node" probes everyone and engages the best
/// match, "random" engages a uniformly random participant (expected loss =
/// the per-node mean). Averaged over every choice of leader; losses are in
/// raw PM2.5 units (training happens at normalized scale).
struct PreTestResult {
  double all_node_loss = 0.0;  ///< Best-matching participant (probed).
  double random_loss = 0.0;    ///< Expected loss of a random participant.
};

inline PreTestResult RunPreTest(const data::AirQualityOptions& options,
                                uint64_t seed) {
  data::AirQualityGenerator generator(options);
  std::vector<data::Dataset> stations =
      ValueOrDie(generator.GenerateAll(), "generate stations");

  // Global min-max scaling (in the protocol, from the shipped bounds).
  const data::Dataset pooled =
      ValueOrDie(data::StackShards(stations), "pool");
  data::Normalizer fnorm = ValueOrDie(
      data::Normalizer::Fit(pooled.features(), data::ScalingKind::kMinMax),
      "feature norm");
  data::Normalizer tnorm = ValueOrDie(
      data::Normalizer::Fit(pooled.targets(), data::ScalingKind::kMinMax),
      "target norm");
  const double tscale = tnorm.scale()[0];
  const double denorm = tscale > 0 ? 1.0 / (tscale * tscale) : 1.0;

  std::vector<Matrix> xs, ys;
  for (const auto& s : stations) {
    xs.push_back(ValueOrDie(fnorm.Transform(s.features()), "x"));
    ys.push_back(ValueOrDie(tnorm.Transform(s.targets()), "y"));
  }

  stats::RunningStats best_losses, random_losses;
  for (size_t leader = 0; leader < stations.size(); ++leader) {
    Rng rng(seed + leader);
    ml::SequentialModel probe = ValueOrDie(
        ml::BuildModel(ml::ModelKind::kLinearRegression, xs[leader].cols(),
                       &rng),
        "model");
    auto trainer = ValueOrDie(
        ml::BuildTrainer(ml::ModelKind::kLinearRegression, seed + leader),
        "trainer");
    trainer->mutable_options().epochs = 40;
    CheckOk(trainer->Fit(&probe, xs[leader], ys[leader]).status(), "fit");

    double best = 1e300;
    stats::RunningStats per_node;
    for (size_t i = 0; i < stations.size(); ++i) {
      if (i == leader) continue;
      Matrix pred = ValueOrDie(probe.Predict(xs[i]), "predict");
      const double loss =
          ValueOrDie(ml::ComputeLoss(ml::LossKind::kMse, pred, ys[i]),
                     "loss") *
          denorm;
      best = std::min(best, loss);
      per_node.Add(loss);
    }
    best_losses.Add(best);
    random_losses.Add(per_node.mean());
  }
  return PreTestResult{best_losses.mean(), random_losses.mean()};
}

/// One machine-readable result row of a bench run: a name plus flat maps of
/// string labels and numeric values (wall/sim time, losses, selection
/// counts — whatever the bench measures).
struct BenchRecord {
  std::string name;
  std::map<std::string, std::string> labels;
  std::map<std::string, double> values;
};

/// Hardware threads as the OS reports them; 1 when the runtime cannot tell
/// (hardware_concurrency() == 0). Throughput benches record this so their
/// speedup numbers stay interpretable on constrained hosts.
inline size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

/// Strip `--json <path>` / `--json=<path>` out of argv (so downstream flag
/// parsers, e.g. google-benchmark, never see it) and return the path; empty
/// when the flag is absent.
inline std::string ExtractJsonPathArg(int* argc, char** argv) {
  std::string path;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    const std::string arg = argv[r];
    if (arg == "--json" && r + 1 < *argc) {
      path = argv[++r];
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  return path;
}

/// Collects BenchRecords and, when the bench was invoked with
/// `--json <path>`, writes them as one JSON document on Write():
///   {"bench": ..., "schema_version": 1, "wall_seconds": ...,
///    "records": [{"name", "labels", "values"}, ...]}
/// Schema documented in docs/OBSERVABILITY.md and validated by
/// tools/check_bench_json.py. With no --json flag every call is a no-op, so
/// stdout output is untouched either way.
class BenchJson {
 public:
  BenchJson(std::string bench_name, int* argc, char** argv)
      : bench_(std::move(bench_name)),
        path_(ExtractJsonPathArg(argc, argv)) {}

  bool enabled() const { return !path_.empty(); }

  /// Declare this bench's numbers throughput-sensitive: hardware parallelism
  /// below 2 threads makes every wall-clock speedup meaningless, so the run
  /// is loudly flagged on stderr (JSON or not) and the emitted document
  /// carries top-level `hw_threads` and `degraded` fields so downstream
  /// readers never mistake a single-core measurement for a real scaling
  /// result. Returns whether the host is degraded.
  bool MarkThroughputSensitive() {
    throughput_sensitive_ = true;
    hw_threads_ = HardwareThreads();
    if (hw_threads_ < 2) {
      std::fprintf(stderr,
                   "WARNING: %s is a throughput bench but this host reports "
                   "only %zu hardware thread(s).\n"
                   "WARNING: wall-clock speedups below are NOT indicative of "
                   "multi-core scaling; results are\n"
                   "WARNING: recorded with \"degraded\": true. Equality "
                   "(determinism) sections remain fully valid.\n",
                   bench_.c_str(), hw_threads_);
    }
    return hw_threads_ < 2;
  }

  void Add(BenchRecord record) {
    if (enabled()) records_.push_back(std::move(record));
  }

  Status Write() const {
    if (!enabled()) return Status::OK();
    obs::JsonValue root = obs::JsonValue::Object();
    root.Set("bench", obs::JsonValue::String(bench_));
    root.Set("schema_version", obs::JsonValue::Number(1));
    root.Set("wall_seconds", obs::JsonValue::Number(watch_.ElapsedSeconds()));
    if (throughput_sensitive_) {
      // Additive keys (the schema gate tolerates extras): consumers of
      // throughput numbers must be able to see a degraded host at a glance.
      root.Set("hw_threads",
               obs::JsonValue::Number(static_cast<double>(hw_threads_)));
      root.Set("degraded", obs::JsonValue::Bool(hw_threads_ < 2));
    }
    obs::JsonValue records = obs::JsonValue::Array();
    for (const BenchRecord& r : records_) {
      obs::JsonValue rec = obs::JsonValue::Object();
      rec.Set("name", obs::JsonValue::String(r.name));
      obs::JsonValue labels = obs::JsonValue::Object();
      for (const auto& [key, value] : r.labels) {
        labels.Set(key, obs::JsonValue::String(value));
      }
      rec.Set("labels", std::move(labels));
      obs::JsonValue values = obs::JsonValue::Object();
      for (const auto& [key, value] : r.values) {
        values.Set(key, obs::JsonValue::Number(value));
      }
      rec.Set("values", std::move(values));
      records.Append(std::move(rec));
    }
    root.Set("records", std::move(records));
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      return Status::IOError("cannot open for write: " + path_);
    }
    const std::string text = root.Dump() + "\n";
    const size_t written = std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    if (written != text.size()) {
      return Status::IOError("short write: " + path_);
    }
    return Status::OK();
  }

  void WriteOrDie() const { CheckOk(Write(), "write bench json"); }

 private:
  std::string bench_;
  std::string path_;
  Stopwatch watch_;
  std::vector<BenchRecord> records_;
  bool throughput_sensitive_ = false;
  size_t hw_threads_ = 1;
};

/// The MechanismStats fields every experiment bench reports, flattened into
/// a BenchRecord so the per-bench wiring stays a one-liner.
inline BenchRecord MechanismRecord(const fl::MechanismStats& stats) {
  BenchRecord record;
  record.name = stats.label;
  record.values["queries_run"] = static_cast<double>(stats.queries_run);
  record.values["queries_skipped"] =
      static_cast<double>(stats.queries_skipped);
  record.values["avg_loss"] = stats.loss.mean();
  record.values["avg_sim_time"] = stats.sim_time.mean();
  record.values["avg_wall_seconds"] = stats.wall_time.mean();
  record.values["avg_data_fraction"] = stats.data_fraction.mean();
  return record;
}

}  // namespace qens::bench

#endif  // QENS_BENCH_BENCH_UTIL_H_
