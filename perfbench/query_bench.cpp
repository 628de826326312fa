// End-to-end query benchmark for the qens serving path.
//
//   query_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One closed-loop client issues a seeded stream of range queries to one
// fl::QuerySession (the engine behind Federation and QueryServer) and waits
// for each answer before sending the next. A query's latency is its wall
// time from arrival to answer: ranking, planning, local training on the
// selected nodes, aggregation and evaluation.
//
// Workloads (every deployment is fixed; --seed draws the query stream, and
// seed 0 reproduces the seeds of examples/configs/paper.ini):
//
//   paper_lr     paper.ini (10 stations x 1500 rows, K = 5, top-3, LR), the
//                paper's query-driven mechanism: rank, select top-l, train
//                on supporting clusters only, Eq. 6/7 answer.
//   paper_nn     the same stream with the paper's NN (64-unit ReLU, Adam).
//   fleet_rounds a 96-station fleet served by the query-driven mechanism
//                with top-8 selection and 3 FedAvg rounds per query.
//
// --trace 0 prints the end-to-end metrics (latency percentiles, throughput,
// set-up time). --trace 1 runs the same stream through a layer replay: the
// benchmark re-executes each query by calling every layer of the protocol
// itself (region pooling, selection, planning, local training, model-size
// codec, network accounting, aggregation, evaluation) under its own spans,
// and reports per-layer self time and counts.
//
// Times are reported in reference-host units: a fixed calibration kernel
// runs between measured items (25% of the time) and each item's wall time
// is scaled by how much slower than on the reference host the kernel ran
// around it (HostCalibration). The measured figures go to stderr.
//
// Correctness: every replayed query must reproduce the session's answer
// bit for bit (losses, simulated times, sample counts, selection). Under
// --trace 0 a fixed subset of the measured queries is replayed after the
// timed loop; under --trace 1 every traced query is. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/status.h"
#include "qens/data/air_quality_generator.h"
#include "qens/fl/aggregation.h"
#include "qens/fl/leader.h"
#include "qens/fl/participant.h"
#include "qens/fl/query_session.h"
#include "qens/fl/seed_derivation.h"
#include "qens/ml/loss.h"
#include "qens/ml/model_factory.h"
#include "qens/ml/model_io.h"
#include "qens/query/workload_generator.h"

// ---------------------------------------------------------------------------
// Allocation counting hook. Replaces global operator new for this binary
// only; counting is off except around the spans that report it.
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace qens::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using fl::QueryOutcome;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t AllocsNow() { return g_allocs.load(std::memory_order_relaxed); }

/// Counts allocations made while alive (nesting is not supported).
class AllocWindow {
 public:
  AllocWindow() : start_(AllocsNow()) {
    g_count_allocs.store(true, std::memory_order_relaxed);
  }
  ~AllocWindow() { g_count_allocs.store(false, std::memory_order_relaxed); }
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;
  uint64_t count() const { return AllocsNow() - start_; }

 private:
  uint64_t start_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  data::AirQualityOptions data;
  fl::FederationOptions federation;
  query::WorkloadOptions queries;
  size_t rounds = 1;
  size_t setup_reps = 60;  ///< Fleet builds timed; the median is setup_s.
};

/// The paper.ini environment (examples/configs/paper.ini). The deployment
/// is the same for every `seed` (data seed 2023, federation seed 7); `seed`
/// offsets the query-stream seed, which draws the query regions.
WorkloadSpec PaperSpec(uint64_t seed, ml::ModelKind kind) {
  WorkloadSpec spec;
  spec.data.num_stations = 10;
  spec.data.samples_per_station = 1500;
  spec.data.heterogeneity = data::Heterogeneity::kHeterogeneous;
  spec.data.single_feature = true;
  spec.data.seed = 2023;

  fl::FederationOptions& fed = spec.federation;
  fed.environment.kmeans.k = 5;
  fed.ranking.epsilon = 0.15;
  fed.query_driven.top_l = 3;
  fed.hyper = ml::PaperHyperParams(kind);
  fed.hyper.epochs = 40;
  fed.epochs_per_cluster = 15;
  fed.test_fraction = 0.2;
  fed.seed = 7;

  spec.queries.min_width_frac = 0.15;
  spec.queries.max_width_frac = 0.5;
  spec.queries.seed = 99 + seed;
  return spec;
}

Result<WorkloadSpec> MakeSpec(const std::string& name, uint64_t seed) {
  if (name == "paper_lr") {
    return PaperSpec(seed, ml::ModelKind::kLinearRegression);
  }
  if (name == "paper_nn") {
    return PaperSpec(seed, ml::ModelKind::kNeuralNetwork);
  }
  if (name == "fleet_rounds") {
    WorkloadSpec spec = PaperSpec(seed, ml::ModelKind::kLinearRegression);
    spec.data.num_stations = 96;
    spec.data.samples_per_station = 500;
    spec.federation.query_driven.top_l = 8;
    spec.rounds = 3;
    spec.setup_reps = 15;
    return spec;
  }
  return Status::InvalidArgument("unknown workload: " + name);
}

// ---------------------------------------------------------------------------
// Answer digest: everything the replay must reproduce bit for bit.
// ---------------------------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

struct Digest {
  bool skipped = false;
  std::vector<uint64_t> reals;   ///< Losses and simulated times, as bits.
  std::vector<uint64_t> counts;  ///< Rows, sample counts, selection, rounds.

  bool operator==(const Digest& o) const {
    return skipped == o.skipped && reals == o.reals && counts == o.counts;
  }
};

Digest DigestOf(const QueryOutcome& o) {
  Digest d;
  d.skipped = o.skipped;
  if (o.skipped) return d;
  d.reals = {Bits(o.loss_model_avg), Bits(o.loss_weighted),
             Bits(o.loss_fedavg),    Bits(o.sim_time_total),
             Bits(o.sim_time_parallel), Bits(o.sim_time_comm)};
  for (double r : o.selected_rankings) d.reals.push_back(Bits(r));
  d.counts = {o.test_rows, o.samples_used, o.samples_selected,
              o.selected_nodes.size()};
  d.counts.insert(d.counts.end(), o.selected_nodes.begin(),
                  o.selected_nodes.end());
  d.counts.insert(d.counts.end(), o.round_survivors.begin(),
                  o.round_survivors.end());
  return d;
}

bool FiniteAnswer(const QueryOutcome& o) {
  return std::isfinite(o.loss_model_avg) && std::isfinite(o.loss_weighted) &&
         std::isfinite(o.loss_fedavg);
}

// ---------------------------------------------------------------------------
// Layer replay: the session's default (paper) protocol, one layer call at a
// time, each under a span of the benchmark's own.
// ---------------------------------------------------------------------------

enum Layer {
  kRegion,     ///< Query mapping + pooled query-region test rows.
  kSelect,     ///< Leader ranking and the top-l cut.
  kPlan,       ///< Global-model init and per-node job assembly.
  kTrain,      ///< Participants' local training.
  kCodec,      ///< Model serialization sizing for the wire.
  kComm,       ///< Simulated network accounting of every transfer.
  kAggregate,  ///< Inter-round FedAvg merge and final ensemble assembly.
  kEvaluate,   ///< Eq. 6 / Eq. 7 / FedAvg answers scored on the region.
  kNumLayers
};

constexpr const char* kLayerNames[kNumLayers] = {
    "region", "select", "plan", "train", "codec", "comm", "aggregate",
    "evaluate"};

struct LayerTotals {
  double seconds[kNumLayers] = {};
  double replay_seconds = 0.0;  ///< Whole replayed queries.
  uint64_t samples_seen = 0;    ///< Rows x epochs of local training.
  uint64_t batches = 0;         ///< Minibatch steps of local training.
  uint64_t fits = 0;            ///< Trainer::Fit calls of local training.
  uint64_t train_allocs = 0;    ///< Allocations inside the train layer.
  uint64_t bytes = 0;           ///< Bytes the replay sent over the network.
};

/// Adds its lifetime to one layer's total.
class Span {
 public:
  Span(LayerTotals* totals, Layer layer)
      : totals_(totals), layer_(layer), start_(Clock::now()) {}
  ~Span() { totals_->seconds[layer_] += SecondsSince(start_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerTotals* totals_;
  Layer layer_;
  Clock::time_point start_;
};

uint64_t BatchesOf(size_t rows, size_t epochs, size_t batch_size) {
  return static_cast<uint64_t>(epochs) *
         ((rows + batch_size - 1) / batch_size);
}

class LayerReplay {
 public:
  explicit LayerReplay(std::shared_ptr<const fl::Fleet> fleet)
      : fleet_(std::move(fleet)),
        leader_(fleet_->profiles, fleet_->options.ranking,
                fleet_->options.query_driven, fleet_->ranking_index,
                fleet_->fleet_epoch),
        network_(fleet_->environment.cost_model(),
                 sim::NetworkOptions{/*record_messages=*/false}) {}

  const LayerTotals& totals() const { return totals_; }

  /// Replay one query of the query-driven mechanism over `rounds` rounds.
  Result<QueryOutcome> Run(const query::RangeQuery& query, size_t rounds) {
    const Clock::time_point start = Clock::now();
    Result<QueryOutcome> outcome = RunLayers(query, rounds);
    totals_.replay_seconds += SecondsSince(start);
    return outcome;
  }

 private:
  Result<QueryOutcome> RunLayers(const query::RangeQuery& query,
                                 size_t rounds) {
    const fl::FederationOptions& options = fleet_->options;
    const sim::EdgeEnvironment& env = fleet_->environment;
    const uint64_t seed = options.seed;

    QueryOutcome out;
    out.query = query;
    out.data_selectivity = true;
    out.rounds = rounds;

    query::RangeQuery internal;
    std::optional<data::Dataset> test;
    {
      Span span(&totals_, kRegion);
      QENS_ASSIGN_OR_RETURN(internal, fleet_->InternalQuery(query));
      Result<data::Dataset> pooled = fleet_->QueryRegionTestData(query);
      if (pooled.ok()) test = std::move(pooled).value();
    }
    if (!test.has_value()) {
      out.skipped = true;
      return out;
    }
    out.test_rows = test->NumSamples();

    std::vector<size_t> chosen;
    std::vector<selection::NodeRank> all_ranks;
    {
      Span span(&totals_, kSelect);
      QENS_ASSIGN_OR_RETURN(fl::SelectionDecision decision,
                            leader_.Decide(internal));
      out.selected_rankings = decision.SelectedRankings();
      chosen = decision.SelectedNodeIds();
      // The session ranks again for the supporting-cluster sets.
      if (!chosen.empty()) {
        QENS_ASSIGN_OR_RETURN(all_ranks, leader_.Rank(internal));
      }
    }
    if (chosen.empty()) {
      out.skipped = true;
      return out;
    }

    std::optional<ml::SequentialModel> global;
    fl::LocalTrainOptions local;
    std::vector<fl::TrainJob> jobs;
    {
      Span span(&totals_, kPlan);
      Rng init_rng(fl::ModelInitSeed(seed, query.id));
      QENS_ASSIGN_OR_RETURN(
          global, ml::BuildModel(options.hyper,
                                 env.node(0).local_data().NumFeatures(),
                                 &init_rng));
      local.hyper = options.hyper;
      local.epochs_per_cluster = options.epochs_per_cluster;
      local.seed = seed + query.id;
      for (size_t node_id : chosen) {
        const auto rank = std::find_if(
            all_ranks.begin(), all_ranks.end(),
            [&](const selection::NodeRank& r) { return r.node_id == node_id; });
        if (rank == all_ranks.end() || rank->supporting_clusters == 0) {
          continue;
        }
        jobs.push_back(fl::TrainJob{node_id, rank->ranking, true,
                                    rank->SupportingClusterIds()});
      }
    }
    if (jobs.empty()) {
      out.skipped = true;
      return out;
    }
    size_t model_bytes = 0;
    {
      Span span(&totals_, kCodec);
      model_bytes = ml::SerializedModelBytes(*global);
    }

    const size_t leader_id = env.leader_index();
    std::vector<ml::SequentialModel> locals;
    std::vector<double> eq7_weights;
    std::vector<double> fedavg_weights;
    for (size_t round = 0; round < rounds; ++round) {
      locals.clear();
      eq7_weights.clear();
      fedavg_weights.clear();
      double round_parallel = 0.0;

      std::vector<fl::LocalTrainResult> results;
      results.reserve(jobs.size());
      {
        Span span(&totals_, kTrain);
        AllocWindow allocs;
        for (const fl::TrainJob& job : jobs) {
          QENS_ASSIGN_OR_RETURN(
              fl::LocalTrainResult r,
              fl::TrainOnSupportingClusters(env.node(job.node_id), *global,
                                            job.supporting, local,
                                            env.cost_model()));
          results.push_back(std::move(r));
        }
        totals_.train_allocs += allocs.count();
      }
      for (size_t j = 0; j < jobs.size(); ++j) {
        CountTrainingWork(jobs[j], local, results[j]);
      }

      for (size_t j = 0; j < jobs.size(); ++j) {
        const size_t node_id = jobs[j].node_id;
        fl::LocalTrainResult& result = results[j];
        if (round == 0) {
          out.samples_selected += env.node(node_id).NumSamples();
          out.samples_used += result.samples_used;
        }
        size_t up_bytes = 0;
        {
          Span span(&totals_, kCodec);
          up_bytes = ml::SerializedModelBytes(result.model);
        }
        {
          Span span(&totals_, kComm);
          out.sim_time_comm +=
              network_.Send(leader_id, node_id, model_bytes, "model-down");
          out.sim_time_comm +=
              network_.Send(node_id, leader_id, up_bytes, "model-up");
        }
        totals_.bytes += model_bytes + up_bytes;
        out.sim_time_total += result.sim_train_seconds;
        round_parallel = std::max(round_parallel, result.sim_train_seconds);
        locals.push_back(std::move(result.model));
        eq7_weights.push_back(jobs[j].rank_weight);
        fedavg_weights.push_back(
            std::max(1.0, static_cast<double>(result.samples_used)));
      }
      out.sim_time_parallel += round_parallel;
      out.round_survivors.push_back(locals.size());
      if (round + 1 < rounds) {
        Span span(&totals_, kAggregate);
        QENS_ASSIGN_OR_RETURN(global,
                              fl::FedAvgParameters(locals, fedavg_weights));
      }
    }
    out.selected_nodes = chosen;

    std::optional<fl::EnsembleModel> ensemble;
    {
      Span span(&totals_, kAggregate);
      double weight_sum = 0.0;
      for (double w : eq7_weights) weight_sum += w;
      if (weight_sum <= 0.0) {
        std::fill(eq7_weights.begin(), eq7_weights.end(), 1.0);
      }
      QENS_ASSIGN_OR_RETURN(
          ensemble, fl::EnsembleModel::Create(std::move(locals), eq7_weights));
    }
    {
      Span span(&totals_, kEvaluate);
      const Matrix& x = test->features();
      const Matrix& y = test->targets();
      struct Answer {
        fl::AggregationKind kind;
        double* loss;
      };
      for (const Answer& a :
           {Answer{fl::AggregationKind::kModelAveraging, &out.loss_model_avg},
            Answer{fl::AggregationKind::kWeightedAveraging,
                   &out.loss_weighted},
            Answer{fl::AggregationKind::kFedAvgParameters,
                   &out.loss_fedavg}}) {
        QENS_ASSIGN_OR_RETURN(Matrix pred, ensemble->Predict(x, a.kind));
        QENS_ASSIGN_OR_RETURN(double mse,
                              ml::ComputeLoss(ml::LossKind::kMse, pred, y));
        *a.loss = fleet_->DenormalizeMse(mse);
      }
    }
    return out;
  }

  /// Training-work counters of one finished job, from the published
  /// cluster sizes (the fits themselves report only rows x epochs).
  void CountTrainingWork(const fl::TrainJob& job,
                         const fl::LocalTrainOptions& local,
                         const fl::LocalTrainResult& result) {
    const size_t batch = std::max<size_t>(1, local.hyper.batch_size);
    totals_.samples_seen += result.samples_seen;
    const selection::NodeProfile& profile = (*fleet_->profiles)[job.node_id];
    for (size_t cluster_id : job.supporting) {
      totals_.fits += 1;
      totals_.batches += BatchesOf(profile.clusters[cluster_id].size,
                                   local.epochs_per_cluster, batch);
    }
  }

  std::shared_ptr<const fl::Fleet> fleet_;
  fl::Leader leader_;
  sim::Network network_;
  LayerTotals totals_;
};

// ---------------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return Status::InvalidArgument("unknown flag: " + key);
    }
    if (end != nullptr && *end != '\0') {
      return Status::InvalidArgument("bad value for " + key + ": " + value);
    }
  }
  if (argc % 2 != 1) return Status::InvalidArgument("flags come in pairs");
  if (!have_workload) return Status::InvalidArgument("--workload is required");
  if (!(args.seconds > 0.0)) return Status::InvalidArgument("--seconds <= 0");
  if (args.trace != 0 && args.trace != 1) {
    return Status::InvalidArgument("--trace must be 0 or 1");
  }
  return args;
}

/// One query of the stream and the session's answer to it.
struct Issued {
  query::RangeQuery query;
  Digest digest;
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// ---------------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------------

volatile double g_calibration_sink = 0.0;

/// One slice of fixed, benchmark-owned work shaped like the program's hot
/// paths: minibatch steps of a small dense layer with a naive trainer's
/// per-step heap traffic, then a 256 KiB copy there and back, like the
/// dataset row copies. Returns its wall seconds.
double CalibrationSlice() {
  constexpr size_t kRows = 32, kIn = 16, kOut = 8, kSteps = 24;
  constexpr size_t kCopyDoubles = 32768;
  static std::vector<double> copy_a(kCopyDoubles, 1.0);
  static std::vector<double> copy_b(kCopyDoubles, 0.0);
  const Clock::time_point start = Clock::now();
  std::vector<double> w(kIn * kOut, 0.01);
  for (size_t step = 0; step < kSteps; ++step) {
    std::vector<double> x(kRows * kIn);
    std::vector<double> err(kRows * kOut, -0.5);
    std::vector<double> grad(kIn * kOut, 0.0);
    for (size_t i = 0; i < x.size(); ++i) {
      x[i] = 0.01 * static_cast<double>((i * 7 + step) % 13);
    }
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t k = 0; k < kIn; ++k) {
        for (size_t o = 0; o < kOut; ++o) {
          err[r * kOut + o] += x[r * kIn + k] * w[k * kOut + o];
        }
      }
    }
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t k = 0; k < kIn; ++k) {
        for (size_t o = 0; o < kOut; ++o) {
          grad[k * kOut + o] += x[r * kIn + k] * err[r * kOut + o];
        }
      }
    }
    for (size_t i = 0; i < w.size(); ++i) w[i] -= 1e-3 * grad[i] / kRows;
  }
  std::memcpy(copy_b.data(), copy_a.data(), kCopyDoubles * sizeof(double));
  std::memcpy(copy_a.data(), copy_b.data(), kCopyDoubles * sizeof(double));
  g_calibration_sink = g_calibration_sink + w[0] + copy_a[kCopyDoubles / 2];
  return SecondsSince(start);
}

/// Interleaves calibration slices with measured work on the same thread,
/// so that both see the same host conditions, and converts measured seconds
/// into reference-host seconds. On a shared host the speed of one core
/// drifts by 20% and more within seconds as neighbours come and go; the
/// ratio of a measured item's time to the time of the fixed slices run
/// around it varies several times less.
class HostCalibration {
 public:
  /// Slices take this share of the calibrated phase's time.
  static constexpr double kShare = 0.25;
  /// Mean slice time on an unloaded reference host (a 4-vCPU Xeon VM).
  static constexpr double kReferenceSliceSeconds = 125e-6;
  /// Slices nearest an item that set its scale. The host's speed changes
  /// within a second, so a short window tracks it best.
  static constexpr size_t kWindow = 32;

  /// Record one measured item of `seconds`, then run slices until they make
  /// up kShare of the phase.
  void Add(double seconds) {
    items_.push_back(seconds);
    item_total_ += seconds;
    while (slices_.empty() || slice_total_ < kShare * item_total_) {
      slices_.push_back(CalibrationSlice());
      slice_total_ += slices_.back();
    }
    item_end_.push_back(slices_.size());
  }

  /// Every recorded item in reference-host seconds: its measured time
  /// scaled by the mean time of the kWindow slices centred on it.
  std::vector<double> Scaled() const {
    std::vector<double> prefix(slices_.size() + 1, 0.0);
    for (size_t k = 0; k < slices_.size(); ++k) {
      prefix[k + 1] = prefix[k] + slices_[k];
    }
    const size_t window = std::min(kWindow, slices_.size());
    std::vector<double> scaled(items_.size());
    for (size_t i = 0; i < items_.size(); ++i) {
      const size_t centred = item_end_[i] - std::min(item_end_[i], window / 2);
      const size_t lo = std::min(centred, slices_.size() - window);
      const double mean = (prefix[lo + window] - prefix[lo]) / window;
      scaled[i] = items_[i] * kReferenceSliceSeconds / mean;
    }
    return scaled;
  }

 private:
  std::vector<double> items_;
  std::vector<size_t> item_end_;  ///< Slices run once each item was added.
  std::vector<double> slices_;
  double item_total_ = 0.0;
  double slice_total_ = 0.0;
};

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

struct Deployment {
  std::shared_ptr<const fl::Fleet> fleet;
  std::optional<fl::QuerySession> session;
  /// Median over WorkloadSpec::setup_reps, measured and reference-host.
  double raw_setup_seconds = 0.0;
  double setup_seconds = 0.0;
};

/// Build the fleet and its session `setup_reps` times, timing each build;
/// keep the last one.
Result<Deployment> SetUp(const WorkloadSpec& spec) {
  data::AirQualityGenerator generator(spec.data);
  QENS_ASSIGN_OR_RETURN(std::vector<data::Dataset> node_data,
                        generator.GenerateAll());
  Deployment deployment;
  HostCalibration calibration;
  std::vector<double> times;
  for (size_t rep = 0; rep < spec.setup_reps; ++rep) {
    std::vector<data::Dataset> input = node_data;
    deployment.session.reset();
    deployment.fleet.reset();
    const Clock::time_point start = Clock::now();
    QENS_ASSIGN_OR_RETURN(std::shared_ptr<fl::Fleet> fleet,
                          fl::Fleet::Create(std::move(input), spec.federation));
    fl::QuerySessionOptions session_options;
    session_options.network.record_messages = false;
    QENS_ASSIGN_OR_RETURN(fl::QuerySession session,
                          fl::QuerySession::Create(fleet, session_options));
    times.push_back(SecondsSince(start));
    calibration.Add(times.back());
    deployment.fleet = std::move(fleet);
    deployment.session.emplace(std::move(session));
  }
  deployment.raw_setup_seconds = Percentile(times, 0.5);
  deployment.setup_seconds = Percentile(calibration.Scaled(), 0.5);
  return deployment;
}

/// Issue one query to the session. Returns false when it failed (error or
/// unanswered).
bool Serve(fl::QuerySession* session, const WorkloadSpec& spec,
           Issued* issued) {
  Result<QueryOutcome> outcome = session->RunQueryMultiRound(
      issued->query, selection::PolicyKind::kQueryDriven,
      /*data_selectivity=*/true, spec.rounds);
  if (!outcome.ok()) {
    std::fprintf(stderr, "query %llu failed: %s\n",
                 static_cast<unsigned long long>(issued->query.id),
                 outcome.status().ToString().c_str());
    return false;
  }
  issued->digest = DigestOf(*outcome);
  return !outcome->skipped && FiniteAnswer(*outcome);
}

/// Replay `issued` and compare with the session's answer.
bool ReplayMatches(LayerReplay* replay, const WorkloadSpec& spec,
                   const Issued& issued) {
  Result<QueryOutcome> outcome = replay->Run(issued.query, spec.rounds);
  if (!outcome.ok()) {
    std::fprintf(stderr, "replay of query %llu failed: %s\n",
                 static_cast<unsigned long long>(issued.query.id),
                 outcome.status().ToString().c_str());
    return false;
  }
  if (!(DigestOf(*outcome) == issued.digest)) {
    std::fprintf(stderr, "replay of query %llu diverged from the session\n",
                 static_cast<unsigned long long>(issued.query.id));
    return false;
  }
  return true;
}

constexpr size_t kWarmupQueries = 4;
constexpr size_t kVerifiedQueries = 32;

int Main(int argc, char** argv) {
  Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "query_bench: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const Args args = *parsed;
  Result<WorkloadSpec> made = MakeSpec(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "query_bench: %s\n", made.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec spec = *made;
  Result<Deployment> deployed = SetUp(spec);
  if (!deployed.ok()) {
    std::fprintf(stderr, "query_bench: set-up failed: %s\n",
                 deployed.status().ToString().c_str());
    return 1;
  }
  Deployment& deployment = *deployed;
  fl::QuerySession& session = *deployment.session;
  query::WorkloadGenerator stream(deployment.fleet->raw_space, spec.queries);
  LayerReplay replay(deployment.fleet);

  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  auto next = [&]() -> std::optional<Issued> {
    Result<query::RangeQuery> query = stream.Next();
    if (!query.ok()) {
      std::fprintf(stderr, "query generation failed: %s\n",
                   query.status().ToString().c_str());
      return std::nullopt;
    }
    return Issued{std::move(query).value(), {}};
  };

  // Warm-up: let lazy state and caches settle; these queries are checked
  // but not timed.
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    std::optional<Issued> issued = next();
    if (!issued.has_value()) return 1;
    if (!Serve(&session, spec, &*issued) ||
        !ReplayMatches(&replay, spec, *issued)) {
      correct = false;
    }
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    std::vector<Issued> served;
    HostCalibration calibration;
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < args.seconds) {
      std::optional<Issued> issued = next();
      if (!issued.has_value()) return 1;
      const Clock::time_point sent = Clock::now();
      const bool ok = Serve(&session, spec, &*issued);
      calibration.Add(SecondsSince(sent));
      ++attempted;
      if (!ok) ++failed;
      served.push_back(std::move(*issued));
    }
    const std::vector<double> latencies = calibration.Scaled();
    std::fprintf(stderr,
                 "measured set-up %.6f s; reference-host set-up %.6f s, "
                 "p50 %.4f ms, p90 %.4f ms, %.2f queries/s\n",
                 deployment.raw_setup_seconds, deployment.setup_seconds,
                 1e3 * Percentile(latencies, 0.5),
                 1e3 * Percentile(latencies, 0.9), attempted / Sum(latencies));
    // Replay the first queries and an even spread of the rest.
    const size_t stride =
        std::max<size_t>(1, served.size() / kVerifiedQueries);
    for (size_t i = 0; i < served.size(); i += (i < 8 ? 1 : stride)) {
      if (!ReplayMatches(&replay, spec, served[i])) correct = false;
    }
    metrics = {
        {"latency_p50_ms", 1e3 * Percentile(latencies, 0.5), "ms"},
        {"latency_p90_ms", 1e3 * Percentile(latencies, 0.9), "ms"},
        {"queries_per_s", static_cast<double>(attempted) / Sum(latencies),
         "1/s"},
        {"setup_s", deployment.setup_seconds, "s"},
    };
  } else {
    const LayerTotals before = replay.totals();
    HostCalibration calibration;
    double program_seconds = 0.0;
    double measured_seconds = 0.0;
    uint64_t program_allocs = 0;
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < args.seconds) {
      std::optional<Issued> issued = next();
      if (!issued.has_value()) return 1;
      const Clock::time_point sent = Clock::now();
      bool ok = false;
      {
        AllocWindow allocs;
        ok = Serve(&session, spec, &*issued);
        program_allocs += allocs.count();
      }
      program_seconds += SecondsSince(sent);
      ++attempted;
      if (!ok) ++failed;
      if (!ReplayMatches(&replay, spec, *issued)) correct = false;
      const double seconds = SecondsSince(sent);
      calibration.Add(seconds);
      measured_seconds += seconds;
    }
    const LayerTotals& after = replay.totals();
    // Layer times are reported in reference-host units, like latencies.
    const double scale = Sum(calibration.Scaled()) / measured_seconds;
    const double queries = static_cast<double>(std::max<size_t>(1, attempted));
    double layered = 0.0;
    for (int l = 0; l < kNumLayers; ++l) {
      const double s = after.seconds[l] - before.seconds[l];
      layered += s;
      metrics.push_back({std::string(kLayerNames[l]) + "_us",
                         1e6 * scale * s / queries, "us"});
    }
    const double replay_s = after.replay_seconds - before.replay_seconds;
    const double train_s = after.seconds[kTrain] - before.seconds[kTrain];
    const double samples =
        static_cast<double>(after.samples_seen - before.samples_seen);
    const double batches = static_cast<double>(after.batches - before.batches);
    metrics.push_back(
        {"glue_us", 1e6 * scale * (replay_s - layered) / queries, "us"});
    metrics.push_back({"train_share", train_s / replay_s, "ratio"});
    metrics.push_back(
        {"train_ns_per_sample", 1e9 * scale * train_s / std::max(1.0, samples),
         "ns"});
    metrics.push_back({"samples_per_query", samples / queries, "count"});
    metrics.push_back({"batches_per_query", batches / queries, "count"});
    metrics.push_back(
        {"fits_per_query",
         static_cast<double>(after.fits - before.fits) / queries, "count"});
    metrics.push_back(
        {"train_allocs_per_batch",
         static_cast<double>(after.train_allocs - before.train_allocs) /
             std::max(1.0, batches),
         "count"});
    metrics.push_back({"allocs_per_query",
                       static_cast<double>(program_allocs) / queries, "count"});
    metrics.push_back(
        {"bytes_per_query",
         static_cast<double>(after.bytes - before.bytes) / queries, "B"});
    metrics.push_back({"replay_overhead", replay_s / program_seconds, "ratio"});
  }
  PrintResult(correct && failed == 0, std::max<size_t>(1, attempted), failed,
              metrics);
  return 0;
}

}  // namespace
}  // namespace qens::perfbench

int main(int argc, char** argv) { return qens::perfbench::Main(argc, argv); }
