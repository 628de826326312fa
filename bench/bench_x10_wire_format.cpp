// X10: the binary wire format — quality vs bytes on the air-quality
// workload, swept over the payload codecs (raw f64, 8/4/2-bit quantized,
// top-k sparsified), plus the exact closed-form-vs-network byte pinning
// the architecture-determined sizes make possible.
//
// The correctness contract is asserted BEFORE anything is reported: for
// every run, wire off included, the sum over the executed queries of
// (selected nodes x (down size + up size)), with both sizes from the
// codec's closed form, must equal the bytes the session's network actually
// recorded (model-down + model-up tags), EXACTLY — every size is
// architecture-determined, so a query's traffic is known to the byte
// before a single node is engaged. The bench dies on any mismatch.
// With the wire layer off, transfers are priced at the raw codec's size,
// so the "off" and "raw" rows move the same bytes.
//
// Workload: the Section V-A air-quality deployment (10 stations,
// heterogeneous regime, K = 5) serving range queries with the NN model —
// the 64-unit hidden layer gives the codec real tensors to compress; a
// 2-param LR model is all header and per-tensor scale overhead.
//
// Sections:
//   sweep   — per codec: avg loss (raw PM2.5 units), recorded down/up
//             bytes, reduction_vs_raw, rel_loss_vs_raw.
//   pinning — per run: expected vs recorded bytes (asserted equal).
//
// Every record carries values["queries"] (tools/check_bench_json.py
// enforces this).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "qens/common/rng.h"
#include "qens/ml/model_codec.h"
#include "qens/ml/model_factory.h"
#include "qens/ml/model_io.h"
#include "qens/query/workload_generator.h"

namespace qens::bench {
namespace {

constexpr size_t kQueries = 16;
constexpr uint64_t kSeed = 2023;
constexpr double kTopKFraction = 0.1;

fl::FederationOptions BaseFederation() {
  fl::FederationOptions options;
  options.environment.kmeans.k = 5;
  options.ranking.epsilon = 0.15;
  options.query_driven.top_l = 3;
  options.hyper = ml::PaperHyperParams(ml::ModelKind::kNeuralNetwork);
  options.hyper.epochs = 40;  // Scaled from 100 for bench runtime.
  options.epochs_per_cluster = 5;
  options.test_fraction = 0.2;
  options.seed = kSeed + 1;
  return options;
}

std::vector<data::Dataset> MakeStations() {
  data::AirQualityOptions options;
  options.num_stations = 10;
  options.samples_per_station = 1500;
  options.heterogeneity = data::Heterogeneity::kHeterogeneous;
  options.seed = kSeed;
  options.single_feature = true;
  data::AirQualityGenerator generator(options);
  return ValueOrDie(generator.GenerateAll(), "generate stations");
}

struct CodecRun {
  std::string label;       ///< "off" or the codec name.
  bool wire_on = false;
  ml::WireCodecKind codec = ml::WireCodecKind::kRawF64;
  // Measured:
  size_t queries_run = 0;
  size_t queries_skipped = 0;
  double avg_loss = 0.0;        ///< Raw PM2.5 units, weighted aggregation.
  size_t down_bytes = 0;        ///< Network "model-down" total.
  size_t up_bytes = 0;          ///< Network "model-up" total.
  size_t expected_bytes = 0;    ///< Closed-form bytes over run queries.
};

CodecRun RunCodec(const std::string& label, bool wire_on,
                  ml::WireCodecKind codec,
                  const std::vector<data::Dataset>& stations,
                  const std::vector<query::RangeQuery>& queries) {
  CodecRun run;
  run.label = label;
  run.wire_on = wire_on;
  run.codec = codec;

  fl::FederationOptions fed_options = BaseFederation();
  fed_options.wire.enabled = wire_on;
  fed_options.wire.codec = codec;
  fed_options.wire.top_k_fraction = kTopKFraction;
  auto fleet = ValueOrDie(fl::Fleet::Create(stations, fed_options), "fleet");
  auto session = ValueOrDie(
      fl::QuerySession::Create(fleet, fl::QuerySessionOptions{}), "session");

  // One engaged node's down + up bytes per round, from the closed-form
  // sizes of the trained architecture (raw binary64 with the wire off).
  Rng arch_rng(0);
  const ml::SequentialModel arch = ValueOrDie(
      ml::BuildModel(fed_options.hyper, stations[0].NumFeatures(), &arch_rng),
      "architecture");
  const ml::WireOptions& wire = fed_options.wire;
  const size_t node_bytes =
      wire_on ? ml::EncodedModelBytes(arch, ml::DownlinkKind(wire),
                                      wire.top_k_fraction) +
                    ml::EncodedModelBytes(arch, ml::UplinkKind(wire),
                                          wire.top_k_fraction)
              : 2 * ml::SerializedModelBytes(arch);

  stats::RunningStats losses;
  for (const query::RangeQuery& q : queries) {
    auto outcome = ValueOrDie(
        session.RunQuery(q, selection::PolicyKind::kQueryDriven,
                         /*data_selectivity=*/true),
        "run query");
    if (outcome.skipped) {
      ++run.queries_skipped;
      continue;
    }
    ++run.queries_run;
    run.expected_bytes += outcome.selected_nodes.size() * node_bytes;
    losses.Add(outcome.loss_weighted);  // Already in raw units.
  }
  run.avg_loss = losses.mean();
  run.down_bytes = session.network().BytesWithTag("model-down");
  run.up_bytes = session.network().BytesWithTag("model-up");
  return run;
}

}  // namespace
}  // namespace qens::bench

int main(int argc, char** argv) {
  using namespace qens;
  using namespace qens::bench;

  BenchJson json("bench_x10_wire_format", &argc, argv);
  PrintHeader("X10: binary wire format (quality vs bytes, exact pinning)");

  const std::vector<data::Dataset> stations = MakeStations();

  // Workload over the pooled raw data space (the fleet's raw_space is the
  // same for every codec: the wire layer never touches the data path).
  fl::FederationOptions probe_options = BaseFederation();
  auto probe_fleet =
      ValueOrDie(fl::Fleet::Create(stations, probe_options), "probe fleet");
  query::WorkloadOptions workload_options;
  workload_options.num_queries = kQueries;
  workload_options.min_width_frac = 0.15;
  workload_options.max_width_frac = 0.5;
  workload_options.seed = kSeed + 2;
  query::WorkloadGenerator generator(probe_fleet->raw_space,
                                     workload_options);
  const std::vector<query::RangeQuery> queries =
      ValueOrDie(generator.Generate(), "generate workload");

  std::vector<CodecRun> runs;
  runs.push_back(RunCodec("off", false, ml::WireCodecKind::kRawF64, stations,
                          queries));
  for (ml::WireCodecKind codec :
       {ml::WireCodecKind::kRawF64, ml::WireCodecKind::kQuant8,
        ml::WireCodecKind::kQuant4, ml::WireCodecKind::kQuant2,
        ml::WireCodecKind::kTopK}) {
    runs.push_back(RunCodec(ml::WireCodecKindName(codec), true, codec,
                            stations, queries));
  }

  // Contract: expected bytes == recorded bytes, to the byte.
  for (const CodecRun& run : runs) {
    const size_t recorded = run.down_bytes + run.up_bytes;
    if (recorded != run.expected_bytes) {
      std::fprintf(stderr,
                   "FATAL: codec %s expected %zu bytes but transport "
                   "recorded %zu\n",
                   run.label.c_str(), run.expected_bytes, recorded);
      return 1;
    }
  }

  const CodecRun* raw = nullptr;
  for (const CodecRun& run : runs) {
    if (run.wire_on && run.codec == ml::WireCodecKind::kRawF64) raw = &run;
  }

  std::printf("\n%-6s %12s %14s %14s %12s %12s\n", "codec", "avg_loss",
              "down_bytes", "up_bytes", "down_x", "rel_loss");
  for (const CodecRun& run : runs) {
    const double down_x =
        run.down_bytes > 0
            ? static_cast<double>(raw->down_bytes) / run.down_bytes
            : 0.0;
    const double rel_loss =
        raw->avg_loss > 0 ? (run.avg_loss - raw->avg_loss) / raw->avg_loss
                          : 0.0;
    std::printf("%-6s %12.4f %14zu %14zu %11.2fx %11.4f%%\n",
                run.label.c_str(), run.avg_loss, run.down_bytes, run.up_bytes,
                down_x, 100.0 * rel_loss);

    BenchRecord sweep;
    sweep.name = "sweep/" + run.label;
    sweep.labels["section"] = "sweep";
    sweep.labels["codec"] = run.label;
    sweep.values["queries"] = static_cast<double>(run.queries_run);
    sweep.values["queries_skipped"] =
        static_cast<double>(run.queries_skipped);
    sweep.values["avg_loss"] = run.avg_loss;
    sweep.values["down_bytes"] = static_cast<double>(run.down_bytes);
    sweep.values["up_bytes"] = static_cast<double>(run.up_bytes);
    sweep.values["reduction_vs_raw"] = down_x;
    sweep.values["rel_loss_vs_raw"] = rel_loss;
    json.Add(std::move(sweep));

    BenchRecord pin;
    pin.name = "pinning/" + run.label;
    pin.labels["section"] = "pinning";
    pin.labels["codec"] = run.label;
    pin.labels["exact"] =
        run.expected_bytes == run.down_bytes + run.up_bytes ? "yes" : "no";
    pin.values["queries"] = static_cast<double>(run.queries_run);
    pin.values["expected_bytes"] = static_cast<double>(run.expected_bytes);
    pin.values["recorded_bytes"] =
        static_cast<double>(run.down_bytes + run.up_bytes);
    json.Add(std::move(pin));
  }

  std::printf(
      "\npinning: every run's expected bytes matched the transport "
      "exactly.\n");

  json.WriteOrDie();
  return 0;
}
