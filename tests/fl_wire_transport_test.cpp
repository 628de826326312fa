// Tests for the wire codec running through the serving stack: planner
// estimates pinned exactly against transport counters (single- and
// multi-round), and raw-wire runs identical to wire-off runs in losses and
// in bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "qens/common/rng.h"
#include "qens/fl/planner.h"
#include "qens/fl/query_session.h"
#include "qens/ml/model_codec.h"

namespace qens::fl {
namespace {

query::RangeQuery MakeQuery(double lo, double hi) {
  query::RangeQuery q;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

data::Dataset MakeNodeData(double offset, uint64_t seed) {
  Rng r(seed);
  Matrix x(200, 1), y(200, 1);
  for (size_t i = 0; i < 200; ++i) {
    x(i, 0) = offset + r.Uniform(0, 10);
    y(i, 0) = 2 * x(i, 0) + r.Gaussian(0, 0.1);
  }
  return data::Dataset::Create(x, y).value();
}

FederationOptions BaseOptions() {
  FederationOptions fed_options;
  fed_options.environment.kmeans.k = 3;
  fed_options.ranking.epsilon = 0.1;
  fed_options.query_driven.top_l = 2;
  fed_options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  fed_options.hyper.epochs = 10;
  fed_options.epochs_per_cluster = 5;
  fed_options.seed = 9;
  return fed_options;
}

PlannerOptions MatchingPlanOptions(const FederationOptions& fed_options) {
  PlannerOptions plan_options;
  plan_options.ranking = fed_options.ranking;
  plan_options.selection = fed_options.query_driven;
  plan_options.epochs_per_cluster = fed_options.epochs_per_cluster;
  plan_options.hyper = fed_options.hyper;
  plan_options.wire = fed_options.wire;
  return plan_options;
}

/// Runs one query-driven query under `fed_options` on a session-private
/// network and returns {outcome, recorded down bytes, recorded up bytes,
/// planner est_comm_bytes, selected-node count}.
struct WireRunResult {
  QueryOutcome outcome;
  size_t down_bytes = 0;
  size_t up_bytes = 0;
  size_t est_comm_bytes = 0;
  size_t nodes = 0;
  size_t messages = 0;
};

WireRunResult RunPinned(const FederationOptions& fed_options, size_t rounds) {
  WireRunResult out;
  auto fleet = Fleet::Create(
      {MakeNodeData(0, 1), MakeNodeData(0, 2), MakeNodeData(50, 3)},
      fed_options);
  EXPECT_TRUE(fleet.ok());
  auto session = QuerySession::Create(*fleet, QuerySessionOptions{});
  EXPECT_TRUE(session.ok());

  query::RangeQuery q = MakeQuery(0, 10);
  auto internal = (*fleet)->InternalQuery(q);
  EXPECT_TRUE(internal.ok());
  auto profiles = (*fleet)->environment.Profiles();
  EXPECT_TRUE(profiles.ok());
  auto plan = PlanQuery(*profiles, {}, *internal,
                        MatchingPlanOptions(fed_options));
  EXPECT_TRUE(plan.ok());
  EXPECT_TRUE(plan->executable);

  auto outcome = session->RunQueryMultiRound(
      q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true,
      rounds);
  EXPECT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->skipped);

  const sim::Network& network = session->network();
  out.outcome = *outcome;
  out.down_bytes = network.BytesWithTag("model-down");
  out.up_bytes = network.BytesWithTag("model-up");
  out.est_comm_bytes = plan->est_comm_bytes;
  out.nodes = plan->nodes.size();
  out.messages = network.total_messages();
  return out;
}

TEST(WireTransportTest, RawWirePinsPlannedBytesExactly) {
  // With the binary codec both directions are architecture-determined, so
  // the planner's est_comm_bytes must equal recorded down + up EXACTLY —
  // including the up-link, priced before any node trains.
  FederationOptions fed_options = BaseOptions();
  fed_options.wire.enabled = true;
  fed_options.wire.codec = ml::WireCodecKind::kRawF64;
  WireRunResult r = RunPinned(fed_options, /*rounds=*/1);
  ASSERT_GT(r.nodes, 0u);
  EXPECT_EQ(r.down_bytes + r.up_bytes, r.est_comm_bytes);
  // Raw is symmetric: same header, same 8-byte payload per param.
  EXPECT_EQ(r.down_bytes, r.up_bytes);
  EXPECT_EQ(r.messages, 2 * r.nodes);
}

TEST(WireTransportTest, QuantizedWirePinsPlannedBytesExactly) {
  // The NN model (64-unit hidden layer) gives the codec real tensors to
  // compress; the 2-param LR model is all per-tensor scale overhead.
  FederationOptions fed_options = BaseOptions();
  fed_options.hyper = ml::PaperHyperParams(ml::ModelKind::kNeuralNetwork);
  fed_options.hyper.epochs = 10;
  fed_options.wire.enabled = true;
  fed_options.wire.codec = ml::WireCodecKind::kQuant8;
  WireRunResult r = RunPinned(fed_options, /*rounds=*/1);
  ASSERT_GT(r.nodes, 0u);
  EXPECT_EQ(r.down_bytes + r.up_bytes, r.est_comm_bytes);
  EXPECT_EQ(r.down_bytes, r.up_bytes);  // Same codec both directions.
  // Quantized traffic must be well under raw: 1 byte/param + scales vs 8.
  FederationOptions raw_options = fed_options;
  raw_options.wire.codec = ml::WireCodecKind::kRawF64;
  WireRunResult raw = RunPinned(raw_options, /*rounds=*/1);
  EXPECT_LT(4 * r.down_bytes, raw.down_bytes);
  // And the answer stays usable.
  EXPECT_TRUE(std::isfinite(r.outcome.loss_weighted));
}

TEST(WireTransportTest, MultiRoundRecordedBytesAreRoundsTimesPlan) {
  // The plan prices one round; with architecture-determined sizes every
  // round costs the same, so R rounds record exactly R x est_comm_bytes.
  for (ml::WireCodecKind codec :
       {ml::WireCodecKind::kRawF64, ml::WireCodecKind::kQuant4}) {
    FederationOptions fed_options = BaseOptions();
    fed_options.wire.enabled = true;
    fed_options.wire.codec = codec;
    const size_t rounds = 3;
    WireRunResult r = RunPinned(fed_options, rounds);
    ASSERT_GT(r.nodes, 0u);
    EXPECT_EQ(r.down_bytes + r.up_bytes, rounds * r.est_comm_bytes)
        << ml::WireCodecKindName(codec);
    EXPECT_EQ(r.messages, rounds * 2 * r.nodes);
  }
}

TEST(WireTransportTest, TopKUplinkCheaperAndPinned) {
  FederationOptions fed_options = BaseOptions();
  fed_options.hyper = ml::PaperHyperParams(ml::ModelKind::kNeuralNetwork);
  fed_options.hyper.epochs = 10;
  fed_options.wire.enabled = true;
  fed_options.wire.codec = ml::WireCodecKind::kTopK;
  fed_options.wire.top_k_fraction = 0.25;
  WireRunResult r = RunPinned(fed_options, /*rounds=*/1);
  ASSERT_GT(r.nodes, 0u);
  EXPECT_EQ(r.down_bytes + r.up_bytes, r.est_comm_bytes);
  // Down falls back to raw (absolute broadcast); up is the sparse delta.
  EXPECT_LT(r.up_bytes, r.down_bytes);
  EXPECT_TRUE(std::isfinite(r.outcome.loss_weighted));
}

TEST(WireTransportTest, RawWireRunIsBitIdenticalToWireOff) {
  // kRawF64 skips the lossy decode(encode(.)) round-trips entirely, and
  // wire-off accounting prices every transfer at the raw size, so the two
  // runs must agree bit for bit in losses and training volume and byte for
  // byte in traffic.
  FederationOptions off_options = BaseOptions();
  FederationOptions raw_options = BaseOptions();
  raw_options.wire.enabled = true;
  raw_options.wire.codec = ml::WireCodecKind::kRawF64;
  WireRunResult off = RunPinned(off_options, /*rounds=*/2);
  WireRunResult raw = RunPinned(raw_options, /*rounds=*/2);
  EXPECT_EQ(off.outcome.selected_nodes, raw.outcome.selected_nodes);
  EXPECT_EQ(off.outcome.samples_used, raw.outcome.samples_used);
  EXPECT_EQ(off.outcome.loss_model_avg, raw.outcome.loss_model_avg);
  EXPECT_EQ(off.outcome.loss_weighted, raw.outcome.loss_weighted);
  EXPECT_EQ(off.outcome.loss_fedavg, raw.outcome.loss_fedavg);
  EXPECT_EQ(off.messages, raw.messages);
  EXPECT_EQ(off.down_bytes, raw.down_bytes);
  EXPECT_EQ(off.up_bytes, raw.up_bytes);
  EXPECT_EQ(off.est_comm_bytes, raw.est_comm_bytes);
  EXPECT_EQ(off.outcome.sim_time_comm, raw.outcome.sim_time_comm);
}

}  // namespace
}  // namespace qens::fl
