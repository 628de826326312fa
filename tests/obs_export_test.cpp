// Round-trip tests for the observability exporters: RoundRecord JSONL and
// MetricsSnapshot JSON. Export -> parse must reproduce every field exactly:
// doubles bit for bit (NaN as NaN), counts over their whole range.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "qens/obs/export.h"
#include "qens/obs/json.h"
#include "qens/obs/metrics.h"
#include "qens/obs/round_record.h"

namespace qens::obs {
namespace {

std::vector<RoundRecord> SampleRecords() {
  RoundRecord first;
  first.query_id = 42;
  first.round = 0;
  first.policy = "query_driven";
  first.aggregation = "fedavg";
  first.engaged = 3;
  first.survivors = 2;
  first.quorum_met = true;
  first.parallel_seconds = 0.125;
  first.total_train_seconds = 0.3;
  first.comm_seconds = 0.0421875;
  first.nodes = {
      {0, NodeFate::kCompleted, 0.15, 0.02, 120, false},
      {3, NodeFate::kCompleted, 0.15, 0.0221875, 96, true},
      {5, NodeFate::kUnavailable, 0.0, 0.0, 0, false},
  };

  RoundRecord second;
  second.session = 3;  // Tagged: served by QueryServer session 3.
  second.query_id = 42;
  second.round = 1;
  second.policy = "query_driven";
  second.aggregation = "ensemble";
  // Every schema field below holds a distinct non-default value, so a
  // swapped, dropped or mis-typed column fails the round trips and pins.
  second.engaged = 11;
  second.survivors = 7;
  second.rejected = 6;
  second.quarantined = 4;
  second.wire_down_bytes = 1024;  // Wire layer on: codec-priced transfers.
  second.wire_up_bytes = 212;
  second.fleet_epoch = 13;  // Dynamic fleet on: churn and refreshes.
  second.nodes_joined = 14;
  second.nodes_left = 15;
  second.refreshes = 16;
  second.stale_rounds = 17;
  second.query_class = "interactive";  // Served by the request pipeline.
  second.vt_queue_seconds = 0.0625;
  second.vt_latency_seconds = 0.6875;
  second.quorum_met = false;
  second.parallel_seconds = 0.5;
  second.total_train_seconds = 0.6;
  second.comm_seconds = 0.01;
  second.has_loss = true;
  second.loss = 123.456789012345;
  second.nodes = {
      {0, NodeFate::kMissedDeadline, 0.45, 0.01, 120, true},
      {3, NodeFate::kRejected, 0.15, 0.0, 96, false},
      {5, NodeFate::kQuarantined, 0.0, 0.0, 0, false},
      {7, NodeFate::kCompleted, 0.0, 0.0, 88, false},
  };
  return {first, second};
}

/// Same bits, or both NaN: the exporters carry every double exactly.
bool SameDouble(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

#define EXPECT_SAME_DOUBLE(a, b) EXPECT_PRED2(SameDouble, a, b)

void ExpectRecordsEqual(const RoundRecord& a, const RoundRecord& b) {
  EXPECT_EQ(a.session, b.session);
  EXPECT_EQ(a.query_id, b.query_id);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.aggregation, b.aggregation);
  EXPECT_EQ(a.engaged, b.engaged);
  EXPECT_EQ(a.survivors, b.survivors);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.wire_down_bytes, b.wire_down_bytes);
  EXPECT_EQ(a.wire_up_bytes, b.wire_up_bytes);
  EXPECT_EQ(a.fleet_epoch, b.fleet_epoch);
  EXPECT_EQ(a.nodes_joined, b.nodes_joined);
  EXPECT_EQ(a.nodes_left, b.nodes_left);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.stale_rounds, b.stale_rounds);
  EXPECT_EQ(a.query_class, b.query_class);
  EXPECT_SAME_DOUBLE(a.vt_queue_seconds, b.vt_queue_seconds);
  EXPECT_SAME_DOUBLE(a.vt_latency_seconds, b.vt_latency_seconds);
  EXPECT_EQ(a.quorum_met, b.quorum_met);
  EXPECT_SAME_DOUBLE(a.parallel_seconds, b.parallel_seconds);
  EXPECT_SAME_DOUBLE(a.total_train_seconds, b.total_train_seconds);
  EXPECT_SAME_DOUBLE(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.has_loss, b.has_loss);
  if (a.has_loss && b.has_loss) {
    EXPECT_SAME_DOUBLE(a.loss, b.loss);
  }
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].node_id, b.nodes[i].node_id);
    EXPECT_EQ(a.nodes[i].fate, b.nodes[i].fate);
    EXPECT_SAME_DOUBLE(a.nodes[i].train_seconds, b.nodes[i].train_seconds);
    EXPECT_SAME_DOUBLE(a.nodes[i].comm_seconds, b.nodes[i].comm_seconds);
    EXPECT_EQ(a.nodes[i].samples_used, b.nodes[i].samples_used);
    EXPECT_EQ(a.nodes[i].straggler, b.nodes[i].straggler);
  }
}

TEST(NodeFateTest, NamesRoundTrip) {
  for (NodeFate fate :
       {NodeFate::kCompleted, NodeFate::kUnavailable, NodeFate::kSendFailed,
        NodeFate::kMissedDeadline, NodeFate::kRejected,
        NodeFate::kQuarantined}) {
    auto parsed = ParseNodeFate(NodeFateName(fate));
    ASSERT_TRUE(parsed.ok()) << NodeFateName(fate);
    EXPECT_EQ(*parsed, fate);
  }
  EXPECT_FALSE(ParseNodeFate("exploded").ok());
}

TEST(RoundRecordJsonlTest, RoundTripsExactly) {
  const std::vector<RoundRecord> records = SampleRecords();
  const std::string jsonl = RoundRecordsToJsonl(records);
  auto parsed = ParseRoundRecordsJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectRecordsEqual(records[i], (*parsed)[i]);
  }
}

TEST(RoundRecordJsonlTest, SessionFieldOnlyEmittedWhenTagged) {
  // Untagged (sequential Federation) records must serialize byte-identically
  // to the pre-serving schema; tagged records carry the session id.
  const std::vector<RoundRecord> records = SampleRecords();
  EXPECT_EQ(RoundRecordToJson(records[0]).find("\"session\""),
            std::string::npos);
  EXPECT_NE(RoundRecordToJson(records[1]).find("\"session\":3"),
            std::string::npos);
  // Same nonzero-only rule for the wire-layer byte counters (wire off =
  // pre-wire schema).
  EXPECT_EQ(RoundRecordToJson(records[0]).find("wire_down_bytes"),
            std::string::npos);
  EXPECT_NE(RoundRecordToJson(records[1]).find("\"wire_down_bytes\":1024"),
            std::string::npos);
  EXPECT_NE(RoundRecordToJson(records[1]).find("\"wire_up_bytes\":212"),
            std::string::npos);
  // And for the serving-pipeline fields (batch Serve / sequential
  // Federation records keep the pre-pipeline schema byte-identical).
  EXPECT_EQ(RoundRecordToJson(records[0]).find("query_class"),
            std::string::npos);
  EXPECT_EQ(RoundRecordToJson(records[0]).find("vt_queue_seconds"),
            std::string::npos);
  EXPECT_EQ(RoundRecordToJson(records[0]).find("vt_latency_seconds"),
            std::string::npos);
  EXPECT_NE(
      RoundRecordToJson(records[1]).find("\"query_class\":\"interactive\""),
      std::string::npos);
  EXPECT_NE(RoundRecordToJson(records[1]).find("\"vt_queue_seconds\":0.0625"),
            std::string::npos);
  EXPECT_NE(
      RoundRecordToJson(records[1]).find("\"vt_latency_seconds\":0.6875"),
      std::string::npos);
}

TEST(RoundRecordJsonlTest, OneObjectPerLine) {
  const std::string jsonl = RoundRecordsToJsonl(SampleRecords());
  size_t lines = 0;
  for (char c : jsonl) lines += (c == '\n');
  EXPECT_EQ(lines, 2u);
}

TEST(RoundRecordJsonlTest, EmptyAndMalformedInput) {
  auto empty = ParseRoundRecordsJsonl("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(ParseRoundRecordJson("not json").ok());
  EXPECT_FALSE(ParseRoundRecordJson("[1,2,3]").ok());
}

// Exact bytes of SampleRecords(). Downstream tools parse these files, so any
// difference here is a schema change: keys sorted, zero-valued optional
// counters omitted, numbers in the shortest round-tripping form.
constexpr char kSampleJsonl[] =
    R"({"aggregation":"fedavg","comm_seconds":0.0421875,"engaged":3,)"
    R"("nodes":[{"comm_seconds":0.02,"fate":"completed","node_id":0,)"
    R"("samples_used":120,"straggler":false,"train_seconds":0.15},)"
    R"({"comm_seconds":0.0221875,"fate":"completed","node_id":3,)"
    R"("samples_used":96,"straggler":true,"train_seconds":0.15},)"
    R"({"comm_seconds":0,"fate":"unavailable","node_id":5,)"
    R"("samples_used":0,"straggler":false,"train_seconds":0}],)"
    R"("parallel_seconds":0.125,"policy":"query_driven",)"
    R"("query_id":42,"quorum_met":true,"round":0,"survivors":2,)"
    R"("total_train_seconds":0.3})" "\n"
    R"({"aggregation":"ensemble","comm_seconds":0.01,"engaged":11,)"
    R"("fleet_epoch":13,"loss":123.456789012345,)"
    R"("nodes":[{"comm_seconds":0.01,"fate":"missed_deadline",)"
    R"("node_id":0,"samples_used":120,"straggler":true,)"
    R"("train_seconds":0.45},{"comm_seconds":0,"fate":"rejected",)"
    R"("node_id":3,"samples_used":96,"straggler":false,)"
    R"("train_seconds":0.15},{"comm_seconds":0,"fate":"quarantined",)"
    R"("node_id":5,"samples_used":0,"straggler":false,)"
    R"("train_seconds":0},{"comm_seconds":0,"fate":"completed",)"
    R"("node_id":7,"samples_used":88,"straggler":false,)"
    R"("train_seconds":0}],"nodes_joined":14,"nodes_left":15,)"
    R"("parallel_seconds":0.5,"policy":"query_driven",)"
    R"("quarantined":4,"query_class":"interactive","query_id":42,)"
    R"("quorum_met":false,"refreshes":16,"rejected":6,"round":1,"session":3,)"
    R"("stale_rounds":17,"survivors":7,"total_train_seconds":0.6,)"
    R"("vt_latency_seconds":0.6875,"vt_queue_seconds":0.0625,)"
    R"("wire_down_bytes":1024,"wire_up_bytes":212})" "\n";

TEST(RoundRecordExportTest, OutputIsBytePinned) {
  EXPECT_EQ(RoundRecordsToJsonl(SampleRecords()), kSampleJsonl);
}

TEST(RoundRecordJsonlTest, RejectsCountsTheMemberCannotHold) {
  // A count is read from its number's literal as one whole token: a
  // negative, fractional, exponent-form or too-large number is refused,
  // never rounded or wrapped, and the error names the field.
  const std::string good = RoundRecordToJson(SampleRecords()[0]);
  ASSERT_TRUE(ParseRoundRecordJson(good).ok());
  struct Case {
    const char* from;
    const char* to;
    const char* field;
  };
  const Case cases[] = {
      {"\"engaged\":3", "\"engaged\":-1", "engaged"},
      {"\"query_id\":42", "\"query_id\":1e999", "query_id"},
      {"\"query_id\":42", "\"query_id\":-1e999", "query_id"},
      {"\"round\":0", "\"round\":0.5", "round"},
      {"\"survivors\":2", "\"survivors\":18446744073709551616", "survivors"},
      {"\"query_id\":42", "\"query_id\":42,\"session\":-3", "session"},
      {"\"query_id\":42", "\"query_id\":42,\"rejected\":1e300", "rejected"},
      {"\"node_id\":3", "\"node_id\":-1", "node_id"},
      {"\"samples_used\":96", "\"samples_used\":1.5", "samples_used"},
      {"\"engaged\":3", "\"engaged\":1e3", "engaged"},
      {"\"engaged\":3", "\"engaged\":42.0", "engaged"},
      {"\"engaged\":3", "\"engaged\":-0", "engaged"},
      {"\"engaged\":3", "\"engaged\":\"3\"", "engaged"},
  };
  for (const Case& c : cases) {
    std::string line = good;
    const size_t at = line.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from;
    line.replace(at, std::strlen(c.from), c.to);
    auto parsed = ParseRoundRecordJson(line);
    ASSERT_FALSE(parsed.ok()) << c.to;
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find(c.field), std::string::npos)
        << parsed.status().ToString();
  }
  // Every 64-bit count is exact, past 2^53 and up to the maximum.
  for (const uint64_t id : {uint64_t{9007199254740993u}, UINT64_MAX}) {
    std::string line = good;
    line.replace(line.find("\"query_id\":42"),
                 std::strlen("\"query_id\":42"),
                 "\"query_id\":" + std::to_string(id));
    auto parsed = ParseRoundRecordJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->query_id, id);
  }
}

TEST(RoundRecordJsonlTest, RejectsMalformedValues) {
  // Bools are JSON booleans, fates are known names, doubles are numbers or
  // exactly "NaN", "Infinity" or "-Infinity", numbers follow RFC 8259, and
  // the same holds inside `nodes`.
  const std::string good = RoundRecordToJson(SampleRecords()[1]);
  ASSERT_TRUE(ParseRoundRecordJson(good).ok());
  const std::pair<const char*, const char*> cases[] = {
      {"\"quorum_met\":false", "\"quorum_met\":0"},
      {"\"quorum_met\":false", "\"quorum_met\":\"false\""},
      {"\"quorum_met\":false", "\"quorum_met\":null"},
      {"\"straggler\":true", "\"straggler\":1"},
      {"\"fate\":\"rejected\"", "\"fate\":\"exploded\""},
      {"\"fate\":\"rejected\"", "\"fate\":\"Rejected\""},
      {"\"fate\":\"rejected\"", "\"fate\":3"},
      {"\"loss\":123.456789012345", "\"loss\":\"abc\""},
      {"\"loss\":123.456789012345", "\"loss\":true"},
      {"\"loss\":123.456789012345", "\"loss\":null"},
      {"\"parallel_seconds\":0.5", "\"parallel_seconds\":\"0.5\""},
      {"\"parallel_seconds\":0.5", "\"parallel_seconds\":\"NaN \""},
      {"\"parallel_seconds\":0.5", "\"parallel_seconds\":\"nan\""},
      {"\"parallel_seconds\":0.5", "\"parallel_seconds\":\"inf\""},
      {"\"vt_queue_seconds\":0.0625", "\"vt_queue_seconds\":\" Infinity\""},
      {"\"train_seconds\":0.45", "\"train_seconds\":\"+Infinity\""},
      {"\"train_seconds\":0.45", "\"train_seconds\":\"-infinity\""},
      {"\"parallel_seconds\":0.5", "\"parallel_seconds\":NaN"},
      {"\"parallel_seconds\":0.5", "\"parallel_seconds\":-nan"},
      {"\"parallel_seconds\":0.5", "\"parallel_seconds\":Infinity"},
      {"\"parallel_seconds\":0.5", "\"parallel_seconds\":inf"},
      {"\"parallel_seconds\":0.5", "\"parallel_seconds\":.5"},
      {"\"parallel_seconds\":0.5", "\"parallel_seconds\":5."},
      {"\"parallel_seconds\":0.5", "\"parallel_seconds\":+0.5"},
      {"\"engaged\":11", "\"engaged\":011"},
      {"\"nodes\":[", "\"nodes\":[1,"},
      {"\"nodes\":[", "\"nodes\":{\"a\":[]},\"x\":["},
      {"\"node_id\":7,", ""},
  };
  for (const auto& [from, to] : cases) {
    std::string line = good;
    const size_t at = line.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    line.replace(at, std::strlen(from), to);
    auto parsed = ParseRoundRecordJson(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << parsed.status().ToString();
  }
}

TEST(RoundRecordJsonlTest, ExtremeValuesTheWriterEmitsStillParse) {
  // Counts past 2^53 and non-finite, signed-zero and subnormal doubles all
  // come back exactly. The lines stay RFC 8259 JSON: the parser takes no
  // bare nan or inf, so a round trip proves the writer wrote none.
  using Limits = std::numeric_limits<double>;
  constexpr uint64_t kPast53 = (uint64_t{1} << 53) + 1;
  RoundRecord record = SampleRecords()[1];
  record.session = UINT64_MAX;
  record.query_id = kPast53;
  record.engaged = UINT64_MAX;
  record.wire_up_bytes = kPast53;
  record.vt_queue_seconds = Limits::infinity();
  record.vt_latency_seconds = Limits::denorm_min();
  record.parallel_seconds = -0.0;
  record.total_train_seconds = -1e300;
  record.comm_seconds = Limits::max();
  record.loss = Limits::quiet_NaN();
  record.nodes[0].node_id = UINT64_MAX;
  record.nodes[0].train_seconds = -Limits::infinity();
  record.nodes[1].comm_seconds = -Limits::quiet_NaN();
  // Optional doubles are written whenever they are not +0.0.
  RoundRecord optional = record;
  optional.vt_queue_seconds = Limits::quiet_NaN();
  optional.vt_latency_seconds = -0.0;
  const std::vector<RoundRecord> records = {record, optional};
  const std::string jsonl = RoundRecordsToJsonl(records);
  for (const char* text :
       {"\"query_id\":9007199254740993", "\"session\":18446744073709551615",
        "\"wire_up_bytes\":9007199254740993",
        "\"loss\":\"NaN\"", "\"vt_queue_seconds\":\"Infinity\"",
        "\"train_seconds\":\"-Infinity\"", "\"parallel_seconds\":-0",
        "\"vt_latency_seconds\":-0"}) {
    EXPECT_NE(jsonl.find(text), std::string::npos) << text;
  }
  auto parsed = ParseRoundRecordsJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectRecordsEqual(records[i], (*parsed)[i]);
  }
}

TEST(RoundRecordJsonlTest, NoEngagedNodesStillRoundTrips) {
  RoundRecord record;
  record.query_id = 7;
  record.policy = "random";
  record.aggregation = "ensemble";
  const std::string jsonl = RoundRecordsToJsonl({record});
  EXPECT_NE(jsonl.find("\"nodes\":[]"), std::string::npos);
  auto parsed = ParseRoundRecordsJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  ExpectRecordsEqual(record, (*parsed)[0]);
}

std::string Nested(size_t depth, const std::string& open,
                   const std::string& close) {
  std::string out;
  for (size_t i = 0; i < depth; ++i) out += open;
  out += "0";
  for (size_t i = 0; i < depth; ++i) out += close;
  return out;
}

TEST(JsonValueTest, NumbersFollowRfc8259AndKeepTheirLiteral) {
  for (const char* text : {"0", "-0", "7", "-12", "0.5", "1.5e-3", "1E+2",
                           "2e10", "18446744073709551617"}) {
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_TRUE(parsed->is_number()) << text;
    EXPECT_EQ(parsed->Literal(), text);
    EXPECT_EQ(parsed->Dump(), text);
  }
  for (const char* text : {"+1", "01", "-01", ".5", "1.", "-", "1e", "1e+",
                           "0x10", "- 1", "1.5.2", "NaN", "-NaN", "nan",
                           "Infinity", "-Infinity", "inf", "-inf"}) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << text;
  }
  EXPECT_EQ(JsonValue::Count(UINT64_MAX).Dump(), "18446744073709551615");
  EXPECT_EQ(JsonValue::Number(0.1).Dump(), "0.1");
  EXPECT_EQ(JsonValue::Number(-0.0).Dump(), "-0");
  using Limits = std::numeric_limits<double>;
  EXPECT_EQ(JsonValue::Number(Limits::quiet_NaN()).Dump(), "\"NaN\"");
  EXPECT_EQ(JsonValue::Number(-Limits::quiet_NaN()).Dump(), "\"NaN\"");
  EXPECT_EQ(JsonValue::Number(Limits::infinity()).Dump(), "\"Infinity\"");
  EXPECT_EQ(JsonValue::Number(-Limits::infinity()).Dump(), "\"-Infinity\"");
}

TEST(JsonValueTest, NestingDepthIsCapped) {
  // The parser recurses once per level: unbounded nesting would overflow
  // the stack, so depth past the cap is refused with a Status.
  for (const auto& [open, close] :
       {std::pair<std::string, std::string>{"[", "]"}, {"{\"k\":", "}"},
        {"[{\"k\":", "}]"}}) {
    EXPECT_TRUE(JsonValue::Parse(Nested(16, open, close)).ok()) << open;
    const auto deep = JsonValue::Parse(Nested(100000, open, close));
    ASSERT_FALSE(deep.ok()) << open;
    EXPECT_TRUE(deep.status().IsInvalidArgument()) << deep.status().ToString();
  }
  const size_t cap = JsonValue::kMaxDepth;
  EXPECT_TRUE(JsonValue::Parse(Nested(cap, "[", "]")).ok());
  EXPECT_FALSE(JsonValue::Parse(Nested(cap + 1, "[", "]")).ok());
  EXPECT_TRUE(JsonValue::Parse(Nested(cap, "{\"k\":", "}")).ok());
  EXPECT_FALSE(JsonValue::Parse(Nested(cap + 1, "{\"k\":", "}")).ok());
  // Unterminated input from a truncated or hostile file.
  EXPECT_TRUE(ParseRoundRecordJson(std::string(1000000, '['))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseMetricsSnapshotJson(Nested(200000, "{\"k\":", "}"))
                  .status()
                  .IsInvalidArgument());
}

MetricsSnapshot SampleSnapshot() {
  MetricsRegistry::Enable();
  MetricsRegistry* registry = MetricsRegistry::Get();
  registry->Reset();
  registry->IncrCounter("federation.rounds", 12);
  registry->IncrCounter("kmeans.fits", 4);
  registry->SetGauge("test.gauge", -1.5);
  registry->Observe("span.kmeans.fit.seconds", 0.002);
  registry->Observe("span.kmeans.fit.seconds", 0.25);
  registry->Observe("span.kmeans.fit.seconds", 4000.0);  // Overflow bucket.
  MetricsSnapshot snapshot = registry->Snapshot();
  MetricsRegistry::Disable();
  return snapshot;
}

void ExpectSnapshotsEqual(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.gauges.size(), b.gauges.size());
  for (const auto& [name, value] : a.gauges) {
    ASSERT_TRUE(b.gauges.count(name)) << name;
    EXPECT_SAME_DOUBLE(value, b.gauges.at(name));
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (const auto& [name, h] : a.histograms) {
    ASSERT_TRUE(b.histograms.count(name)) << name;
    const HistogramSnapshot& other = b.histograms.at(name);
    EXPECT_EQ(h.counts, other.counts);
    EXPECT_EQ(h.total, other.total);
    EXPECT_SAME_DOUBLE(h.sum, other.sum);
    EXPECT_SAME_DOUBLE(h.min, other.min);
    EXPECT_SAME_DOUBLE(h.max, other.max);
    ASSERT_EQ(h.bounds.size(), other.bounds.size());
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      EXPECT_SAME_DOUBLE(h.bounds[i], other.bounds[i]);
    }
  }
}

TEST(MetricsSnapshotJsonTest, RoundTripsExactly) {
  const MetricsSnapshot snapshot = SampleSnapshot();
  const std::string json = MetricsSnapshotToJson(snapshot);
  auto parsed = ParseMetricsSnapshotJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSnapshotsEqual(snapshot, *parsed);
}

TEST(MetricsSnapshotJsonTest, EmptySnapshotRoundTrips) {
  const MetricsSnapshot empty;
  auto parsed = ParseMetricsSnapshotJson(MetricsSnapshotToJson(empty));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSnapshotsEqual(empty, *parsed);
  EXPECT_FALSE(ParseMetricsSnapshotJson("{{{").ok());
}

TEST(MetricsSnapshotJsonTest, RejectsMalformedValues) {
  // Counters, histogram counts and totals are plain digits: a negative,
  // fractional, exponent-form, too-large or non-numeric value is refused,
  // never rounded or wrapped. Gauges, bounds and histogram stats are
  // numbers or exactly "NaN", "Infinity" or "-Infinity".
  const std::string good = MetricsSnapshotToJson(SampleSnapshot());
  ASSERT_TRUE(ParseMetricsSnapshotJson(good).ok());
  const std::pair<const char*, const char*> cases[] = {
      {"\"federation.rounds\":12", "\"federation.rounds\":-1"},
      {"\"federation.rounds\":12", "\"federation.rounds\":0.5"},
      {"\"federation.rounds\":12", "\"federation.rounds\":1e300"},
      {"\"federation.rounds\":12", "\"federation.rounds\":\"12\""},
      {"\"counts\":[", "\"counts\":[-5,"},
      {"\"counts\":[", "\"counts\":[1e300,"},
      {"\"total\":3", "\"total\":-5"},
      {"\"total\":3", "\"total\":1e300"},
      {"\"total\":3", "\"total\":2.5"},
      {"\"total\":3", "\"total\":3e0"},
      {"\"test.gauge\":-1.5", "\"test.gauge\":\"-1.5\""},
      {"\"test.gauge\":-1.5", "\"test.gauge\":\"NaN \""},
      {"\"test.gauge\":-1.5", "\"test.gauge\":\"-inf\""},
      {"\"test.gauge\":-1.5", "\"test.gauge\":null"},
      {"\"sum\":", "\"sum\":\"abc\",\"x\":"},
      {"\"max\":", "\"max\":\"Infinite\",\"x\":"},
      {"\"bounds\":[1e-06", "\"bounds\":[\"x\""},
  };
  for (const auto& [from, to] : cases) {
    std::string json = good;
    const size_t at = json.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    json.replace(at, std::strlen(from), to);
    auto parsed = ParseMetricsSnapshotJson(json);
    ASSERT_FALSE(parsed.ok()) << to;
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << parsed.status().ToString();
  }
}

TEST(MetricsSnapshotJsonTest, ExtremeValuesTheWriterEmitsStillParse) {
  using Limits = std::numeric_limits<double>;
  constexpr uint64_t kPast53 = (uint64_t{1} << 53) + 1;
  MetricsRegistry::Enable();
  MetricsRegistry* registry = MetricsRegistry::Get();
  registry->Reset();
  registry->IncrCounter("max", UINT64_MAX);
  registry->IncrCounter("past53", kPast53);
  registry->SetGauge("nan", Limits::quiet_NaN());
  registry->SetGauge("negative_zero", -0.0);
  registry->SetGauge("subnormal", Limits::denorm_min());
  registry->Observe("span", Limits::infinity());   // max = +inf.
  registry->Observe("span", -Limits::infinity());  // min = -inf, sum = NaN.
  MetricsSnapshot snapshot = registry->Snapshot();
  MetricsRegistry::Disable();
  HistogramSnapshot& big = snapshot.histograms["big"];
  big.bounds = {1.0};
  big.counts = {kPast53, 0};
  big.total = kPast53;
  big.sum = 1e16;
  big.min = big.max = 0.5;

  const std::string json = MetricsSnapshotToJson(snapshot);
  for (const char* text :
       {"\"max\":18446744073709551615", "\"past53\":9007199254740993",
        "\"nan\":\"NaN\"", "\"negative_zero\":-0", "\"max\":\"Infinity\"",
        "\"min\":\"-Infinity\"", "\"sum\":\"NaN\"",
        "\"total\":9007199254740993"}) {
    EXPECT_NE(json.find(text), std::string::npos) << text;
  }
  auto parsed = ParseMetricsSnapshotJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSnapshotsEqual(snapshot, *parsed);
}

TEST(MetricsSnapshotJsonTest, RejectsHistogramsThatBreakTheInvariant) {
  // HistogramSnapshot: one count per bucket (bounds + overflow), strictly
  // ascending edges, counts adding up to `total`, zero stats when empty.
  auto parse = [](const std::string& histogram) {
    return ParseMetricsSnapshotJson(R"({"histograms":{"h":{)" + histogram +
                                    "}}}");
  };
  ASSERT_TRUE(parse(R"("bounds":[1,2],"counts":[1,2,2],"total":5,)"
                    R"("sum":9,"min":0.5,"max":3)")
                  .ok());
  ASSERT_TRUE(parse(R"("bounds":[],"counts":[0],"total":0,)"
                    R"("sum":0,"min":0,"max":0)")
                  .ok());
  for (const char* histogram : {
           R"("bounds":[1,2],"counts":[5],"total":5,"sum":9,"min":1,"max":3)",
           R"("bounds":[1,2],"counts":[1,2,2,0],"total":5,)"
           R"("sum":9,"min":1,"max":3)",
           R"("bounds":[2,1],"counts":[1,2,2],"total":5,)"
           R"("sum":9,"min":1,"max":3)",
           R"("bounds":[1,1],"counts":[1,2,2],"total":5,)"
           R"("sum":9,"min":1,"max":3)",
           R"("bounds":["NaN",1],"counts":[1,2,2],"total":5,)"
           R"("sum":9,"min":1,"max":3)",
           R"("bounds":[1,2],"counts":[1,2,2],"total":0,)"
           R"("sum":1,"min":0,"max":3)",
           R"("bounds":[1,2],"counts":[1,2,2],"total":9,)"
           R"("sum":9,"min":1,"max":3)",
           // Wrapping would sum these to 0 and match the total.
           R"("bounds":[1,2],"counts":[18446744073709551615,1,0],)"
           R"("total":0,"sum":0,"min":0,"max":0)",
           R"("bounds":[1,2],"counts":[0,0,0],"total":0,)"
           R"("sum":1,"min":0,"max":3)",
           R"("bounds":[1,2],"counts":[1,2,2],"sum":9,"min":1,"max":3)",
           R"("bounds":[1,2],"counts":[1,2,2],"total":5,"min":1,"max":3)",
       }) {
    auto parsed = parse(histogram);
    ASSERT_FALSE(parsed.ok()) << histogram;
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << parsed.status().ToString();
  }
}

}  // namespace
}  // namespace qens::obs
