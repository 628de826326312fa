// Round-trip tests for the observability exporters: RoundRecord JSONL and
// CSV, and MetricsSnapshot JSON and CSV. Export -> parse must reproduce
// every field exactly (doubles included: the writers emit full precision).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "qens/common/string_util.h"
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
  second.rank_index_rankings = 2;  // Served through the cluster index.
  second.rank_cache_hits = 8;
  second.rank_cache_misses = 9;
  second.rank_candidate_nodes = 5;
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
  EXPECT_EQ(a.rank_index_rankings, b.rank_index_rankings);
  EXPECT_EQ(a.rank_cache_hits, b.rank_cache_hits);
  EXPECT_EQ(a.rank_cache_misses, b.rank_cache_misses);
  EXPECT_EQ(a.rank_candidate_nodes, b.rank_candidate_nodes);
  EXPECT_EQ(a.wire_down_bytes, b.wire_down_bytes);
  EXPECT_EQ(a.wire_up_bytes, b.wire_up_bytes);
  EXPECT_EQ(a.fleet_epoch, b.fleet_epoch);
  EXPECT_EQ(a.nodes_joined, b.nodes_joined);
  EXPECT_EQ(a.nodes_left, b.nodes_left);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.stale_rounds, b.stale_rounds);
  EXPECT_EQ(a.query_class, b.query_class);
  EXPECT_DOUBLE_EQ(a.vt_queue_seconds, b.vt_queue_seconds);
  EXPECT_DOUBLE_EQ(a.vt_latency_seconds, b.vt_latency_seconds);
  EXPECT_EQ(a.quorum_met, b.quorum_met);
  EXPECT_DOUBLE_EQ(a.parallel_seconds, b.parallel_seconds);
  EXPECT_DOUBLE_EQ(a.total_train_seconds, b.total_train_seconds);
  EXPECT_DOUBLE_EQ(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.has_loss, b.has_loss);
  if (a.has_loss && b.has_loss) {
    EXPECT_DOUBLE_EQ(a.loss, b.loss);
  }
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].node_id, b.nodes[i].node_id);
    EXPECT_EQ(a.nodes[i].fate, b.nodes[i].fate);
    EXPECT_DOUBLE_EQ(a.nodes[i].train_seconds, b.nodes[i].train_seconds);
    EXPECT_DOUBLE_EQ(a.nodes[i].comm_seconds, b.nodes[i].comm_seconds);
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
  // Same nonzero-only rule for the ranking-accelerator counters: scan-only
  // records keep the pre-index schema byte-identical.
  EXPECT_EQ(RoundRecordToJson(records[0]).find("rank_index_rankings"),
            std::string::npos);
  EXPECT_EQ(RoundRecordToJson(records[0]).find("rank_cache_hits"),
            std::string::npos);
  EXPECT_NE(RoundRecordToJson(records[1]).find("\"rank_index_rankings\":2"),
            std::string::npos);
  EXPECT_NE(RoundRecordToJson(records[1]).find("\"rank_candidate_nodes\":5"),
            std::string::npos);
  // And for the wire-layer byte counters (wire off = pre-wire schema).
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

TEST(RoundRecordCsvTest, RoundTripsExactly) {
  const std::vector<RoundRecord> records = SampleRecords();
  const std::string csv = RoundRecordsToCsv(records);
  auto parsed = ParseRoundRecordsCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectRecordsEqual(records[i], (*parsed)[i]);
  }
}

TEST(RoundRecordCsvTest, HeaderPinsThirtyColumns) {
  // The CSV schema is strict (docs/OBSERVABILITY.md): adding a column is a
  // deliberate schema change of one RoundRecord member plus one row in the
  // field table, and this pin moves with it. 27 -> 30 added query_class +
  // the two vt_* fields.
  const std::string csv = RoundRecordsToCsv(SampleRecords());
  const std::string header = csv.substr(0, csv.find('\n'));
  size_t columns = 1;
  for (char c : header) columns += (c == ',');
  EXPECT_EQ(columns, 30u);
  EXPECT_NE(header.find("query_class,vt_queue_seconds,vt_latency_seconds"),
            std::string::npos);
}

// Exact bytes of SampleRecords() in both formats. Downstream tools parse
// these files, so any difference here is a schema change: JSON keys sorted,
// zero-valued optional counters omitted, numbers in the shortest
// round-tripping form, CSV columns in schema order.
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
    R"("quorum_met":false,"rank_cache_hits":8,"rank_cache_misses":9,)"
    R"("rank_candidate_nodes":5,"rank_index_rankings":2,)"
    R"("refreshes":16,"rejected":6,"round":1,"session":3,)"
    R"("stale_rounds":17,"survivors":7,"total_train_seconds":0.6,)"
    R"("vt_latency_seconds":0.6875,"vt_queue_seconds":0.0625,)"
    R"("wire_down_bytes":1024,"wire_up_bytes":212})" "\n";

constexpr char kSampleCsv[] =
    "session,query_id,round,policy,aggregation,engaged,survivors,"
    "rejected,quarantined,rank_index_rankings,rank_cache_hits,"
    "rank_cache_misses,rank_candidate_nodes,wire_down_bytes,"
    "wire_up_bytes,fleet_epoch,nodes_joined,nodes_left,refreshes,"
    "stale_rounds,query_class,vt_queue_seconds,vt_latency_seconds,"
    "quorum_met,parallel_seconds,total_train_seconds,comm_seconds,"
    "has_loss,loss,nodes\n"
    "0,42,0,query_driven,fedavg,3,2,0,0,0,0,0,0,0,0,0,0,0,0,0,,0,0,1,"
    "0.125,0.3,0.0421875,0,0,0:completed:0.15:0.02:120:0;"
    "3:completed:0.15:0.0221875:96:1;5:unavailable:0:0:0:0\n"
    "3,42,1,query_driven,ensemble,11,7,6,4,2,8,9,5,1024,212,13,14,15,"
    "16,17,interactive,0.0625,0.6875,0,0.5,0.6,0.01,1,123.456789012345,"
    "0:missed_deadline:0.45:0.01:120:1;3:rejected:0.15:0:96:0;"
    "5:quarantined:0:0:0:0;7:completed:0:0:88:0\n";

TEST(RoundRecordExportTest, OutputIsBytePinned) {
  EXPECT_EQ(RoundRecordsToJsonl(SampleRecords()), kSampleJsonl);
  EXPECT_EQ(RoundRecordsToCsv(SampleRecords()), kSampleCsv);
}

TEST(RoundRecordJsonlTest, RejectsCountsTheMemberCannotHold) {
  // A count arrives as a JSON double; casting a negative, non-finite,
  // fractional or too-large double to an unsigned member is undefined
  // behaviour, so the parser must refuse it and name the field.
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
  // The largest double below 2^64 still fits a 64-bit count.
  std::string line = good;
  line.replace(line.find("\"query_id\":42"), std::strlen("\"query_id\":42"),
               "\"query_id\":18446744073709549568");
  auto parsed = ParseRoundRecordJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->query_id, 18446744073709549568ull);
}

TEST(RoundRecordCsvTest, RejectsMalformedCells) {
  // Every cell must be consumed whole: unsigned cells are digits only,
  // doubles admit no trailing junk or padding, bools are exactly 0 or 1,
  // and the same holds inside the nodes cell.
  const std::string csv = RoundRecordsToCsv({SampleRecords()[1]});
  const size_t eol = csv.find('\n');
  const std::vector<std::string> names = Split(csv.substr(0, eol), ',');
  const std::vector<std::string> row =
      Split(csv.substr(eol + 1, csv.size() - eol - 2), ',');
  ASSERT_EQ(names.size(), row.size());
  auto parse_with = [&](const std::string& name, const std::string& cell) {
    const auto column = std::find(names.begin(), names.end(), name);
    EXPECT_NE(column, names.end()) << name;
    std::vector<std::string> cells = row;
    cells[column - names.begin()] = cell;
    return ParseRoundRecordsCsv(csv.substr(0, eol + 1) + Join(cells, ",") +
                                "\n");
  };
  ASSERT_TRUE(parse_with("session", "3").ok());
  for (const char* name :
       {"session", "query_id", "round", "engaged", "survivors", "rejected",
        "quarantined", "rank_index_rankings", "rank_cache_hits",
        "rank_cache_misses", "rank_candidate_nodes", "wire_down_bytes",
        "wire_up_bytes", "fleet_epoch", "nodes_joined", "nodes_left",
        "refreshes", "stale_rounds"}) {
    for (const char* bad : {"", "abc", "-3", "+3", "3x", " 3", "1.5", "1e3",
                            "18446744073709551616"}) {
      EXPECT_FALSE(parse_with(name, bad).ok()) << name << "=" << bad;
    }
  }
  for (const char* name :
       {"vt_queue_seconds", "vt_latency_seconds", "parallel_seconds",
        "total_train_seconds", "comm_seconds", "loss"}) {
    for (const char* bad : {"", "abc", "NaNx", "0.5x", " 0.5", "0.5 "}) {
      EXPECT_FALSE(parse_with(name, bad).ok()) << name << "=" << bad;
    }
  }
  for (const char* name : {"quorum_met", "has_loss"}) {
    for (const char* bad : {"", "maybe", "yes", "true", "2", "01"}) {
      EXPECT_FALSE(parse_with(name, bad).ok()) << name << "=" << bad;
    }
  }
  for (const char* bad :
       {"-1:completed:0:0:0:0", "x:completed:0:0:0:0", "1:exploded:0:0:0:0",
        "1:completed:0.5x:0:0:0", "1:completed:0:NaNx:0:0",
        "1:completed:0:0:1.5:0", "1:completed:0:0:0:yes",
        "1:completed:0:0:0", "1:completed:0:0:0:0:0", "1:completed:0:0:0:0;",
        ";"}) {
    EXPECT_FALSE(parse_with("nodes", bad).ok()) << "nodes=" << bad;
  }
}

TEST(RoundRecordCsvTest, ExtremeValuesTheWriterEmitsStillParse) {
  RoundRecord record = SampleRecords()[1];
  record.session = std::numeric_limits<uint64_t>::max();
  record.engaged = std::numeric_limits<size_t>::max();
  record.vt_queue_seconds = std::numeric_limits<double>::infinity();
  record.vt_latency_seconds = std::numeric_limits<double>::denorm_min();
  record.parallel_seconds = -0.0;
  record.total_train_seconds = -1e300;
  record.comm_seconds = std::numeric_limits<double>::max();
  record.loss = std::numeric_limits<double>::quiet_NaN();
  record.nodes[0].node_id = std::numeric_limits<size_t>::max();
  record.nodes[0].train_seconds = -std::numeric_limits<double>::infinity();
  record.nodes[1].comm_seconds = -std::numeric_limits<double>::quiet_NaN();
  auto parsed = ParseRoundRecordsCsv(RoundRecordsToCsv({record}));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  RoundRecord back = (*parsed)[0];
  EXPECT_TRUE(std::isnan(back.loss));
  EXPECT_TRUE(std::isnan(back.nodes[1].comm_seconds));
  EXPECT_TRUE(std::signbit(back.parallel_seconds));
  back.loss = record.loss = 0.0;
  back.nodes[1].comm_seconds = record.nodes[1].comm_seconds = 0.0;
  ExpectRecordsEqual(record, back);
}

TEST(RoundRecordCsvTest, NoEngagedNodesStillRoundTrips) {
  RoundRecord record;
  record.query_id = 7;
  record.policy = "random";
  record.aggregation = "ensemble";
  const std::string csv = RoundRecordsToCsv({record});
  auto parsed = ParseRoundRecordsCsv(csv);
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
    EXPECT_DOUBLE_EQ(value, b.gauges.at(name));
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (const auto& [name, h] : a.histograms) {
    ASSERT_TRUE(b.histograms.count(name)) << name;
    const HistogramSnapshot& other = b.histograms.at(name);
    EXPECT_EQ(h.counts, other.counts);
    EXPECT_EQ(h.total, other.total);
    EXPECT_DOUBLE_EQ(h.sum, other.sum);
    EXPECT_DOUBLE_EQ(h.min, other.min);
    EXPECT_DOUBLE_EQ(h.max, other.max);
    ASSERT_EQ(h.bounds.size(), other.bounds.size());
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      EXPECT_DOUBLE_EQ(h.bounds[i], other.bounds[i]);
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

TEST(MetricsSnapshotCsvTest, RoundTripsExactly) {
  const MetricsSnapshot snapshot = SampleSnapshot();
  const std::string csv = MetricsSnapshotToCsv(snapshot);
  auto parsed = ParseMetricsSnapshotCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSnapshotsEqual(snapshot, *parsed);
}

TEST(MetricsSnapshotJsonTest, RejectsCountsTheSnapshotCannotHold) {
  // Counters, histogram counts and totals are unsigned. A negative,
  // fractional, too-large or non-numeric JSON value must be refused (the
  // cast would be undefined behaviour), never read as a wrapped count.
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

TEST(MetricsSnapshotCsvTest, RejectsMalformedCells) {
  // Every value is consumed whole: counts are digits only, doubles admit no
  // trailing junk or padding, and rows have exactly their kind's cells.
  const std::string good = MetricsSnapshotToCsv(SampleSnapshot());
  ASSERT_TRUE(ParseMetricsSnapshotCsv(good).ok());
  auto replaced = [&](const std::string& from, const std::string& to) {
    std::string csv = good;
    const size_t at = csv.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? csv
                                   : csv.replace(at, from.size(), to);
  };
  std::vector<std::string> bad;
  for (const char* cell : {"", "abc", "-12", "+12", "12x", " 12", "1.5",
                           "18446744073709551616"}) {
    bad.push_back(replaced("counter,federation.rounds,12",
                           std::string("counter,federation.rounds,") + cell));
  }
  for (const char* cell : {"", "abc", "-1.5x", " -1.5", "-1.5 "}) {
    bad.push_back(
        replaced("gauge,test.gauge,-1.5", std::string("gauge,test.gauge,") +
                                              cell));
  }
  for (const char* stat : {"total=-3", "total=3x", "total=", "sum=x",
                           "min=0.002 ", "max=4000x"}) {
    const std::string name = Split(stat, '=')[0];
    const size_t begin = good.find(name + "=");
    const size_t end = good.find_first_of("|,", begin);
    bad.push_back(replaced(good.substr(begin, end - begin), stat));
  }
  // The bounds and counts cells (the histogram row's last two), then a row
  // with a cell too many.
  const size_t row_end = good.find('\n', good.find("histogram,"));
  const size_t counts_cell = good.rfind(',', row_end) + 1;
  const size_t bounds_cell = good.rfind(',', counts_cell - 2) + 1;
  bad.push_back(std::string(good).insert(bounds_cell, "abc|"));
  bad.push_back(std::string(good).insert(counts_cell, "-1|"));
  bad.push_back(std::string(good).insert(counts_cell, "1x|"));
  bad.push_back(replaced("counter,federation.rounds,12",
                         "counter,federation.rounds,12,7"));
  for (const std::string& csv : bad) {
    auto parsed = ParseMetricsSnapshotCsv(csv);
    EXPECT_FALSE(parsed.ok()) << csv;
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsInvalidArgument())
          << parsed.status().ToString();
    }
  }
}

}  // namespace
}  // namespace qens::obs
