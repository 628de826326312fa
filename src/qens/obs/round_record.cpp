#include "qens/obs/round_record.h"

#include <iterator>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "qens/common/string_util.h"
#include "qens/obs/decode.h"
#include "qens/obs/export.h"
#include "qens/obs/json.h"

namespace qens::obs {
namespace {

/// Wire names, indexed by NodeFate.
constexpr const char* kFateNames[] = {"completed", "unavailable",
                                      "send_failed", "missed_deadline",
                                      "rejected", "quarantined"};

}  // namespace

const char* NodeFateName(NodeFate fate) {
  const size_t index = static_cast<size_t>(fate);
  return index < std::size(kFateNames) ? kFateNames[index] : kFateNames[0];
}

Result<NodeFate> ParseNodeFate(const std::string& name) {
  for (size_t i = 0; i < std::size(kFateNames); ++i) {
    if (name == kFateNames[i]) return static_cast<NodeFate>(i);
  }
  return Status::InvalidArgument("unknown node fate: " + name);
}

namespace {

/// When a field appears in JSON. Every field is a CSV column.
enum class InJson {
  kAlways,  ///< Required key.
  kIfSet,   ///< Only while above zero / non-empty, so records from runs with
            ///< an opt-in layer off keep the schema from before that layer.
  kNever,   ///< CSV-only.
  kIfFlag,  ///< Only while the row's `flag` member is true; parsing sets it.
};
using enum InJson;

/// One schema row: a member of `S` and the name it goes by in both formats.
template <typename S, typename T>
struct Field {
  const char* name;
  T S::*member;
  InJson json = kAlways;
  bool S::*flag = nullptr;
};

/// NodeRoundStat schema: the keys of a `nodes[]` object and, in order, the
/// ':'-separated parts of one CSV `nodes` segment.
constexpr std::tuple kNodeFields{
    Field{"node_id", &NodeRoundStat::node_id},
    Field{"fate", &NodeRoundStat::fate},
    Field{"train_seconds", &NodeRoundStat::train_seconds},
    Field{"comm_seconds", &NodeRoundStat::comm_seconds},
    Field{"samples_used", &NodeRoundStat::samples_used},
    Field{"straggler", &NodeRoundStat::straggler},
};

/// RoundRecord schema in CSV column order (docs/OBSERVABILITY.md). A new
/// field is one member in round_record.h plus one row here.
constexpr std::tuple kRecordFields{
    Field{"session", &RoundRecord::session, kIfSet},
    Field{"query_id", &RoundRecord::query_id},
    Field{"round", &RoundRecord::round},
    Field{"policy", &RoundRecord::policy},
    Field{"aggregation", &RoundRecord::aggregation},
    Field{"engaged", &RoundRecord::engaged},
    Field{"survivors", &RoundRecord::survivors},
    Field{"rejected", &RoundRecord::rejected, kIfSet},
    Field{"quarantined", &RoundRecord::quarantined, kIfSet},
    Field{"rank_index_rankings", &RoundRecord::rank_index_rankings, kIfSet},
    Field{"rank_cache_hits", &RoundRecord::rank_cache_hits, kIfSet},
    Field{"rank_cache_misses", &RoundRecord::rank_cache_misses, kIfSet},
    Field{"rank_candidate_nodes", &RoundRecord::rank_candidate_nodes, kIfSet},
    Field{"wire_down_bytes", &RoundRecord::wire_down_bytes, kIfSet},
    Field{"wire_up_bytes", &RoundRecord::wire_up_bytes, kIfSet},
    Field{"fleet_epoch", &RoundRecord::fleet_epoch, kIfSet},
    Field{"nodes_joined", &RoundRecord::nodes_joined, kIfSet},
    Field{"nodes_left", &RoundRecord::nodes_left, kIfSet},
    Field{"refreshes", &RoundRecord::refreshes, kIfSet},
    Field{"stale_rounds", &RoundRecord::stale_rounds, kIfSet},
    Field{"query_class", &RoundRecord::query_class, kIfSet},
    Field{"vt_queue_seconds", &RoundRecord::vt_queue_seconds, kIfSet},
    Field{"vt_latency_seconds", &RoundRecord::vt_latency_seconds, kIfSet},
    Field{"quorum_met", &RoundRecord::quorum_met},
    Field{"parallel_seconds", &RoundRecord::parallel_seconds},
    Field{"total_train_seconds", &RoundRecord::total_train_seconds},
    Field{"comm_seconds", &RoundRecord::comm_seconds},
    Field{"has_loss", &RoundRecord::has_loss, kNever},
    Field{"loss", &RoundRecord::loss, kIfFlag, &RoundRecord::has_loss},
    Field{"nodes", &RoundRecord::nodes},
};

/// Calls `fn(field)` on every row of `fields`, in order.
template <typename Fields, typename Fn>
void ForEachField(const Fields& fields, Fn fn) {
  std::apply([&fn](const auto&... field) { (fn(field), ...); }, fields);
}

/// \name Value kinds
/// One JSON and one CSV encode/decode pair per member type. Decoders return
/// a bare reason; the field loops below prefix the field name.
/// @{

Status ExpectKind(bool ok, const char* kind) {
  return ok ? Status::OK()
            : Status::InvalidArgument(StrFormat("is not a %s", kind));
}

/// Counts and doubles: a JSON number, and a CSV cell that must be one
/// whole token (no sign on counts, no padding, no trailing bytes).
template <Numeric T>
JsonValue ToJson(T v) {
  return JsonValue::Number(static_cast<double>(v));
}
template <Numeric T>
Status FromCsv(const std::string& cell, T* out) {
  return DecodeToken(cell, out);
}

template <Unsigned T>
Status FromJson(const JsonValue& json, T* out) {
  return DecodeCount(json, out);
}
template <Unsigned T>
std::string ToCsv(T v) {
  return std::to_string(v);
}

Status FromJson(const JsonValue& json, double* out) {
  QENS_RETURN_NOT_OK(ExpectKind(json.is_number(), "number"));
  *out = json.AsNumber();
  return Status::OK();
}
std::string ToCsv(double v) { return JsonNumber(v); }

JsonValue ToJson(bool v) { return JsonValue::Bool(v); }
Status FromJson(const JsonValue& json, bool* out) {
  QENS_RETURN_NOT_OK(ExpectKind(json.is_bool(), "bool"));
  *out = json.AsBool();
  return Status::OK();
}
std::string ToCsv(bool v) { return v ? "1" : "0"; }
Status FromCsv(const std::string& cell, bool* out) {
  if (cell != "0" && cell != "1") {
    return Status::InvalidArgument("bad bool '" + cell + "'");
  }
  *out = cell == "1";
  return Status::OK();
}

JsonValue ToJson(const std::string& v) { return JsonValue::String(v); }
Status FromJson(const JsonValue& json, std::string* out) {
  QENS_RETURN_NOT_OK(ExpectKind(json.is_string(), "string"));
  *out = json.AsString();
  return Status::OK();
}
std::string ToCsv(const std::string& v) { return v; }
Status FromCsv(const std::string& cell, std::string* out) {
  *out = cell;
  return Status::OK();
}

JsonValue ToJson(NodeFate v) { return JsonValue::String(NodeFateName(v)); }
std::string ToCsv(NodeFate v) { return NodeFateName(v); }
Status FromCsv(const std::string& cell, NodeFate* out) {
  QENS_ASSIGN_OR_RETURN(*out, ParseNodeFate(cell));
  return Status::OK();
}
Status FromJson(const JsonValue& json, NodeFate* out) {
  QENS_RETURN_NOT_OK(ExpectKind(json.is_string(), "string"));
  return FromCsv(json.AsString(), out);
}

// The nodes list recurses into kNodeFields; defined after the field loops.
JsonValue ToJson(const std::vector<NodeRoundStat>& nodes);
Status FromJson(const JsonValue& json, std::vector<NodeRoundStat>* out);
std::string ToCsv(const std::vector<NodeRoundStat>& nodes);
Status FromCsv(const std::string& cell, std::vector<NodeRoundStat>* out);

/// The kIfSet test: a count or duration above zero, a non-empty string.
template <typename T>
bool IsSet(const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    return v > T{};
  } else if constexpr (std::is_same_v<T, std::string>) {
    return !v.empty();
  } else {
    return true;
  }
}
/// @}

/// \name Field loops
/// The four codecs, each one pass over a schema table.
/// @{

template <typename S, typename Fields>
JsonValue ObjectToJson(const S& s, const Fields& fields) {
  JsonValue out = JsonValue::Object();
  ForEachField(fields, [&](const auto& f) {
    const auto& value = s.*f.member;
    if (f.json == kAlways ||
        (f.json == kIfSet && IsSet(value)) ||
        (f.json == kIfFlag && s.*f.flag)) {
      out.Set(f.name, ToJson(value));
    }
  });
  return out;
}

template <typename S, typename Fields>
Status ObjectFromJson(const JsonValue& json, const Fields& fields, S* s) {
  if (!json.is_object()) return Status::InvalidArgument("not a JSON object");
  Status status;
  ForEachField(fields, [&](const auto& f) {
    if (!status.ok() || f.json == kNever) return;
    if (const JsonValue* value = json.Find(f.name)) {
      status = Named(f.name, FromJson(*value, &(s->*f.member)));
      if (f.json == kIfFlag) s->*f.flag = true;
    } else if (f.json == kAlways) {
      status = Status::InvalidArgument(StrFormat("%s: missing", f.name));
    }
  });
  return status;
}

template <typename S, typename Fields>
std::string ObjectToCsv(const S& s, const Fields& fields, char separator) {
  std::string out;
  ForEachField(fields, [&](const auto& f) {
    out += ToCsv(s.*f.member);
    out.push_back(separator);
  });
  out.pop_back();
  return out;
}

template <typename S, typename Fields>
Status ObjectFromCsv(const std::string& row, const Fields& fields,
                     char separator, S* s) {
  const std::vector<std::string> cells = Split(row, separator);
  if (cells.size() != std::tuple_size_v<Fields>) {
    return Status::InvalidArgument(
        StrFormat("expected %zu cells, got %zu", std::tuple_size_v<Fields>,
                  cells.size()));
  }
  Status status;
  size_t cell = 0;
  ForEachField(fields, [&](const auto& f) {
    if (status.ok()) {
      status = Named(f.name, FromCsv(cells[cell], &(s->*f.member)));
    }
    ++cell;
  });
  return status;
}
/// @}

JsonValue ToJson(const std::vector<NodeRoundStat>& nodes) {
  JsonValue out = JsonValue::Array();
  for (const NodeRoundStat& node : nodes) {
    out.Append(ObjectToJson(node, kNodeFields));
  }
  return out;
}

Status FromJson(const JsonValue& json, std::vector<NodeRoundStat>* out) {
  QENS_RETURN_NOT_OK(ExpectKind(json.is_array(), "array"));
  for (const JsonValue& element : json.AsArray()) {
    NodeRoundStat node;
    QENS_RETURN_NOT_OK(ObjectFromJson(element, kNodeFields, &node));
    out->push_back(node);
  }
  return Status::OK();
}

/// Segments joined by ';'; an empty cell is an empty list.
std::string ToCsv(const std::vector<NodeRoundStat>& nodes) {
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out.push_back(';');
    out += ObjectToCsv(nodes[i], kNodeFields, ':');
  }
  return out;
}

Status FromCsv(const std::string& cell, std::vector<NodeRoundStat>* out) {
  if (cell.empty()) return Status::OK();
  for (const std::string& segment : Split(cell, ';')) {
    NodeRoundStat node;
    QENS_RETURN_NOT_OK(ObjectFromCsv(segment, kNodeFields, ':', &node));
    out->push_back(node);
  }
  return Status::OK();
}

std::string CsvHeader() {
  std::string out;
  ForEachField(kRecordFields, [&out](const auto& f) {
    out += f.name;
    out.push_back(',');
  });
  out.pop_back();
  return out;
}

}  // namespace

std::string RoundRecordToJson(const RoundRecord& record) {
  return ObjectToJson(record, kRecordFields).Dump();
}

std::string RoundRecordsToJsonl(const std::vector<RoundRecord>& records) {
  std::string out;
  for (const RoundRecord& record : records) {
    out += RoundRecordToJson(record);
    out.push_back('\n');
  }
  return out;
}

Status WriteRoundRecordsJsonl(const std::vector<RoundRecord>& records,
                              const std::string& path) {
  return WriteTextFile(RoundRecordsToJsonl(records), path);
}

Result<RoundRecord> ParseRoundRecordJson(const std::string& line) {
  QENS_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(line));
  RoundRecord record;
  QENS_RETURN_NOT_OK(Named("round record",
                           ObjectFromJson(root, kRecordFields, &record)));
  return record;
}

Result<std::vector<RoundRecord>> ParseRoundRecordsJsonl(
    const std::string& text) {
  std::vector<RoundRecord> records;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    QENS_ASSIGN_OR_RETURN(RoundRecord record, ParseRoundRecordJson(line));
    records.push_back(std::move(record));
  }
  return records;
}

std::string RoundRecordsToCsv(const std::vector<RoundRecord>& records) {
  std::string out = CsvHeader();
  out.push_back('\n');
  for (const RoundRecord& record : records) {
    out += ObjectToCsv(record, kRecordFields, ',');
    out.push_back('\n');
  }
  return out;
}

Status WriteRoundRecordsCsv(const std::vector<RoundRecord>& records,
                            const std::string& path) {
  return WriteTextFile(RoundRecordsToCsv(records), path);
}

Result<std::vector<RoundRecord>> ParseRoundRecordsCsv(const std::string& text) {
  const std::string header = CsvHeader();
  std::vector<RoundRecord> records;
  std::istringstream in(text);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    if (first) {
      first = false;
      if (Trim(line) != header) {
        return Status::InvalidArgument("round csv: unexpected header " + line);
      }
      continue;
    }
    RoundRecord record;
    QENS_RETURN_NOT_OK(
        Named("round csv", ObjectFromCsv(line, kRecordFields, ',', &record)));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace qens::obs
