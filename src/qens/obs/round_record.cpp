#include "qens/obs/round_record.h"

#include <bit>
#include <cstdint>
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

/// When a field appears in JSON.
enum class InJson {
  kAlways,  ///< Required key.
  kIfSet,   ///< Only while it differs from its default, so records from runs
            ///< with an opt-in layer off keep the schema from before it.
  kIfFlag,  ///< Only while the row's `flag` member is true; parsing sets it.
};
using enum InJson;

/// One schema row: a member of `S` and its JSON key.
template <typename S, typename T>
struct Field {
  const char* name;
  T S::*member;
  InJson json = kAlways;
  bool S::*flag = nullptr;
};

/// NodeRoundStat schema: the keys of a `nodes[]` object.
constexpr std::tuple kNodeFields{
    Field{"node_id", &NodeRoundStat::node_id},
    Field{"fate", &NodeRoundStat::fate},
    Field{"train_seconds", &NodeRoundStat::train_seconds},
    Field{"comm_seconds", &NodeRoundStat::comm_seconds},
    Field{"samples_used", &NodeRoundStat::samples_used},
    Field{"straggler", &NodeRoundStat::straggler},
};

/// RoundRecord schema (docs/OBSERVABILITY.md), checked on parse in this
/// order. A new field is one member in round_record.h plus one row here.
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
    Field{"loss", &RoundRecord::loss, kIfFlag, &RoundRecord::has_loss},
    Field{"nodes", &RoundRecord::nodes},
};

/// Calls `fn(field)` on every row of `fields`, in order.
template <typename Fields, typename Fn>
void ForEachField(const Fields& fields, Fn fn) {
  std::apply([&fn](const auto&... field) { (fn(field), ...); }, fields);
}

/// \name Value kinds
/// One JSON encode/decode pair per member type. Decoders return a bare
/// reason; the field loops below prefix the field name.
/// @{

Status ExpectKind(bool ok, const char* kind) {
  return ok ? Status::OK()
            : Status::InvalidArgument(StrFormat("is not a %s", kind));
}

/// Counts as exact decimal digits; doubles as numbers, or "NaN",
/// "Infinity" and "-Infinity" (JsonValue::Number).
template <Unsigned T>
JsonValue ToJson(T v) {
  return JsonValue::Count(v);
}
template <Unsigned T>
Status FromJson(const JsonValue& json, T* out) {
  return DecodeCount(json, out);
}

JsonValue ToJson(double v) { return JsonValue::Number(v); }
Status FromJson(const JsonValue& json, double* out) {
  return DecodeDouble(json, out);
}

JsonValue ToJson(bool v) { return JsonValue::Bool(v); }
Status FromJson(const JsonValue& json, bool* out) {
  QENS_RETURN_NOT_OK(ExpectKind(json.is_bool(), "bool"));
  *out = json.AsBool();
  return Status::OK();
}

JsonValue ToJson(const std::string& v) { return JsonValue::String(v); }
Status FromJson(const JsonValue& json, std::string* out) {
  QENS_RETURN_NOT_OK(ExpectKind(json.is_string(), "string"));
  *out = json.AsString();
  return Status::OK();
}

JsonValue ToJson(NodeFate v) { return JsonValue::String(NodeFateName(v)); }
Status FromJson(const JsonValue& json, NodeFate* out) {
  QENS_RETURN_NOT_OK(ExpectKind(json.is_string(), "string"));
  QENS_ASSIGN_OR_RETURN(*out, ParseNodeFate(json.AsString()));
  return Status::OK();
}

// The nodes list recurses into kNodeFields; defined after the field loops.
JsonValue ToJson(const std::vector<NodeRoundStat>& nodes);
Status FromJson(const JsonValue& json, std::vector<NodeRoundStat>* out);

/// The kIfSet test: a value other than its default. Doubles compare
/// bitwise, so -0.0 and NaN are set and survive the round trip.
template <typename T>
bool IsSet(const T& v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::bit_cast<uint64_t>(v) != 0;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return v != T{};
  } else if constexpr (std::is_same_v<T, std::string>) {
    return !v.empty();
  } else {
    return true;
  }
}
/// @}

/// \name Field loops
/// The two codecs, each one pass over a schema table.
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
    if (!status.ok()) return;
    if (const JsonValue* value = json.Find(f.name)) {
      status = Named(f.name, FromJson(*value, &(s->*f.member)));
      if (f.json == kIfFlag) s->*f.flag = true;
    } else if (f.json == kAlways) {
      status = Status::InvalidArgument(StrFormat("%s: missing", f.name));
    }
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

}  // namespace qens::obs
