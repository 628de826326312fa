#include "qens/obs/export.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <utility>

#include "qens/common/string_util.h"
#include "qens/obs/decode.h"
#include "qens/obs/json.h"

namespace qens::obs {

Status WriteTextFile(const std::string& content, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << content;
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

std::string MetricsSnapshotToJson(const MetricsSnapshot& snapshot) {
  JsonValue root = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.Set(name, JsonValue::Count(value));
  }
  root.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.Set(name, JsonValue::Number(value));
  }
  root.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, h] : snapshot.histograms) {
    JsonValue hist = JsonValue::Object();
    JsonValue bounds = JsonValue::Array();
    for (double b : h.bounds) bounds.Append(JsonValue::Number(b));
    hist.Set("bounds", std::move(bounds));
    JsonValue counts = JsonValue::Array();
    for (uint64_t c : h.counts) counts.Append(JsonValue::Count(c));
    hist.Set("counts", std::move(counts));
    hist.Set("total", JsonValue::Count(h.total));
    hist.Set("sum", JsonValue::Number(h.sum));
    hist.Set("min", JsonValue::Number(h.min));
    hist.Set("max", JsonValue::Number(h.max));
    histograms.Set(name, std::move(hist));
  }
  root.Set("histograms", std::move(histograms));
  return root.Dump();
}

Status WriteMetricsSnapshotJson(const MetricsSnapshot& snapshot,
                                const std::string& path) {
  return WriteTextFile(MetricsSnapshotToJson(snapshot) + "\n", path);
}

namespace {

/// Decodes one histogram and checks the invariant HistogramSnapshot
/// documents: one count per bucket, strictly ascending bounds, counts that
/// add up to `total`, and zero stats while `total` is zero.
Status DecodeHistogram(const JsonValue& json, HistogramSnapshot* h) {
  if (!json.is_object()) return Status::InvalidArgument("is not an object");
  const JsonValue* bounds = json.Find("bounds");
  const JsonValue* counts = json.Find("counts");
  const JsonValue* total = json.Find("total");
  if (bounds == nullptr || !bounds->is_array() || counts == nullptr ||
      !counts->is_array() || total == nullptr) {
    return Status::InvalidArgument("missing bounds/counts/total");
  }
  for (const JsonValue& b : bounds->AsArray()) {
    QENS_RETURN_NOT_OK(
        Named("bound", DecodeDouble(b, &h->bounds.emplace_back())));
  }
  for (const JsonValue& c : counts->AsArray()) {
    QENS_RETURN_NOT_OK(
        Named("count", DecodeCount(c, &h->counts.emplace_back())));
  }
  QENS_RETURN_NOT_OK(Named("total", DecodeCount(*total, &h->total)));
  for (const auto& [key, out] : {std::pair{"sum", &h->sum},
                                 std::pair{"min", &h->min},
                                 std::pair{"max", &h->max}}) {
    const JsonValue* value = json.Find(key);
    QENS_RETURN_NOT_OK(Named(key, value == nullptr
                                      ? Status::InvalidArgument("missing")
                                      : DecodeDouble(*value, out)));
  }
  if (h->counts.size() != h->bounds.size() + 1) {
    return Status::InvalidArgument(StrFormat(
        "%zu counts for %zu bounds", h->counts.size(), h->bounds.size()));
  }
  for (size_t i = 1; i < h->bounds.size(); ++i) {
    if (!(h->bounds[i - 1] < h->bounds[i])) {
      return Status::InvalidArgument("bounds are not strictly ascending");
    }
  }
  uint64_t observed = 0;
  for (uint64_t c : h->counts) {
    if (c > std::numeric_limits<uint64_t>::max() - observed) {
      return Status::InvalidArgument("counts overflow");
    }
    observed += c;
  }
  if (observed != h->total) {
    return Status::InvalidArgument(
        StrFormat("counts add up to %llu, total is %llu",
                  static_cast<unsigned long long>(observed),
                  static_cast<unsigned long long>(h->total)));
  }
  if (h->total == 0 && (h->sum != 0 || h->min != 0 || h->max != 0)) {
    return Status::InvalidArgument("stats of an empty histogram are not 0");
  }
  return Status::OK();
}

}  // namespace

Result<MetricsSnapshot> ParseMetricsSnapshotJson(const std::string& text) {
  QENS_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("metrics json: not an object");
  }
  MetricsSnapshot snapshot;
  if (const JsonValue* counters = root.Find("counters")) {
    if (!counters->is_object()) {
      return Status::InvalidArgument("metrics json: counters not an object");
    }
    for (const auto& [name, value] : counters->AsObject()) {
      QENS_RETURN_NOT_OK(Named("metrics json: counter " + name,
                               DecodeCount(value, &snapshot.counters[name])));
    }
  }
  if (const JsonValue* gauges = root.Find("gauges")) {
    if (!gauges->is_object()) {
      return Status::InvalidArgument("metrics json: gauges not an object");
    }
    for (const auto& [name, value] : gauges->AsObject()) {
      QENS_RETURN_NOT_OK(Named("metrics json: gauge " + name,
                               DecodeDouble(value, &snapshot.gauges[name])));
    }
  }
  if (const JsonValue* histograms = root.Find("histograms")) {
    if (!histograms->is_object()) {
      return Status::InvalidArgument("metrics json: histograms not an object");
    }
    for (const auto& [name, value] : histograms->AsObject()) {
      QENS_RETURN_NOT_OK(
          Named("metrics json: histogram " + name,
                DecodeHistogram(value, &snapshot.histograms[name])));
    }
  }
  return snapshot;
}

}  // namespace qens::obs
