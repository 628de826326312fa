#include "qens/obs/export.h"

#include <fstream>
#include <sstream>

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

namespace {

std::string JoinNumbers(const std::vector<double>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back('|');
    out += JsonNumber(values[i]);
  }
  return out;
}

std::string JoinCounts(const std::vector<uint64_t>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back('|');
    out += StrFormat("%llu", static_cast<unsigned long long>(values[i]));
  }
  return out;
}

}  // namespace

std::string MetricsSnapshotToJson(const MetricsSnapshot& snapshot) {
  JsonValue root = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.Set(name, JsonValue::Number(static_cast<double>(value)));
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
    for (uint64_t c : h.counts) {
      counts.Append(JsonValue::Number(static_cast<double>(c)));
    }
    hist.Set("counts", std::move(counts));
    hist.Set("total", JsonValue::Number(static_cast<double>(h.total)));
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
      if (!value.is_number()) {
        return Status::InvalidArgument("metrics json: gauge " + name);
      }
      snapshot.gauges[name] = value.AsNumber();
    }
  }
  if (const JsonValue* histograms = root.Find("histograms")) {
    if (!histograms->is_object()) {
      return Status::InvalidArgument("metrics json: histograms not an object");
    }
    for (const auto& [name, value] : histograms->AsObject()) {
      if (!value.is_object()) {
        return Status::InvalidArgument("metrics json: histogram " + name);
      }
      HistogramSnapshot h;
      const JsonValue* bounds = value.Find("bounds");
      const JsonValue* counts = value.Find("counts");
      if (bounds == nullptr || !bounds->is_array() || counts == nullptr ||
          !counts->is_array()) {
        return Status::InvalidArgument(
            "metrics json: histogram " + name + " missing bounds/counts");
      }
      for (const JsonValue& b : bounds->AsArray()) {
        if (!b.is_number()) {
          return Status::InvalidArgument("metrics json: bad bound in " + name);
        }
        h.bounds.push_back(b.AsNumber());
      }
      for (const JsonValue& c : counts->AsArray()) {
        QENS_RETURN_NOT_OK(Named("metrics json: count in " + name,
                                 DecodeCount(c, &h.counts.emplace_back())));
      }
      const JsonValue* total = value.Find("total");
      QENS_RETURN_NOT_OK(Named(
          "metrics json: total in " + name,
          total == nullptr ? Status::InvalidArgument("missing")
                           : DecodeCount(*total, &h.total)));
      QENS_ASSIGN_OR_RETURN(h.sum, value.GetNumber("sum"));
      QENS_ASSIGN_OR_RETURN(h.min, value.GetNumber("min"));
      QENS_ASSIGN_OR_RETURN(h.max, value.GetNumber("max"));
      snapshot.histograms[name] = std::move(h);
    }
  }
  return snapshot;
}

std::string MetricsSnapshotToCsv(const MetricsSnapshot& snapshot) {
  std::string out = "kind,name,value\n";
  for (const auto& [name, value] : snapshot.counters) {
    out += StrFormat("counter,%s,%llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += StrFormat("gauge,%s,%s\n", name.c_str(), JsonNumber(value).c_str());
  }
  for (const auto& [name, h] : snapshot.histograms) {
    out += StrFormat("histogram,%s,total=%llu|sum=%s|min=%s|max=%s,%s,%s\n",
                     name.c_str(), static_cast<unsigned long long>(h.total),
                     JsonNumber(h.sum).c_str(), JsonNumber(h.min).c_str(),
                     JsonNumber(h.max).c_str(), JoinNumbers(h.bounds).c_str(),
                     JoinCounts(h.counts).c_str());
  }
  return out;
}

Status WriteMetricsSnapshotCsv(const MetricsSnapshot& snapshot,
                               const std::string& path) {
  return WriteTextFile(MetricsSnapshotToCsv(snapshot), path);
}

Result<MetricsSnapshot> ParseMetricsSnapshotCsv(const std::string& text) {
  MetricsSnapshot snapshot;
  std::istringstream in(text);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    if (first) {
      first = false;
      if (Trim(line) != "kind,name,value") {
        return Status::InvalidArgument("metrics csv: unexpected header " +
                                       line);
      }
      continue;
    }
    const std::vector<std::string> cells = Split(line, ',');
    const bool histogram = cells[0] == "histogram";
    if (cells.size() != (histogram ? 5u : 3u)) {
      return Status::InvalidArgument("metrics csv: bad row " + line);
    }
    if (cells[0] == "counter") {
      QENS_RETURN_NOT_OK(
          Named("metrics csv: counter " + cells[1],
                DecodeToken(cells[2], &snapshot.counters[cells[1]])));
    } else if (cells[0] == "gauge") {
      QENS_RETURN_NOT_OK(
          Named("metrics csv: gauge " + cells[1],
                DecodeToken(cells[2], &snapshot.gauges[cells[1]])));
    } else if (histogram) {
      HistogramSnapshot h;
      for (const std::string& kv : Split(cells[2], '|')) {
        const std::vector<std::string> parts = Split(kv, '=');
        if (parts.size() != 2) {
          return Status::InvalidArgument("metrics csv: bad stat " + kv);
        }
        Status status;
        if (parts[0] == "total") {
          status = DecodeToken(parts[1], &h.total);
        } else if (parts[0] == "sum") {
          status = DecodeToken(parts[1], &h.sum);
        } else if (parts[0] == "min") {
          status = DecodeToken(parts[1], &h.min);
        } else if (parts[0] == "max") {
          status = DecodeToken(parts[1], &h.max);
        } else {
          return Status::InvalidArgument("metrics csv: unknown stat " +
                                         parts[0]);
        }
        QENS_RETURN_NOT_OK(Named("metrics csv: " + parts[0] + " in " +
                                     cells[1],
                                 status));
      }
      if (!cells[3].empty()) {
        for (const std::string& b : Split(cells[3], '|')) {
          QENS_RETURN_NOT_OK(Named("metrics csv: bound in " + cells[1],
                                   DecodeToken(b, &h.bounds.emplace_back())));
        }
      }
      if (!cells[4].empty()) {
        for (const std::string& c : Split(cells[4], '|')) {
          QENS_RETURN_NOT_OK(Named("metrics csv: count in " + cells[1],
                                   DecodeToken(c, &h.counts.emplace_back())));
        }
      }
      snapshot.histograms[cells[1]] = std::move(h);
    } else {
      return Status::InvalidArgument("metrics csv: unknown kind " + cells[0]);
    }
  }
  return snapshot;
}

}  // namespace qens::obs
