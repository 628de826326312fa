#ifndef QENS_OBS_EXPORT_H_
#define QENS_OBS_EXPORT_H_

/// \file export.h
/// Serialization of metric snapshots (counters, gauges, histograms) to
/// machine-readable JSON and CSV, plus the inverse parsers used by the
/// round-trip tests and downstream tooling. The formats are documented in
/// docs/OBSERVABILITY.md.

#include <string>

#include "qens/common/status.h"
#include "qens/obs/metrics.h"

namespace qens::obs {

/// Writes `content` to `path` verbatim; IOError if it cannot. Shared by
/// every observability file writer.
Status WriteTextFile(const std::string& content, const std::string& path);

/// One JSON object: {"counters": {...}, "gauges": {...},
/// "histograms": {name: {bounds, counts, total, sum, min, max}}}.
std::string MetricsSnapshotToJson(const MetricsSnapshot& snapshot);
Status WriteMetricsSnapshotJson(const MetricsSnapshot& snapshot,
                                const std::string& path);
Result<MetricsSnapshot> ParseMetricsSnapshotJson(const std::string& text);

/// CSV rows `kind,name,value` (counter/gauge) and
/// `histogram,name,total,sum,min,max,bounds...,counts...` flattened with
/// '|'-joined numeric lists.
std::string MetricsSnapshotToCsv(const MetricsSnapshot& snapshot);
Status WriteMetricsSnapshotCsv(const MetricsSnapshot& snapshot,
                               const std::string& path);
Result<MetricsSnapshot> ParseMetricsSnapshotCsv(const std::string& text);

}  // namespace qens::obs

#endif  // QENS_OBS_EXPORT_H_
