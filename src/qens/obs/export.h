#ifndef QENS_OBS_EXPORT_H_
#define QENS_OBS_EXPORT_H_

/// \file export.h
/// Serialization of metric snapshots (counters, gauges, histograms) to
/// machine-readable JSON, plus the inverse parser used by the round-trip
/// tests and downstream tooling. The format is documented in
/// docs/OBSERVABILITY.md.

#include <string>

#include "qens/common/status.h"
#include "qens/obs/metrics.h"

namespace qens::obs {

/// Writes `content` to `path` verbatim; IOError if it cannot. Shared by
/// every observability file writer.
Status WriteTextFile(const std::string& content, const std::string& path);

/// One JSON object: {"counters": {...}, "gauges": {...},
/// "histograms": {name: {bounds, counts, total, sum, min, max}}}. Counts
/// are exact decimal digits; non-finite doubles are the strings "NaN",
/// "Infinity" and "-Infinity".
std::string MetricsSnapshotToJson(const MetricsSnapshot& snapshot);
Status WriteMetricsSnapshotJson(const MetricsSnapshot& snapshot,
                                const std::string& path);
/// InvalidArgument on a malformed value or a histogram that breaks the
/// HistogramSnapshot invariant.
Result<MetricsSnapshot> ParseMetricsSnapshotJson(const std::string& text);

}  // namespace qens::obs

#endif  // QENS_OBS_EXPORT_H_
