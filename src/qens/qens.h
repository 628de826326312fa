#ifndef QENS_QENS_H_
#define QENS_QENS_H_

/// \file qens.h
/// Umbrella header: the whole public API of the qens library.
///
/// For finer-grained builds include the per-module headers directly; the
/// layering is
///   common -> obs -> tensor -> {ml, clustering, query, data} -> selection
///          -> {sim, fl}
/// and nothing includes upward.

// Foundations.
#include "qens/common/config.h"       // INI-style configuration.
#include "qens/common/logging.h"      // Leveled logging.
#include "qens/common/rng.h"          // Deterministic RNG.
#include "qens/common/status.h"       // Status / Result<T> error handling.
#include "qens/common/stopwatch.h"    // Wall-clock timing.
#include "qens/common/string_util.h"  // Split/trim/parse/format.

// Observability (opt-in; zero-cost while disabled).
#include "qens/obs/export.h"        // Metrics snapshot JSON/CSV exporters.
#include "qens/obs/json.h"          // Minimal JSON read/write.
#include "qens/obs/metrics.h"       // Counters, gauges, histograms.
#include "qens/obs/round_record.h"  // Per-round federation telemetry.
#include "qens/obs/trace.h"         // Scoped wall-clock spans.

// Numerics.
#include "qens/tensor/matrix.h"       // Dense row-major Matrix.
#include "qens/tensor/stats.h"        // Welford, OLS, quantiles.
#include "qens/tensor/vector_ops.h"   // Distances, norms, weight utils.

// Machine learning.
#include "qens/ml/activation.h"
#include "qens/ml/dense_layer.h"
#include "qens/ml/loss.h"
#include "qens/ml/metrics.h"
#include "qens/ml/model_factory.h"    // Table III LR / NN configurations.
#include "qens/ml/model_io.h"         // Raw QENW model wire size.
#include "qens/ml/optimizer.h"        // SGD / Adam.
#include "qens/ml/sequential_model.h"
#include "qens/ml/trainer.h"          // Keras-style training loop.

// Node-local quantization (Eq. 1).
#include "qens/clustering/cluster_summary.h"
#include "qens/clustering/kmeans.h"
#include "qens/clustering/silhouette.h"

// Queries and overlap geometry (Eqs. 2, Figs. 3-4).
#include "qens/query/hyper_rectangle.h"
#include "qens/query/overlap.h"
#include "qens/query/range_query.h"
#include "qens/query/selectivity_estimator.h"
#include "qens/query/workload_generator.h"

// Data handling and generators.
#include "qens/data/air_quality_generator.h"
#include "qens/data/csv.h"
#include "qens/data/dataset.h"
#include "qens/data/hospital_generator.h"
#include "qens/data/normalizer.h"
#include "qens/data/splitter.h"

// Node selection (Eqs. 3-5) and baselines.
#include "qens/selection/game_theory.h"
#include "qens/selection/node_profile.h"
#include "qens/selection/policies.h"
#include "qens/selection/profile_io.h"
#include "qens/selection/ranking.h"

// Simulated edge platform.
#include "qens/sim/cost_model.h"
#include "qens/sim/edge_environment.h"
#include "qens/sim/edge_node.h"
#include "qens/sim/network.h"

// Federated orchestration (Section IV) and the experiment harness.
#include "qens/fl/aggregation.h"
#include "qens/fl/experiment.h"
#include "qens/fl/leader.h"
#include "qens/fl/participant.h"
#include "qens/fl/query_session.h"

#endif  // QENS_QENS_H_
