#include "qens/fl/aggregation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "qens/common/string_util.h"
#include "qens/tensor/vector_ops.h"

namespace qens::fl {
namespace {

/// NaN-free L2 distance-preserving checks used by the Byzantine guards.
bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

Status CheckFiniteParameters(const std::vector<ml::SequentialModel>& models,
                             const char* what) {
  for (size_t i = 0; i < models.size(); ++i) {
    if (!AllFinite(models[i].GetParameters())) {
      return Status::InvalidArgument(
          StrFormat("%s: model %zu has non-finite parameters", what, i));
    }
  }
  return Status::OK();
}

Status CheckSameArchitecture(const std::vector<ml::SequentialModel>& models,
                             const char* what) {
  for (size_t i = 1; i < models.size(); ++i) {
    if (!models[i].SameArchitecture(models[0])) {
      return Status::InvalidArgument(StrFormat(
          "%s: model %zu architecture differs from model 0", what, i));
    }
  }
  return Status::OK();
}

/// The normalized prediction weights lambda_i, after the checks every
/// prediction-space rule shares.
Result<std::vector<double>> PredictionWeights(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights) {
  if (models.empty()) {
    return Status::InvalidArgument("aggregate: no models");
  }
  if (weights.size() != models.size()) {
    return Status::InvalidArgument(
        StrFormat("aggregate: %zu weights for %zu models", weights.size(),
                  models.size()));
  }
  return vec::NormalizeWeights(weights);
}

/// Each member's prediction over `x`, in member order; fails at the first
/// member whose prediction fails or is non-finite.
Result<std::vector<Matrix>> MemberPredictions(
    const std::vector<ml::SequentialModel>& models, const Matrix& x) {
  std::vector<Matrix> preds;
  preds.reserve(models.size());
  for (size_t i = 0; i < models.size(); ++i) {
    QENS_ASSIGN_OR_RETURN(Matrix pred, models[i].Predict(x));
    if (!AllFinite(pred.data())) {
      return Status::InvalidArgument(StrFormat(
          "aggregate: model %zu produced non-finite predictions", i));
    }
    preds.push_back(std::move(pred));
  }
  return preds;
}

/// sum_i lambda_i * preds[i]: the first prediction scaled by lambda_0, then
/// one Axpy per later member, in member order.
Result<Matrix> CombinePredictions(const std::vector<Matrix>& preds,
                                  const std::vector<double>& lambda) {
  Matrix acc = preds[0];
  acc.Scale(lambda[0]);
  for (size_t i = 1; i < preds.size(); ++i) {
    QENS_RETURN_NOT_OK(acc.Axpy(lambda[i], preds[i]));
  }
  return acc;
}

}  // namespace

const char* AggregationKindName(AggregationKind kind) {
  switch (kind) {
    case AggregationKind::kModelAveraging:
      return "model-averaging";
    case AggregationKind::kWeightedAveraging:
      return "weighted-averaging";
    case AggregationKind::kFedAvgParameters:
      return "fedavg-parameters";
    case AggregationKind::kCoordinateMedian:
      return "coordinate-median";
    case AggregationKind::kTrimmedMean:
      return "trimmed-mean";
    case AggregationKind::kNormClippedFedAvg:
      return "norm-clipped-fedavg";
  }
  return "unknown";
}

Result<AggregationKind> ParseAggregationKind(const std::string& name) {
  const std::string n = ToLower(Trim(name));
  if (n == "model-averaging" || n == "average" || n == "averaging") {
    return AggregationKind::kModelAveraging;
  }
  if (n == "weighted-averaging" || n == "weighted") {
    return AggregationKind::kWeightedAveraging;
  }
  if (n == "fedavg-parameters" || n == "fedavg") {
    return AggregationKind::kFedAvgParameters;
  }
  if (n == "coordinate-median" || n == "median") {
    return AggregationKind::kCoordinateMedian;
  }
  if (n == "trimmed-mean" || n == "trimmed") {
    return AggregationKind::kTrimmedMean;
  }
  if (n == "norm-clipped-fedavg" || n == "clipped") {
    return AggregationKind::kNormClippedFedAvg;
  }
  return Status::InvalidArgument("unknown aggregation: '" + name + "'");
}

bool IsParameterSpace(AggregationKind kind) {
  switch (kind) {
    case AggregationKind::kFedAvgParameters:
    case AggregationKind::kCoordinateMedian:
    case AggregationKind::kTrimmedMean:
    case AggregationKind::kNormClippedFedAvg:
      return true;
    case AggregationKind::kModelAveraging:
    case AggregationKind::kWeightedAveraging:
      return false;
  }
  return false;
}

Result<ml::SequentialModel> FedAvgParameters(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights) {
  if (models.empty()) return Status::InvalidArgument("fedavg: no models");
  if (weights.size() != models.size()) {
    return Status::InvalidArgument(
        StrFormat("fedavg: %zu weights for %zu models", weights.size(),
                  models.size()));
  }
  QENS_RETURN_NOT_OK(CheckSameArchitecture(models, "fedavg"));
  QENS_RETURN_NOT_OK(CheckFiniteParameters(models, "fedavg"));
  QENS_ASSIGN_OR_RETURN(std::vector<double> lambda,
                        vec::NormalizeWeights(weights));

  std::vector<double> params = models[0].GetParameters();
  for (double& p : params) p *= lambda[0];
  for (size_t i = 1; i < models.size(); ++i) {
    const std::vector<double> pi = models[i].GetParameters();
    vec::AxpyInPlace(&params, lambda[i], pi);
  }
  ml::SequentialModel out = models[0].Clone();
  QENS_RETURN_NOT_OK(out.SetParameters(params));
  return out;
}

namespace {

/// Shared entry checks for the robust parameter aggregators.
Status CheckRobustInput(const std::vector<ml::SequentialModel>& models,
                        const char* what) {
  if (models.empty()) {
    return Status::InvalidArgument(StrFormat("%s: no models", what));
  }
  QENS_RETURN_NOT_OK(CheckSameArchitecture(models, what));
  return CheckFiniteParameters(models, what);
}

/// Median of `column` (sorted in place). Even counts average the two
/// middle values.
double MedianInPlace(std::vector<double>* column) {
  std::sort(column->begin(), column->end());
  const size_t n = column->size();
  return n % 2 == 1 ? (*column)[n / 2]
                    : 0.5 * ((*column)[n / 2 - 1] + (*column)[n / 2]);
}

/// Mean of `column` (sorted in place) after dropping `trim` values from
/// each end. Caller guarantees 2 * trim < column->size().
double TrimmedMeanInPlace(std::vector<double>* column, size_t trim) {
  std::sort(column->begin(), column->end());
  double sum = 0.0;
  for (size_t i = trim; i < column->size() - trim; ++i) sum += (*column)[i];
  return sum / static_cast<double>(column->size() - 2 * trim);
}

Result<size_t> TrimCount(size_t n, double trim_beta) {
  if (!(trim_beta >= 0.0) || trim_beta >= 0.5) {
    return Status::InvalidArgument(StrFormat(
        "trimmed-mean: trim_beta must be in [0, 0.5), got %g", trim_beta));
  }
  const size_t trim = static_cast<size_t>(trim_beta * static_cast<double>(n));
  if (2 * trim >= n) {
    return Status::InvalidArgument(StrFormat(
        "trimmed-mean: trimming %zu from each end leaves no values (n=%zu)",
        trim, n));
  }
  return trim;
}

/// Coordinate-wise reduce over the models' flat parameter vectors.
template <typename Reduce>
Result<ml::SequentialModel> ReduceParameters(
    const std::vector<ml::SequentialModel>& models, Reduce reduce) {
  std::vector<std::vector<double>> params;
  params.reserve(models.size());
  for (const auto& m : models) params.push_back(m.GetParameters());
  std::vector<double> merged(params[0].size());
  std::vector<double> column(models.size());
  for (size_t p = 0; p < merged.size(); ++p) {
    for (size_t i = 0; i < models.size(); ++i) column[i] = params[i][p];
    merged[p] = reduce(&column);
  }
  ml::SequentialModel out = models[0].Clone();
  QENS_RETURN_NOT_OK(out.SetParameters(merged));
  return out;
}

Result<ml::SequentialModel> CoordinateMedianParameters(
    const std::vector<ml::SequentialModel>& models) {
  QENS_RETURN_NOT_OK(CheckRobustInput(models, "coordinate-median"));
  return ReduceParameters(models, MedianInPlace);
}

Result<ml::SequentialModel> TrimmedMeanParameters(
    const std::vector<ml::SequentialModel>& models, double trim_beta) {
  QENS_RETURN_NOT_OK(CheckRobustInput(models, "trimmed-mean"));
  QENS_ASSIGN_OR_RETURN(size_t trim, TrimCount(models.size(), trim_beta));
  return ReduceParameters(models, [trim](std::vector<double>* column) {
    return TrimmedMeanInPlace(column, trim);
  });
}

Result<ml::SequentialModel> FedAvgNormClipped(
    const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights, const ml::SequentialModel& reference,
    double clip_norm) {
  QENS_RETURN_NOT_OK(CheckRobustInput(models, "clipped-fedavg"));
  if (weights.size() != models.size()) {
    return Status::InvalidArgument(
        StrFormat("clipped-fedavg: %zu weights for %zu models",
                  weights.size(), models.size()));
  }
  if (!models[0].SameArchitecture(reference)) {
    return Status::InvalidArgument(
        "clipped-fedavg: reference architecture differs from the models");
  }
  if (!(clip_norm > 0.0) || !std::isfinite(clip_norm)) {
    return Status::InvalidArgument(StrFormat(
        "clipped-fedavg: clip_norm must be finite and > 0, got %g",
        clip_norm));
  }
  const std::vector<double> ref = reference.GetParameters();
  if (!AllFinite(ref)) {
    return Status::InvalidArgument(
        "clipped-fedavg: reference has non-finite parameters");
  }
  QENS_ASSIGN_OR_RETURN(std::vector<double> lambda,
                        vec::NormalizeWeights(weights));
  std::vector<double> merged = ref;
  for (size_t i = 0; i < models.size(); ++i) {
    std::vector<double> delta = vec::Sub(models[i].GetParameters(), ref);
    const double norm = vec::Norm2(delta);
    const double scale =
        norm > clip_norm ? lambda[i] * clip_norm / norm : lambda[i];
    vec::AxpyInPlace(&merged, scale, delta);
  }
  ml::SequentialModel out = models[0].Clone();
  QENS_RETURN_NOT_OK(out.SetParameters(merged));
  return out;
}

}  // namespace

Result<ml::SequentialModel> MergeParameters(
    AggregationKind kind, const std::vector<ml::SequentialModel>& models,
    const std::vector<double>& weights,
    const RobustAggregationOptions& robust) {
  if (!IsParameterSpace(kind)) {
    return Status::InvalidArgument(
        StrFormat("merge: %s is not a parameter-space aggregation",
                  AggregationKindName(kind)));
  }
  switch (kind) {
    case AggregationKind::kCoordinateMedian:
      return CoordinateMedianParameters(models);
    case AggregationKind::kTrimmedMean:
      return TrimmedMeanParameters(models, robust.trim_beta);
    case AggregationKind::kNormClippedFedAvg:
      if (robust.reference == nullptr) {
        return Status::InvalidArgument(
            "merge: norm-clipped-fedavg needs robust.reference");
      }
      return FedAvgNormClipped(models, weights, *robust.reference,
                               robust.clip_norm);
    default:
      return FedAvgParameters(models, weights);
  }
}

Result<std::vector<double>> PartialWeights(const std::vector<double>& weights,
                                           const std::vector<bool>& alive) {
  if (alive.size() != weights.size()) {
    return Status::InvalidArgument(
        StrFormat("partial weights: %zu alive flags for %zu weights",
                  alive.size(), weights.size()));
  }
  size_t survivors = 0;
  double survivor_mass = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] < 0.0) {
      return Status::InvalidArgument("partial weights: negative weight");
    }
    if (alive[i]) {
      ++survivors;
      survivor_mass += weights[i];
    }
  }
  if (survivors == 0) {
    return Status::FailedPrecondition("partial weights: no survivors");
  }
  // Equal-weight fallback also when the surviving mass is denormal: a
  // sub-normal sum (e.g. weights {1e-320, 0, 0}) survives the > 0 test but
  // dividing by it overflows into huge or infinite lambdas.
  const bool usable_mass =
      survivor_mass >= std::numeric_limits<double>::min();
  std::vector<double> out(weights.size(), 0.0);
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!alive[i]) continue;
    out[i] = usable_mass ? weights[i] / survivor_mass
                         : 1.0 / static_cast<double>(survivors);
  }
  return out;
}

bool MeetsQuorum(size_t survivors, size_t planned, double min_quorum_frac) {
  if (survivors == 0) return false;
  const double frac = std::min(1.0, std::max(0.0, min_quorum_frac));
  const size_t needed =
      static_cast<size_t>(std::ceil(frac * static_cast<double>(planned)));
  return survivors >= needed;
}

Result<EnsembleModel> EnsembleModel::Create(
    std::vector<ml::SequentialModel> models, std::vector<double> weights) {
  if (models.empty()) return Status::InvalidArgument("ensemble: no models");
  if (weights.size() != models.size()) {
    return Status::InvalidArgument(
        StrFormat("ensemble: %zu weights for %zu models", weights.size(),
                  models.size()));
  }
  for (double w : weights) {
    if (w < 0.0) {
      return Status::InvalidArgument("ensemble: negative weight");
    }
  }
  return EnsembleModel(std::move(models), std::move(weights));
}

Result<EnsembleLosses> EnsembleModel::ScoreMse(const Matrix& x,
                                               const Matrix& y) const {
  QENS_ASSIGN_OR_RETURN(
      std::vector<double> equal,
      PredictionWeights(models_, std::vector<double>(models_.size(), 1.0)));
  QENS_ASSIGN_OR_RETURN(std::vector<double> lambda,
                        PredictionWeights(models_, weights_));
  const size_t members = models_.size();
  const size_t n = x.rows();
  // Member i predicts straight into preds[i * n, (i + 1) * n); the merged
  // model's predictions follow the last member's.
  std::vector<double> preds((members + 1) * n);
  ml::TrainWorkspace ws;
  for (size_t i = 0; i < members; ++i) {
    const std::span<double> p(preds.data() + i * n, n);
    QENS_RETURN_NOT_OK(models_[i].PredictColumnInto(x, &ws, p));
    if (!std::all_of(p.begin(), p.end(),
                     [](double v) { return std::isfinite(v); })) {
      return Status::InvalidArgument(StrFormat(
          "aggregate: model %zu produced non-finite predictions", i));
    }
  }
  if (y.rows() != n || y.cols() != 1) {
    return Status::InvalidArgument(StrFormat(
        "loss: pred %zux1 vs target %zux%zu", n, y.rows(), y.cols()));
  }
  if (n == 0) return Status::InvalidArgument("loss: empty inputs");
  QENS_ASSIGN_OR_RETURN(
      ml::SequentialModel merged,
      MergeParameters(AggregationKind::kFedAvgParameters, models_, weights_));
  double* fed = preds.data() + members * n;
  QENS_RETURN_NOT_OK(merged.PredictColumnInto(x, &ws, std::span(fed, n)));

  const double* t = y.data().data();
  double sum_avg = 0.0;
  double sum_weighted = 0.0;
  double sum_fedavg = 0.0;
  for (size_t r = 0; r < n; ++r) {
    double avg = preds[r] * equal[0];
    double weighted = preds[r] * lambda[0];
    for (size_t i = 1; i < members; ++i) {
      avg += equal[i] * preds[i * n + r];
      weighted += lambda[i] * preds[i * n + r];
    }
    const double d_avg = avg - t[r];
    const double d_weighted = weighted - t[r];
    const double d_fedavg = fed[r] - t[r];
    sum_avg += d_avg * d_avg;
    sum_weighted += d_weighted * d_weighted;
    sum_fedavg += d_fedavg * d_fedavg;
  }
  const double rows = static_cast<double>(n);
  return EnsembleLosses{sum_avg / rows, sum_weighted / rows,
                        sum_fedavg / rows};
}

Result<Matrix> EnsembleModel::Predict(
    const Matrix& x, AggregationKind kind,
    const RobustAggregationOptions& robust) const {
  if (IsParameterSpace(kind)) {
    QENS_ASSIGN_OR_RETURN(ml::SequentialModel merged,
                          MergeParameters(kind, models_, weights_, robust));
    return merged.Predict(x);
  }
  QENS_ASSIGN_OR_RETURN(
      std::vector<double> lambda,
      PredictionWeights(models_,
                        kind == AggregationKind::kWeightedAveraging
                            ? weights_
                            : std::vector<double>(models_.size(), 1.0)));
  QENS_ASSIGN_OR_RETURN(std::vector<Matrix> preds,
                        MemberPredictions(models_, x));
  return CombinePredictions(preds, lambda);
}

}  // namespace qens::fl
