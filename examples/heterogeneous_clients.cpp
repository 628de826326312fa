// The Section II motivation, end to end: why node selection matters.
//
// Builds a homogeneous and a heterogeneous multi-site environment, runs the
// leader's pre-test (train locally, probe every node), prints the per-node
// probe losses and per-station regression fits, and shows the Table I vs
// Table II contrast: with homogeneous nodes any choice is fine; with
// heterogeneous nodes a random choice can be catastrophic.
//
// Usage: heterogeneous_clients [num_stations]   (default 8)

#include <cstdio>
#include <cstdlib>

#include "qens/data/air_quality_generator.h"
#include "qens/data/normalizer.h"
#include "qens/selection/game_theory.h"
#include "qens/tensor/stats.h"

using namespace qens;

namespace {

template <typename T>
T Die(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "error (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

void RunRegime(data::Heterogeneity regime, size_t num_stations) {
  std::printf("\n=== %s environment (%zu stations) ===\n",
              data::HeterogeneityName(regime), num_stations);

  data::AirQualityOptions options;
  options.num_stations = num_stations;
  options.samples_per_station = 1000;
  options.heterogeneity = regime;
  options.single_feature = true;
  options.seed = 31;
  data::AirQualityGenerator generator(options);
  std::vector<data::Dataset> stations =
      Die(generator.GenerateAll(), "generate");

  // Per-station regression fits (the Fig. 1/2 scatter structure).
  std::printf("%-22s %10s %12s %8s %18s\n", "station", "slope", "intercept",
              "R2", "TEMP range");
  for (size_t s = 0; s < stations.size(); ++s) {
    const stats::LinearFit fit =
        Die(stats::FitLine(stations[s].features().Col(0),
                           stations[s].TargetVector()),
            "fit");
    const query::HyperRectangle space =
        Die(stations[s].FeatureSpace(), "space");
    std::printf("%-22s %+10.3f %+12.2f %8.3f   [%6.1f, %6.1f]\n",
                generator.profiles()[s].name.c_str(), fit.slope,
                fit.intercept, fit.r_squared, space.dim(0).lo,
                space.dim(0).hi);
  }

  // Scale everything into the global min-max cube first: Table III's
  // learning rates assume normalized data (the federation layer does this
  // automatically; here we probe stations directly). Probe losses below
  // are mapped back to raw PM2.5 units.
  const data::Dataset pooled = Die(data::StackShards(stations), "pool");
  const data::Normalizer fnorm = Die(
      data::Normalizer::Fit(pooled.features(), data::ScalingKind::kMinMax),
      "feature norm");
  const data::Normalizer tnorm = Die(
      data::Normalizer::Fit(pooled.targets(), data::ScalingKind::kMinMax),
      "target norm");
  const double tscale = tnorm.scale()[0];
  const double denorm = tscale > 0 ? 1.0 / (tscale * tscale) : 1.0;
  std::vector<data::Dataset> scaled;
  for (const auto& s : stations) {
    scaled.push_back(Die(
        data::Dataset::Create(Die(fnorm.Transform(s.features()), "x"),
                              Die(tnorm.Transform(s.targets()), "y")),
        "scaled dataset"));
  }

  // The leader (station 0) probes everyone — the GT pre-round.
  selection::GameTheoryOptions gt;
  gt.model = ml::ModelKind::kLinearRegression;
  gt.loss_quantile = 0.5;
  std::vector<data::Dataset> others(scaled.begin() + 1, scaled.end());
  selection::GameTheorySelection probe = Die(
      selection::RunGameTheorySelection(scaled[0], others, gt), "probe");
  for (double& loss : probe.probe_loss) loss *= denorm;

  std::printf("\nleader(station 0) probe losses per node:");
  double lo = 1e300, hi = 0.0, sum = 0.0;
  for (size_t i = 0; i < probe.probe_loss.size(); ++i) {
    std::printf(" %.1f", probe.probe_loss[i]);
    lo = std::min(lo, probe.probe_loss[i]);
    hi = std::max(hi, probe.probe_loss[i]);
    sum += probe.probe_loss[i];
  }
  const double mean = sum / static_cast<double>(probe.probe_loss.size());
  std::printf("\nbest-match loss (all-node pre-test): %.1f\n", lo);
  std::printf("expected loss of a random pick:      %.1f\n", mean);
  std::printf("worst-case random pick:              %.1f\n", hi);
  std::printf("random/best ratio: %.1fx %s\n", mean / std::max(1e-9, lo),
              regime == data::Heterogeneity::kHomogeneous
                  ? "(homogeneous: near-tie — selection does not matter)"
                  : "(heterogeneous: selection matters a lot)");
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_stations = 8;
  if (argc > 1) num_stations = static_cast<size_t>(std::atoi(argv[1]));
  if (num_stations < 3) {
    std::fprintf(stderr, "usage: %s [num_stations>=3]\n", argv[0]);
    return 2;
  }
  RunRegime(data::Heterogeneity::kHomogeneous, num_stations);
  RunRegime(data::Heterogeneity::kHeterogeneous, num_stations);
  return 0;
}
