// Reproduces Figures 1 & 2: the scatter structure that motivates node
// selection. Fig. 1 — two homogeneous participants whose data patterns
// coincide (similar regression fits). Fig. 2 — heterogeneous participants
// where one matches the global pattern and another has a very different
// (sign-flipped) pattern.
//
// The bench emits the per-station OLS fits (slope/intercept/R^2) and a
// compact CSV of the (TEMP, PM2.5) series so the scatter plots can be
// redrawn, then checks the similarity/dissimilarity shape.

#include <cstdio>

#include "bench_util.h"
#include "qens/data/air_quality_generator.h"
#include "qens/tensor/stats.h"

using namespace qens;

namespace {

stats::LinearFit FitStation(const data::Dataset& d) {
  return bench::ValueOrDie(
      stats::FitLine(d.features().Col(0), d.TargetVector()), "fit");
}

void EmitSample(const char* tag, const data::Dataset& d, size_t count) {
  std::printf("# scatter series %s (TEMP, PM2.5), first %zu points\n", tag,
              count);
  for (size_t i = 0; i < std::min(count, d.NumSamples()); ++i) {
    std::printf("%s,%.2f,%.2f\n", tag, d.features()(i, 0), d.targets()(i, 0));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_fig12_participant_similarity", &argc, argv);
  bench::PrintHeader(
      "Figures 1 & 2 — similar vs dissimilar participants (scatter data + "
      "OLS fits)");

  // Fig. 1: homogeneous regime — any two participants look alike.
  data::AirQualityOptions homo;
  homo.num_stations = 10;
  homo.samples_per_station = 800;
  homo.heterogeneity = data::Heterogeneity::kHomogeneous;
  homo.single_feature = true;
  homo.seed = 5;
  data::AirQualityGenerator homo_gen(homo);
  data::Dataset h0 = bench::ValueOrDie(homo_gen.GenerateStation(0), "h0");
  data::Dataset h7 = bench::ValueOrDie(homo_gen.GenerateStation(7), "h7");
  const stats::LinearFit fit_h0 = FitStation(h0);
  const stats::LinearFit fit_h7 = FitStation(h7);

  std::printf("\nFig. 1 (homogeneous): station fits PM2.5 ~ TEMP\n");
  std::printf("  selected   : slope %+.3f intercept %+.2f R2 %.3f\n",
              fit_h0.slope, fit_h0.intercept, fit_h0.r_squared);
  std::printf("  random pick: slope %+.3f intercept %+.2f R2 %.3f\n",
              fit_h7.slope, fit_h7.intercept, fit_h7.r_squared);
  std::printf("  shape check: same slope sign (%s), relative slope gap %.2f\n",
              bench::ShapeCheck("fig1: same slope sign",
                                fit_h0.slope * fit_h7.slope > 0),
              std::abs(fit_h0.slope - fit_h7.slope) /
                  std::max(1e-9, std::abs(fit_h0.slope)));

  // Fig. 2: heterogeneous regime — cold-region vs warm-region stations.
  data::AirQualityOptions hetero = homo;
  hetero.heterogeneity = data::Heterogeneity::kHeterogeneous;
  data::AirQualityGenerator hetero_gen(hetero);
  data::Dataset cold = bench::ValueOrDie(hetero_gen.GenerateStation(0), "c");
  data::Dataset warm = bench::ValueOrDie(
      hetero_gen.GenerateStation(hetero.num_stations - 1), "w");
  const stats::LinearFit fit_cold = FitStation(cold);
  const stats::LinearFit fit_warm = FitStation(warm);

  std::printf("\nFig. 2 (heterogeneous): station fits PM2.5 ~ TEMP\n");
  std::printf("  similar node   : slope %+.3f intercept %+.2f R2 %.3f\n",
              fit_warm.slope, fit_warm.intercept, fit_warm.r_squared);
  std::printf("  dissimilar node: slope %+.3f intercept %+.2f R2 %.3f\n",
              fit_cold.slope, fit_cold.intercept, fit_cold.r_squared);
  std::printf("  shape check: opposite slope signs (%s)\n",
              bench::ShapeCheck("fig2: opposite slope signs",
                                fit_cold.slope * fit_warm.slope < 0));

  std::printf("\n");
  EmitSample("fig1_selected", h0, 40);
  EmitSample("fig1_random", h7, 40);
  EmitSample("fig2_similar", warm, 40);
  EmitSample("fig2_dissimilar", cold, 40);

  auto fit_record = [](const char* name, const stats::LinearFit& fit) {
    bench::BenchRecord record;
    record.name = name;
    record.values["slope"] = fit.slope;
    record.values["intercept"] = fit.intercept;
    record.values["r_squared"] = fit.r_squared;
    return record;
  };
  bjson.Add(fit_record("fig1_selected", fit_h0));
  bjson.Add(fit_record("fig1_random", fit_h7));
  bjson.Add(fit_record("fig2_similar", fit_warm));
  bjson.Add(fit_record("fig2_dissimilar", fit_cold));
  bjson.WriteOrDie();
  return bench::ShapeCheckExitCode();
}
