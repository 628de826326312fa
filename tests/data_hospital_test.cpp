// Tests for the multi-hospital generator: schema, determinism, cohort
// specialization, ground-truth coherence, and end-to-end selection shape.

#include "qens/data/hospital_generator.h"

#include <gtest/gtest.h>

#include "qens/fl/query_session.h"
#include "qens/tensor/stats.h"

namespace qens::data {
namespace {

HospitalOptions SmallOptions(bool specialized) {
  HospitalOptions options;
  options.num_hospitals = 6;
  options.patients_per_hospital = 400;
  options.specialized = specialized;
  options.seed = 3;
  return options;
}

TEST(HospitalGeneratorTest, SchemaAndShape) {
  HospitalGenerator gen(SmallOptions(true));
  auto d = gen.GenerateHospital(0);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->NumSamples(), 400u);
  EXPECT_EQ(d->NumFeatures(), 3u);
  EXPECT_EQ(d->feature_names(),
            (std::vector<std::string>{"AGE", "BMI", "SBP"}));
  EXPECT_EQ(d->target_name(), "RISK");
}

TEST(HospitalGeneratorTest, Deterministic) {
  HospitalGenerator g1(SmallOptions(true));
  HospitalGenerator g2(SmallOptions(true));
  auto d1 = g1.GenerateHospital(2);
  auto d2 = g2.GenerateHospital(2);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d1->features().data(), d2->features().data());
}

TEST(HospitalGeneratorTest, PhysiologicalRanges) {
  HospitalGenerator gen(SmallOptions(true));
  auto all = gen.GenerateAll();
  ASSERT_TRUE(all.ok());
  for (const auto& d : *all) {
    for (size_t i = 0; i < d.NumSamples(); ++i) {
      EXPECT_GE(d.features()(i, 0), 0.0);    // AGE.
      EXPECT_LE(d.features()(i, 0), 100.0);
      EXPECT_GE(d.features()(i, 1), 14.0);   // BMI.
      EXPECT_LE(d.features()(i, 1), 50.0);
      EXPECT_GE(d.features()(i, 2), 80.0);   // SBP.
      EXPECT_LE(d.features()(i, 2), 220.0);
      EXPECT_GE(d.targets()(i, 0), 0.0);     // RISK.
    }
  }
}

TEST(HospitalGeneratorTest, SpecializedCohortsSpreadAcrossAges) {
  HospitalGenerator gen(SmallOptions(true));
  double min_center = 200, max_center = -1;
  for (const auto& p : gen.profiles()) {
    min_center = std::min(min_center, p.age_center);
    max_center = std::max(max_center, p.age_center);
  }
  EXPECT_LT(min_center, 20.0);   // A pediatric-ish site exists.
  EXPECT_GT(max_center, 70.0);   // A geriatric-ish site exists.
}

TEST(HospitalGeneratorTest, GeneralPopulationMode) {
  HospitalGenerator gen(SmallOptions(false));
  for (const auto& p : gen.profiles()) {
    EXPECT_DOUBLE_EQ(p.age_center, 45.0);
  }
}

TEST(HospitalGeneratorTest, TrueRiskMonotoneInAge) {
  double prev = -1.0;
  for (double age : {10.0, 30.0, 50.0, 70.0, 90.0}) {
    const double risk = HospitalGenerator::TrueRisk(age, 25.0, 120.0);
    EXPECT_GT(risk, prev);
    prev = risk;
  }
}

TEST(HospitalGeneratorTest, LocalSlopesDifferAcrossCohorts) {
  // The pediatric site's RISK~AGE slope is much flatter than the
  // middle-aged site's (the sigmoid's steep section) — the same
  // regional-pattern heterogeneity as the air-quality V-curve.
  HospitalOptions options = SmallOptions(true);
  options.patients_per_hospital = 1500;
  HospitalGenerator gen(options);
  auto young = gen.GenerateHospital(0);
  ASSERT_TRUE(young.ok());
  auto mid = gen.GenerateHospital(4);  // Centers near the sigmoid knee.
  ASSERT_TRUE(mid.ok());
  auto fit_young = stats::FitLine(young->features().Col(0),
                                  young->TargetVector());
  auto fit_mid = stats::FitLine(mid->features().Col(0), mid->TargetVector());
  ASSERT_TRUE(fit_young.ok());
  ASSERT_TRUE(fit_mid.ok());
  EXPECT_GT(fit_mid->slope, 2.0 * std::max(0.0, fit_young->slope));
}

TEST(HospitalGeneratorTest, OutOfRangeAndZeroPatients) {
  HospitalGenerator gen(SmallOptions(true));
  EXPECT_TRUE(gen.GenerateHospital(99).status().IsOutOfRange());
  HospitalOptions bad = SmallOptions(true);
  bad.patients_per_hospital = 0;
  HospitalGenerator gen2(bad);
  EXPECT_FALSE(gen2.GenerateHospital(0).ok());
}

TEST(HospitalFederationTest, AgeRangeQuerySelectsMatchingHospitals) {
  // End-to-end shape: a geriatric query must not select the pediatric
  // hospital under the query-driven mechanism.
  HospitalOptions options = SmallOptions(true);
  options.num_hospitals = 5;
  HospitalGenerator gen(options);

  fl::FederationOptions fed_options;
  fed_options.environment.kmeans.k = 4;
  fed_options.ranking.epsilon = 0.15;
  fed_options.query_driven.top_l = 2;
  fed_options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  fed_options.hyper.epochs = 15;
  fed_options.epochs_per_cluster = 6;
  fed_options.seed = 5;
  auto fleet = fl::Fleet::Create(gen.GenerateAll().value(), fed_options);
  ASSERT_TRUE(fleet.ok());
  auto session = fl::QuerySession::Create(*fleet, fl::QuerySessionOptions{});
  ASSERT_TRUE(session.ok());

  const query::HyperRectangle& space = (*fleet)->raw_space;
  query::RangeQuery geriatric;
  geriatric.region = query::HyperRectangle(std::vector<query::Interval>{
      query::Interval(70.0, 95.0), space.dim(1), space.dim(2)});
  auto outcome = session->RunQuery(geriatric,
                                   selection::PolicyKind::kQueryDriven,
                                   /*data_selectivity=*/true);
  ASSERT_TRUE(outcome.ok());
  if (!outcome->skipped) {
    // Hospital 0 is the youngest cohort (center < 20y): it must not rank
    // into a 70-95y query's top-2.
    for (size_t id : outcome->selected_nodes) EXPECT_NE(id, 0u);
  }
}

}  // namespace
}  // namespace qens::data
