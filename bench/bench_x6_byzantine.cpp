// Extension bench X6: Byzantine-robust aggregation.
//   (a) attacker sweep — attacker fraction in {0%, 10%, 30%} (NaN +
//       sign-flip mix) x defense (plain FedAvg without validation, FedAvg /
//       trimmed-mean / coordinate-median / norm-clipped FedAvg behind the
//       UpdateValidator): answer quality relative to each defense's own
//       fault-free run, plus diverged/errored queries and rejection counts;
//   (b) quarantine — with repeat sign-flip offenders, quarantining rejected
//       nodes converts repeated per-round rejections into cheap skips.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "qens/common/string_util.h"
#include "qens/sim/fault_injection.h"

using namespace qens;

namespace {

constexpr size_t kRounds = 3;
constexpr size_t kQueries = 30;

fl::ExperimentConfig BaseConfig() {
  fl::ExperimentConfig config =
      bench::PaperConfig(data::Heterogeneity::kHeterogeneous);
  config.workload.num_queries = kQueries;
  // A wider participant set keeps an honest majority per round with 3 of
  // the 10 nodes attacking (robust statistics need one).
  config.federation.query_driven.top_l = 5;
  // A single honest survivor may commit a round (validation can reject the
  // rest).
  config.federation.fault_tolerance.min_quorum_frac = 0.2;
  return config;
}

/// One defense configuration under test.
struct Defense {
  const char* name;        ///< Row label / JSON record name.
  bool byzantine;          ///< Validator + robust aggregation on?
  fl::AggregationKind aggregator;
};

const Defense kDefenses[] = {
    {"fedavg-unguarded", false, fl::AggregationKind::kFedAvgParameters},
    {"fedavg+validator", true, fl::AggregationKind::kFedAvgParameters},
    {"trimmed+validator", true, fl::AggregationKind::kTrimmedMean},
    {"median+validator", true, fl::AggregationKind::kCoordinateMedian},
    {"clipped+validator", true, fl::AggregationKind::kNormClippedFedAvg},
};

fl::ExperimentConfig MakeConfig(const Defense& defense, double attacker_frac,
                                size_t quarantine_rounds) {
  fl::ExperimentConfig config = BaseConfig();
  auto& ft = config.federation.fault_tolerance;
  ft.enabled = true;
  ft.faults.seed = 61;
  ft.faults.corruption_rate = attacker_frac;
  if (attacker_frac > 0.0) {
    ft.faults.corruption_kinds = {sim::CorruptionKind::kNanUpdate,
                                  sim::CorruptionKind::kSignFlip};
  }
  if (defense.byzantine) {
    auto& byz = config.federation.byzantine;
    byz.enabled = true;
    byz.aggregator = defense.aggregator;
    byz.trim_beta = 0.4;
    byz.clip_norm = 1.0;
    byz.quarantine_rounds = quarantine_rounds;
    byz.validator.check_finite = true;
    byz.validator.norm_mad_k = 8.0;
    // A sign-flipped model scores ~4x the broadcast reference's holdout
    // loss (predictions mirrored about the reference's), so factor 3
    // separates honest updates (well under the anchor) from flips even in
    // round 0, when the reference is the random init.
    byz.validator.holdout_loss_factor = 3.0;
  }
  return config;
}

struct SweepRow {
  size_t attackers = 0;  ///< Nodes the fault plan marks Byzantine.
  stats::RunningStats loss;
  size_t queries_run = 0;
  size_t queries_failed = 0;  ///< Errored (diverged) or degraded to skip.
  size_t rejected = 0;
  size_t quarantined_skips = 0;
};

SweepRow RunSweep(const fl::ExperimentConfig& config,
                  const char* debug_tag = "") {
  fl::ExperimentRunner runner =
      bench::ValueOrDie(fl::ExperimentRunner::Create(config), "build");
  const bool byz_on = config.federation.byzantine.enabled;
  SweepRow row;
  // The plan the federation draws: the same options over the same nodes.
  const sim::FaultPlan plan = bench::ValueOrDie(
      sim::FaultPlan::Create(runner.fleet()->environment.num_nodes(),
                             config.federation.fault_tolerance.faults),
      "fault plan");
  for (const sim::NodeFaultProfile& p : plan.profiles()) {
    if (p.byzantine) ++row.attackers;
  }
  for (const auto& q : runner.queries()) {
    auto outcome = runner.session().RunQueryMultiRound(
        q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true,
        kRounds);
    if (!outcome.ok()) {
      // Corrupted updates reached an aggregator that (correctly) refuses
      // non-finite input: the unguarded pipeline rejects the query.
      ++row.queries_failed;
      continue;
    }
    if (outcome->skipped) continue;
    row.rejected += outcome->rejected_updates;
    row.quarantined_skips += outcome->quarantined_skips;
    const double loss = byz_on && outcome->has_loss_robust
                            ? outcome->loss_robust
                            : outcome->loss_fedavg;
    if (!std::isfinite(loss)) {
      ++row.queries_failed;  // Numerically diverged answer.
      continue;
    }
    ++row.queries_run;
    row.loss.Add(loss);
    if (std::getenv("X6_DEBUG") != nullptr) {
      std::fprintf(stderr,
                   "%s q%llu loss=%.1f rejected=%zu quarantined=%zu "
                   "degraded=%zu survivors=%zu\n",
                   debug_tag, static_cast<unsigned long long>(q.id), loss,
                   outcome->rejected_updates, outcome->quarantined_skips,
                   outcome->degraded_rounds, outcome->survivor_weights.size());
    }
  }
  return row;
}

double FiniteOr(double value, double fallback) {
  return std::isfinite(value) ? value : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_x6_byzantine", &argc, argv);
  bench::PrintHeader("X6 — Byzantine-robust aggregation");

  // (a) Attacker fraction x defense.
  std::printf("\n(a) attacker sweep (NaN + sign-flip mix), %zu rounds/query, "
              "%zu queries\n", kRounds, kQueries);
  std::printf("%-20s %-10s %12s %9s %9s %9s %10s\n", "defense", "attackers",
              "avg loss", "vs clean", "run", "diverged", "rejected");
  for (const Defense& defense : kDefenses) {
    double clean_loss = 0.0;
    for (double frac : {0.0, 0.1, 0.3}) {
      const std::string tag =
          StrFormat("%s@%.0f", defense.name, 100.0 * frac);
      const SweepRow row = RunSweep(
          MakeConfig(defense, frac, /*quarantine_rounds=*/0), tag.c_str());
      if (frac == 0.0) clean_loss = row.loss.mean();
      const double ratio = clean_loss > 0.0 && row.queries_run > 0
                               ? row.loss.mean() / clean_loss
                               : -1.0;
      std::printf("%-20s %3.0f%% (%2zu) %12.2f %9.3f %6zu/%-2zu %9zu %10zu\n",
                  defense.name, 100.0 * frac, row.attackers,
                  row.queries_run > 0 ? row.loss.mean() : -1.0, ratio,
                  row.queries_run, kQueries, row.queries_failed,
                  row.rejected);

      bench::BenchRecord record;
      record.name = StrFormat("%s_attack%.0f", defense.name, 100.0 * frac);
      record.labels["section"] = "attacker_sweep";
      record.labels["defense"] = defense.name;
      record.labels["aggregation"] =
          fl::AggregationKindName(defense.aggregator);
      record.values["attacker_frac"] = frac;
      record.values["attackers"] = static_cast<double>(row.attackers);
      record.values["avg_loss"] =
          FiniteOr(row.queries_run > 0 ? row.loss.mean() : -1.0, -1.0);
      record.values["loss_ratio_vs_clean"] = FiniteOr(ratio, -1.0);
      record.values["queries_run"] = static_cast<double>(row.queries_run);
      record.values["queries_failed"] =
          static_cast<double>(row.queries_failed);
      record.values["rejected_updates"] = static_cast<double>(row.rejected);
      bjson.Add(std::move(record));
    }
  }
  std::printf("(attackers = fraction of the nodes, then the count the "
              "fault plan marks, ceil(fraction * nodes);\n"
              " vs clean = avg loss / the same defense's 0%%-attacker run; "
              "-1 when no query survived.\n"
              " the unguarded pipeline must diverge or reject under NaN "
              "attackers; the robust rows should hold vs clean <= 1.10)\n");

  // (b) Quarantine: repeat offenders are skipped instead of re-screened.
  std::printf("\n(b) quarantine, sign-flip attackers 30%%, %zu rounds/query\n",
              kRounds);
  std::printf("%-18s %10s %10s %12s %12s\n", "quarantine", "avg loss",
              "rejected", "quarantined", "run");
  for (size_t quarantine : {size_t{0}, size_t{2}}) {
    Defense defense{"median+validator", true,
                    fl::AggregationKind::kCoordinateMedian};
    fl::ExperimentConfig config = MakeConfig(defense, 0.3, quarantine);
    config.federation.fault_tolerance.faults.corruption_kinds = {
        sim::CorruptionKind::kSignFlip};
    const SweepRow row = RunSweep(config);
    std::printf("%-18s %10.2f %10zu %12zu %9zu/%zu\n",
                quarantine > 0 ? "2 rounds" : "off",
                row.queries_run > 0 ? row.loss.mean() : -1.0, row.rejected,
                row.quarantined_skips, row.queries_run, kQueries);

    bench::BenchRecord record;
    record.name = StrFormat("quarantine_%zu", quarantine);
    record.labels["section"] = "quarantine";
    record.labels["defense"] = defense.name;
    record.values["quarantine_rounds"] = static_cast<double>(quarantine);
    record.values["avg_loss"] =
        FiniteOr(row.queries_run > 0 ? row.loss.mean() : -1.0, -1.0);
    record.values["rejected_updates"] = static_cast<double>(row.rejected);
    record.values["quarantined_skips"] =
        static_cast<double>(row.quarantined_skips);
    record.values["queries_run"] = static_cast<double>(row.queries_run);
    bjson.Add(std::move(record));
  }
  std::printf("(with quarantine on, each rejection buys quarantined rounds of "
              "cheap skips instead of repeat screenings)\n");
  bjson.WriteOrDie();
  return 0;
}
