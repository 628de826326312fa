// Extension bench X4: the features beyond the paper's protocol.
//   (a) baseline panorama — the paper's four mechanisms on the 80-query
//       heterogeneous workload;
//   (b) multi-round federated training — rounds sweep with FedAvg merging
//       between rounds (the paper's protocol is rounds = 1).
// Node dropout is swept by bench_x5_fault_tolerance (a).

#include <cstdio>

#include "bench_util.h"
#include "qens/common/string_util.h"

using namespace qens;

namespace {

fl::ExperimentConfig BaseConfig() {
  fl::ExperimentConfig config =
      bench::PaperConfig(data::Heterogeneity::kHeterogeneous);
  config.workload.num_queries = 80;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_x4_extensions", &argc, argv);
  bench::PrintHeader("X4 — extensions beyond the paper's protocol");

  // (a) Baseline panorama.
  std::printf("\n(a) four selection mechanisms, 80 queries\n");
  {
    fl::ExperimentRunner runner = bench::ValueOrDie(
        fl::ExperimentRunner::Create(BaseConfig()), "build");
    std::vector<fl::MechanismStats> rows;
    for (const auto& m : fl::Figure7Mechanisms()) {
      rows.push_back(
          bench::ValueOrDie(runner.RunMechanism(m), m.label.c_str()));
      bench::BenchRecord record = bench::MechanismRecord(rows.back());
      record.labels["section"] = "panorama";
      bjson.Add(std::move(record));
    }
    std::printf("%s", fl::FormatMechanismTable(rows).c_str());
    std::printf("(query-agnostic baselines cannot adapt to the query region; "
                "ours should stay lowest)\n");
  }

  // (b) Multi-round sweep.
  std::printf("\n(b) federated rounds sweep (query-driven, 30 queries)\n");
  std::printf("%-8s %12s %14s %14s\n", "rounds", "avg loss", "sim time (s)",
              "queries run");
  for (size_t rounds : {1ul, 2ul, 4ul}) {
    fl::ExperimentConfig config = BaseConfig();
    config.workload.num_queries = 30;
    fl::ExperimentRunner runner =
        bench::ValueOrDie(fl::ExperimentRunner::Create(config), "build");
    stats::RunningStats loss, time;
    size_t run = 0;
    for (const auto& q : runner.queries()) {
      auto outcome = runner.session().RunQueryMultiRound(
          q, selection::PolicyKind::kQueryDriven, true, rounds);
      bench::CheckOk(outcome.status(), "multi-round query");
      if (outcome->skipped) continue;
      ++run;
      loss.Add(outcome->loss_weighted);
      time.Add(outcome->sim_time_total + outcome->sim_time_comm);
    }
    std::printf("%-8zu %12.2f %14.4f %14zu\n", rounds, loss.mean(),
                time.mean(), run);

    bench::BenchRecord record;
    record.name = StrFormat("rounds_%zu", rounds);
    record.labels["section"] = "multi_round";
    record.values["rounds"] = static_cast<double>(rounds);
    record.values["avg_loss"] = loss.mean();
    record.values["avg_sim_time"] = time.mean();
    record.values["queries_run"] = static_cast<double>(run);
    bjson.Add(std::move(record));
  }
  std::printf("(time grows ~linearly with rounds; loss saturates quickly on "
              "this convex task)\n");

  bjson.WriteOrDie();
  return 0;
}
