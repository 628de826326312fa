// X12: elastic work-stealing dispatch vs the fixed per-unit grid, under a
// straggler-heavy unit-duration profile with mixed query sizes.
//
// The workload models one federated round's local-training fan-out at
// scale: a batch of queries of mixed selection sizes (small / medium /
// large) flattened into >10k independent (query, node) training units.
// A coordinate-keyed fault plan marks ~5% of units as stragglers that cost
// ~40x the base work, so the per-unit durations are heavily skewed —
// exactly the regime the elastic scheduler exists for.
//
// The determinism contract is asserted BEFORE anything is timed: per-unit
// outputs (each a pure function of the unit's SplitRng coordinate) written
// to per-unit slots must be BITWISE identical across sequential, fixed
// per-unit dispatch, and elastic dispatch at every measured worker count,
// including under stealing. Only then are the same unit sets re-run under
// the clock.
//
// Sections:
//   equality  — bitwise slot comparison, sequential vs fixed vs elastic.
//   straggler — timed dispatch per worker count; speedup = fixed / elastic.
//
// The fixed baseline is the retired queued dispatch pattern (one Submit
// task + future per unit), kept here as a bench-local loop so the
// comparison stays measurable; elastic is ParallelUnits' CAS range
// claiming, the pool's one dispatcher. Timed runs compare the two at equal
// concurrency: ParallelUnits counts the calling thread as a participant,
// so at W workers it runs on a pool of W - 1. On multi-core hosts the win
// combines load balancing with cheaper dispatch; on a single-core host
// (degraded: true in the JSON) the balancing term vanishes and the
// measured win is the dispatch-overhead reduction alone, which is the
// floor of the real effect.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "bench_util.h"
#include "qens/common/split_rng.h"
#include "qens/common/stopwatch.h"
#include "qens/common/thread_pool.h"

namespace qens::bench {
namespace {

/// Mixed query sizes: the unit space is the concatenation of per-query
/// fan-outs — many small selections, some medium, a few cluster-wide ones.
/// Total: 64*50 + 24*200 + 8*1000 = 16000 units.
constexpr size_t kSmallQueries = 64, kSmallNodes = 50;
constexpr size_t kMediumQueries = 24, kMediumNodes = 200;
constexpr size_t kLargeQueries = 8, kLargeNodes = 1000;
constexpr size_t kUnits = kSmallQueries * kSmallNodes +
                          kMediumQueries * kMediumNodes +
                          kLargeQueries * kLargeNodes;

constexpr uint64_t kPlanSeed = 2023;
constexpr uint64_t kStragglerPermille = 50;  // ~5% of units straggle.
constexpr uint32_t kBaseIters = 64;
constexpr uint32_t kStragglerIters = kBaseIters * 40;

/// Whether the fault plan marks unit `u` a straggler — a pure function of
/// the unit coordinate, as every fault-plan draw is.
bool IsStraggler(size_t u) {
  const uint64_t draw =
      SplitRng(kPlanSeed)
          .Split(RngPurpose::kFaultStraggler)
          .Split(static_cast<uint64_t>(u))
          .Draw(0);
  return draw % 1000 < kStragglerPermille;
}

/// One unit of simulated local training: a short FMA loop seeded from the
/// unit's own stream. Returns a value that depends on every iteration, so
/// the compiler cannot elide the work and the equality section can compare
/// results bit for bit.
double UnitWork(size_t u) {
  const uint64_t key =
      SplitRng(kPlanSeed).Split(static_cast<uint64_t>(u)).key();
  const uint32_t iters = IsStraggler(u) ? kStragglerIters : kBaseIters;
  double acc = static_cast<double>(key >> 11) * 0x1.0p-53;
  for (uint32_t i = 0; i < iters; ++i) {
    acc = acc * 1.0000001 + static_cast<double>(i % 7) * 1e-9;
  }
  return acc;
}

void RunSequential(std::vector<double>& slots) {
  for (size_t u = 0; u < slots.size(); ++u) slots[u] = UnitWork(u);
}

/// The retired queued dispatch: one Submit task + future per unit,
/// collected in unit order.
void RunFixed(common::ThreadPool& pool, std::vector<double>& slots) {
  std::vector<std::future<void>> futures;
  futures.reserve(slots.size());
  for (size_t u = 0; u < slots.size(); ++u) {
    futures.push_back(pool.Submit([&slots, u] { slots[u] = UnitWork(u); }));
  }
  for (std::future<void>& future : futures) future.get();
}

void RunElastic(common::ThreadPool& pool, std::vector<double>& slots) {
  pool.ParallelUnits(slots.size(), [&](size_t u) { slots[u] = UnitWork(u); });
}

void DieOnDivergence(const std::vector<double>& expected,
                     const std::vector<double>& got, const char* path,
                     size_t workers) {
  for (size_t u = 0; u < expected.size(); ++u) {
    if (expected[u] != got[u]) {
      std::fprintf(stderr,
                   "FATAL: %s dispatch at workers=%zu diverges from "
                   "sequential at unit %zu\n",
                   path, workers, u);
      std::exit(1);
    }
  }
}

}  // namespace
}  // namespace qens::bench

int main(int argc, char** argv) {
  using namespace qens;
  using namespace qens::bench;

  BenchJson json("bench_x12_elastic_scheduling", &argc, argv);
  PrintHeader(
      "X12: elastic work-stealing vs fixed per-unit dispatch "
      "(straggler-heavy fan-out)");
  const bool degraded = json.MarkThroughputSensitive();
  const size_t hw = HardwareThreads();

  size_t stragglers = 0;
  for (size_t u = 0; u < kUnits; ++u) stragglers += IsStraggler(u) ? 1 : 0;
  std::printf(
      "units: %zu (queries: %zu small x %zu, %zu medium x %zu, %zu large "
      "x %zu), stragglers: %zu (%.1f%%, %ux work)\n",
      kUnits, kSmallQueries, kSmallNodes, kMediumQueries, kMediumNodes,
      kLargeQueries, kLargeNodes, stragglers,
      100.0 * static_cast<double>(stragglers) / kUnits,
      kStragglerIters / kBaseIters);
  std::printf("hardware threads: %zu%s\n", hw,
              degraded ? " (single core: the balancing win vanishes; the "
                         "measured speedup is dispatch overhead alone)"
                       : "");

  const std::vector<size_t> worker_counts = {0, 2, 4, 8};

  // Phase 1: the determinism contract, asserted before any timing. Every
  // dispatch path must fill the slot vector bit-identically to the
  // sequential loop at every worker count.
  std::vector<double> expected(kUnits, 0.0);
  RunSequential(expected);
  for (const size_t workers : worker_counts) {
    common::ThreadPool pool(workers);
    std::vector<double> fixed(kUnits, 0.0);
    RunFixed(pool, fixed);
    DieOnDivergence(expected, fixed, "fixed", workers);
    std::vector<double> elastic(kUnits, 0.0);
    RunElastic(pool, elastic);
    DieOnDivergence(expected, elastic, "elastic", workers);
    std::printf("workers=%zu: fixed and elastic bitwise identical to "
                "sequential\n",
                workers);
    BenchRecord record;
    record.name = "equality_w" + std::to_string(workers);
    record.labels["section"] = "equality";
    record.labels["workers"] = std::to_string(workers);
    record.values["units"] = static_cast<double>(kUnits);
    record.values["identical"] = 1.0;
    json.Add(std::move(record));
  }

  // Phase 2: timing (the equality runs double as warmup). Best-of-3 per
  // path so a scheduler hiccup does not decide the comparison.
  auto time_best_of = [&](auto&& run) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<double> slots(kUnits, 0.0);
      Stopwatch watch;
      run(slots);
      best = std::min(best, watch.ElapsedSeconds());
    }
    return best;
  };

  const double seq_seconds =
      time_best_of([&](std::vector<double>& s) { RunSequential(s); });
  std::printf("\n%-10s %14s %14s %10s\n", "workers", "fixed_s", "elastic_s",
              "speedup");
  std::printf("%-10s %14.4f %14s %10s  (sequential reference)\n", "-",
              seq_seconds, "-", "-");
  for (const size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
    common::ThreadPool fixed_pool(workers);
    common::ThreadPool elastic_pool(workers - 1);  // + the calling thread.
    const double fixed_seconds = time_best_of(
        [&](std::vector<double>& s) { RunFixed(fixed_pool, s); });
    const double elastic_seconds = time_best_of(
        [&](std::vector<double>& s) { RunElastic(elastic_pool, s); });
    const double speedup =
        elastic_seconds > 0 ? fixed_seconds / elastic_seconds : 0.0;
    std::printf("%-10zu %14.4f %14.4f %10.2f\n", workers, fixed_seconds,
                elastic_seconds, speedup);
    BenchRecord record;
    record.name = "straggler_w" + std::to_string(workers);
    record.labels["section"] = "straggler";
    record.labels["workers"] = std::to_string(workers);
    record.values["units"] = static_cast<double>(kUnits);
    record.values["fixed_seconds"] = fixed_seconds;
    record.values["elastic_seconds"] = elastic_seconds;
    record.values["sequential_seconds"] = seq_seconds;
    record.values["speedup"] = speedup;
    json.Add(std::move(record));
  }

  json.WriteOrDie();
  return 0;
}
