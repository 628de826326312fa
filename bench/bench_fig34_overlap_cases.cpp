// Reproduces Figures 3 & 4: the five per-dimension overlapping cases, with
// a worked value table for each configuration, plus google-benchmark
// micro-timings verifying the O(d) per-cluster cost claim of Section III-C.
// Each table row must land in its figure's case with its exact h
// (bench::ShapeCheck); a miss names the row on stderr and main returns 1.
// Run with --benchmark_filter=^$ to skip the micro-timings (the tier-1
// ctest does).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "qens/common/rng.h"
#include "qens/common/stopwatch.h"
#include "qens/common/string_util.h"
#include "qens/query/overlap.h"

using namespace qens;
using query::HyperRectangle;
using query::Interval;
using query::OverlapMode;

namespace {

void PrintCaseTable() {
  std::printf(
      "\n=== Figures 3 & 4 — per-dimension overlap cases (faithful mode) "
      "===\n");
  struct Row {
    const char* figure;
    const char* description;
    Interval query;
    Interval cluster;
    query::OverlapCase kase;  ///< The figure's case.
    double h;                 ///< Its Eq. 2 ratio, exactly.
  };
  using query::OverlapCase;
  const Row rows[] = {
      {"3a", "query inside cluster", {2, 4}, {0, 10},
       OverlapCase::kQueryInsideCluster, 2.0 / 10.0},
      {"3b", "only query min inside cluster", {6, 14}, {0, 10},
       OverlapCase::kQueryMinInside, 4.0 / 14.0},
      {"3c", "only query max inside cluster", {-4, 6}, {0, 10},
       OverlapCase::kQueryMaxInside, 6.0 / 14.0},
      {"4a", "disjoint, query right of cluster", {20, 30}, {0, 10},
       OverlapCase::kDisjointQueryRight, 0.0},
      {"4b", "disjoint, query left of cluster", {-30, -20}, {0, 10},
       OverlapCase::kDisjointQueryLeft, 0.0},
      {"--", "cluster inside query (extension)", {0, 10}, {3, 5},
       OverlapCase::kClusterInsideQuery, 1.0},
  };
  std::printf("%-4s %-36s %-12s %-12s %-26s %8s\n", "fig", "configuration",
              "query", "cluster", "case", "h");
  for (const Row& row : rows) {
    const query::DimensionOverlap d = query::ComputeDimensionOverlap(
        row.query, row.cluster, OverlapMode::kFaithful);
    std::printf("%-4s %-36s [%3.0f,%3.0f]   [%3.0f,%3.0f]   %-26s %8.4f\n",
                row.figure, row.description, row.query.lo, row.query.hi,
                row.cluster.lo, row.cluster.hi, OverlapCaseName(d.kase),
                d.value);
    bench::ShapeCheck(
        StrFormat("fig %s: %s, h = %.17g", row.figure,
                  OverlapCaseName(row.kase), row.h)
            .c_str(),
        d.kase == row.kase && d.value == row.h);
  }
  std::printf("\n");
}

/// Random valid d-dimensional box.
HyperRectangle RandomBox(Rng* rng, size_t dims) {
  std::vector<Interval> intervals(dims);
  for (size_t i = 0; i < dims; ++i) {
    const double a = rng->Uniform(-100, 100);
    intervals[i] = Interval(a, a + rng->Uniform(0.1, 50));
  }
  return HyperRectangle(std::move(intervals));
}

/// Micro: Eq. 2 cost as a function of dimensionality (expected O(d)).
void BM_OverlapRate(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  Rng rng(42);
  const HyperRectangle q = RandomBox(&rng, dims);
  const HyperRectangle k = RandomBox(&rng, dims);
  for (auto _ : state) {
    auto rate = query::ComputeOverlapRate(q, k);
    benchmark::DoNotOptimize(rate);
  }
  state.SetComplexityN(static_cast<int64_t>(dims));
}
BENCHMARK(BM_OverlapRate)->RangeMultiplier(2)->Range(1, 64)->Complexity();

/// Micro: single-dimension case analysis.
void BM_DimensionOverlap(benchmark::State& state) {
  Rng rng(7);
  const Interval q(rng.Uniform(-10, 0), rng.Uniform(0, 10));
  const Interval k(rng.Uniform(-10, 0), rng.Uniform(0, 10));
  for (auto _ : state) {
    auto d = query::ComputeDimensionOverlap(q, k, OverlapMode::kFaithful);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DimensionOverlap);

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson bjson("bench_fig34_overlap_cases", &argc, argv);
  PrintCaseTable();

  // Direct O(d) scaling measurement mirrored into the JSON output (the
  // google-benchmark registrations below report the same to stdout).
  for (size_t dims : {1, 8, 64}) {
    Rng rng(42);
    const HyperRectangle q = RandomBox(&rng, dims);
    const HyperRectangle k = RandomBox(&rng, dims);
    constexpr size_t kIters = 20000;
    Stopwatch watch;
    for (size_t i = 0; i < kIters; ++i) {
      auto rate = query::ComputeOverlapRate(q, k);
      benchmark::DoNotOptimize(rate);
    }
    bench::BenchRecord record;
    record.name = StrFormat("overlap_rate_d%zu", dims);
    record.values["dims"] = static_cast<double>(dims);
    record.values["iterations"] = static_cast<double>(kIters);
    record.values["seconds_per_call"] =
        watch.ElapsedSeconds() / static_cast<double>(kIters);
    bjson.Add(std::move(record));
  }
  bjson.WriteOrDie();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return bench::ShapeCheckExitCode();
}
