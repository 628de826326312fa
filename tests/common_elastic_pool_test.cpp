// ThreadPool::ParallelUnits, the pool's one dispatcher: every unit runs
// exactly once under any steal schedule, outputs collected in per-unit
// slots are bit-identical to a sequential loop at every worker count, and
// ParallelChunks (one unit per chunk) keeps the count-independent chunk
// grid so ascending-chunk reductions stay bit-identical to sequential. The
// steal-heavy stress cases double as the TSan target for the claim/steal
// atomics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <utility>
#include <thread>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/common/thread_pool.h"

namespace qens::common {
namespace {

/// The worker counts the determinism contract is pinned at (0 clamps to 1
/// inside ThreadPool; the caller participates on top of the pool workers).
const size_t kWorkerCounts[] = {0, 2, 4, 8};

TEST(ElasticPoolTest, EveryUnitRunsExactlyOnce) {
  for (const size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    for (const size_t units : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                               size_t{1000}}) {
      std::vector<std::atomic<uint32_t>> hits(units);
      pool.ParallelUnits(units, [&](size_t u) { ++hits[u]; });
      for (size_t u = 0; u < units; ++u) {
        ASSERT_EQ(hits[u].load(), 1u)
            << "workers " << workers << " units " << units << " unit " << u;
      }
    }
  }
}

TEST(ElasticPoolTest, SlotOutputsBitIdenticalToSequentialUnderStealing) {
  // Per-unit randomness keyed by the unit coordinate, written to per-unit
  // slots: the collected vector must match a plain sequential loop bit for
  // bit at every worker count. Skewed unit durations force the fast ranges
  // to drain and steal from the slow one.
  const size_t kUnits = 800;
  const SplitRng root(42);
  auto unit_value = [&](size_t u) {
    Rng rng = root.Split(u).ToRng();
    double acc = 0.0;
    for (int i = 0; i < 8; ++i) acc += rng.Uniform(-1.0, 1.0);
    return acc;
  };

  std::vector<double> expected(kUnits);
  for (size_t u = 0; u < kUnits; ++u) expected[u] = unit_value(u);

  for (const size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    std::vector<double> got(kUnits, 0.0);
    pool.ParallelUnits(kUnits, [&](size_t u) {
      // Head units are stragglers: whoever owns the front range falls
      // behind and the tail of its range must be stolen.
      if (u < 8) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      got[u] = unit_value(u);
    });
    ASSERT_EQ(got, expected) << "workers " << workers;
  }
}

TEST(ElasticPoolTest, SkewedCostsPreserveExactlyOnce) {
  // Stragglers at the head, the tail, or spread through the range shift
  // which ranges drain first and who steals from whom; none of those
  // schedules may break the exactly-once guarantee.
  ThreadPool pool(4);
  const size_t units = 513;
  const std::pair<const char*, bool (*)(size_t)> skews[] = {
      {"head", [](size_t u) { return u < 4; }},
      {"tail", [](size_t u) { return u + 4 >= 513; }},
      {"strided", [](size_t u) { return u % 97 == 0; }}};
  for (const auto& [name, slow] : skews) {
    std::vector<std::atomic<uint32_t>> hits(units);
    pool.ParallelUnits(units, [&, slow = slow](size_t u) {
      if (slow(u)) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ++hits[u];
    });
    for (size_t u = 0; u < units; ++u) {
      ASSERT_EQ(hits[u].load(), 1u) << name << " unit " << u;
    }
  }
}

TEST(ElasticPoolTest, ParallelChunksKeepsTheSequentialChunkGrid) {
  // Chunk boundaries depend only on (n, chunk_rows), never on the worker
  // count or on which participant claimed the chunk, so per-chunk partials
  // reduced in ascending chunk index are bit-identical to sequential.
  for (const size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    for (const auto& [n, rows] :
         {std::pair<size_t, size_t>{100, 7}, {64, 64}, {65, 64}, {1, 3},
          {0, 5}, {1000, 1}}) {
      const size_t chunks = (n + rows - 1) / rows;
      std::vector<std::pair<size_t, size_t>> sequential(chunks);
      for (size_t c = 0; c < chunks; ++c) {
        sequential[c] = {c * rows, std::min(n, (c + 1) * rows)};
      }
      std::vector<std::pair<size_t, size_t>> got(chunks, {0, 0});
      pool.ParallelChunks(n, rows, [&](size_t c, size_t b, size_t e) {
        got[c] = {b, e};
      });
      ASSERT_EQ(got, sequential) << "workers " << workers << " n " << n
                                 << " rows " << rows;
    }
  }
}

TEST(ElasticPoolTest, AscendingChunkReductionBitIdenticalAcrossPaths) {
  // The k-means pattern: per-chunk partial sums reduced in ascending chunk
  // order. ParallelChunks and sequential must agree bit for bit.
  const size_t n = 4321;
  const size_t rows = 128;
  const size_t chunks = (n + rows - 1) / rows;
  const SplitRng root(7);
  auto row_value = [&](size_t i) {
    // An irrational-ish spread where reassociation would show.
    return static_cast<double>(root.Draw(i) >> 11) * 0x1.0p-53 * 3.7 - 1.85;
  };

  auto reduce = [&](auto&& run) {
    std::vector<double> partials(chunks, 0.0);
    run([&](size_t c, size_t b, size_t e) {
      double acc = 0.0;
      for (size_t i = b; i < e; ++i) acc += row_value(i);
      partials[c] = acc;
    });
    double total = 0.0;
    for (const double p : partials) total += p;  // Ascending chunk order.
    return total;
  };

  const double sequential = reduce([&](auto&& fn) {
    for (size_t c = 0; c * rows < n; ++c) {
      fn(c, c * rows, std::min(n, (c + 1) * rows));
    }
  });
  for (const size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    const double pooled = reduce([&](auto&& fn) {
      pool.ParallelChunks(n, rows, fn);
    });
    ASSERT_EQ(std::bit_cast<uint64_t>(sequential),
              std::bit_cast<uint64_t>(pooled))
        << "workers " << workers;
  }
}

TEST(ElasticPoolTest, StealHeavyStress) {
  // Many tiny units behind a few heavy stragglers, repeated: while a
  // straggler's owner sleeps, the others drain their ranges and steal the
  // rest of its range, which exercises the claim/steal CAS paths hard.
  // This test is the TSan target for the pool's scheduler (CI runs it
  // under -fsanitize=thread).
  ThreadPool pool(8);
  for (int round = 0; round < 5; ++round) {
    const size_t units = 20000;
    std::vector<std::atomic<uint32_t>> hits(units);
    std::atomic<uint64_t> checksum{0};
    pool.ParallelUnits(
        units,
        [&](size_t u) {
          ++hits[u];
          if (u % 5000 == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          checksum.fetch_add(SplitRng(static_cast<uint64_t>(round))
                                 .Split(u)
                                 .Draw(0),
                             std::memory_order_relaxed);
        });
    uint64_t expected_checksum = 0;
    for (size_t u = 0; u < units; ++u) {
      ASSERT_EQ(hits[u].load(), 1u) << "round " << round << " unit " << u;
      expected_checksum +=
          SplitRng(static_cast<uint64_t>(round)).Split(u).Draw(0);
    }
    ASSERT_EQ(checksum.load(), expected_checksum) << "round " << round;
  }
}

TEST(ElasticPoolTest, CallerParticipatesSoBusyPoolsStillFinish) {
  // All pool workers blocked on slow Submit tasks: ParallelUnits must
  // still complete via caller participation (it cannot deadlock waiting
  // for a free worker).
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  auto blocker = [&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  auto f1 = pool.Submit(blocker);
  auto f2 = pool.Submit(blocker);

  std::vector<std::atomic<uint32_t>> hits(100);
  pool.ParallelUnits(100, [&](size_t u) { ++hits[u]; });
  for (size_t u = 0; u < 100; ++u) ASSERT_EQ(hits[u].load(), 1u);

  release.store(true);
  f1.get();
  f2.get();
}

}  // namespace
}  // namespace qens::common
