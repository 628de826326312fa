// ThreadPool::ParallelUnits, the pool's one dispatcher: every unit runs
// exactly once under any steal schedule, and outputs collected in per-unit
// slots, also when reduced in ascending unit order, are bit-identical to a
// sequential loop at every worker count. The steal-heavy stress cases
// double as the TSan target for the claim/steal atomics.

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

TEST(ElasticPoolTest, AscendingChunkReductionBitIdenticalAcrossPaths) {
  // One unit per fixed chunk of rows writes its partial sum to its own
  // slot; the slots are reduced in ascending unit order. Pooled and
  // sequential runs must agree bit for bit.
  const size_t n = 4321;
  const size_t rows = 128;
  const size_t chunks = (n + rows - 1) / rows;
  const SplitRng root(7);
  auto row_value = [&](size_t i) {
    // An irrational-ish spread where reassociation would show.
    return static_cast<double>(root.Draw(i) >> 11) * 0x1.0p-53 * 3.7 - 1.85;
  };
  auto chunk_sum = [&](size_t c) {
    double acc = 0.0;
    for (size_t i = c * rows; i < std::min(n, (c + 1) * rows); ++i) {
      acc += row_value(i);
    }
    return acc;
  };
  auto reduce = [](const std::vector<double>& partials) {
    double total = 0.0;
    for (const double p : partials) total += p;  // Ascending unit order.
    return total;
  };

  std::vector<double> sequential(chunks);
  for (size_t c = 0; c < chunks; ++c) sequential[c] = chunk_sum(c);
  for (const size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    std::vector<double> pooled(chunks, 0.0);
    pool.ParallelUnits(chunks, [&](size_t c) { pooled[c] = chunk_sum(c); });
    ASSERT_EQ(std::bit_cast<uint64_t>(reduce(sequential)),
              std::bit_cast<uint64_t>(reduce(pooled)))
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
  // Both pool workers are held inside the units of an outer call made on
  // another thread: a second ParallelUnits call must still complete via
  // caller participation (it cannot deadlock waiting for a free worker).
  ThreadPool pool(2);
  std::atomic<int> held{0};
  std::atomic<bool> release{false};
  std::thread outer([&] {
    const std::thread::id caller = std::this_thread::get_id();
    // Three participants, one unit each. The outer caller's own unit waits
    // until both workers sit in theirs, so it cannot steal them first.
    pool.ParallelUnits(3, [&](size_t) {
      if (std::this_thread::get_id() == caller) {
        while (held.load() < 2) std::this_thread::yield();
        return;
      }
      ++held;
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  while (held.load() < 2) std::this_thread::yield();

  std::vector<std::atomic<uint32_t>> hits(100);
  pool.ParallelUnits(100, [&](size_t u) { ++hits[u]; });
  release.store(true);
  outer.join();
  for (size_t u = 0; u < 100; ++u) ASSERT_EQ(hits[u].load(), 1u);
}

}  // namespace
}  // namespace qens::common
