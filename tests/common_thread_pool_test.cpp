// Tests for the shared worker pool: futures arrive in submission order with
// the right values, chunk grids cover the input exactly once with
// worker-count-independent boundaries (also when issued from inside a pool
// task), exceptions propagate through futures and out of ParallelUnits /
// ParallelChunks, and destruction drains the queue.

#include "qens/common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace qens::common {
namespace {

TEST(ThreadPoolTest, WorkerCountClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  ThreadPool pool4(4);
  EXPECT_EQ(pool4.num_threads(), 4u);
}

TEST(ThreadPoolTest, SubmitReturnsResultsInSubmissionOrder) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, OversubscribedSubmitsAllComplete) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelChunksCoversEveryIndexOnce) {
  ThreadPool pool(3);
  const size_t n = 10000;
  const size_t chunk_rows = 256;
  std::vector<int> hits(n, 0);
  pool.ParallelChunks(n, chunk_rows, [&](size_t chunk, size_t begin,
                                         size_t end) {
    // Boundaries must come from the fixed grid, never the worker count.
    EXPECT_EQ(begin, chunk * chunk_rows);
    EXPECT_EQ(end, std::min(begin + chunk_rows, n));
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelChunksHandlesShortAndEmptyInputs) {
  ThreadPool pool(4);
  // n smaller than one chunk: exactly one call covering [0, n).
  size_t calls = 0;
  pool.ParallelChunks(5, 2048, [&](size_t chunk, size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(chunk, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
  });
  EXPECT_EQ(calls, 1u);
  // n == 0: no calls at all.
  pool.ParallelChunks(0, 16, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, ParallelChunksFromInsideAPoolTaskCompletes) {
  // The only worker is busy running the outer task, so the nested fan-out
  // finishes only because the calling thread claims the chunks itself.
  auto pool = std::make_unique<ThreadPool>(1);
  std::vector<int> hits(100, 0);
  auto outer = pool->Submit([&] {
    pool->ParallelChunks(hits.size(), 7, [&](size_t, size_t begin,
                                             size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
  });
  if (outer.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    // Joining the stuck worker would hang the suite; leak the pool instead.
    static_cast<void>(pool.release());
    FAIL() << "nested ParallelChunks deadlocked on a 1-worker pool";
  }
  outer.get();
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 1) << i;
}

/// Runs `call` on a separate thread and reports whether it finished within
/// ten seconds. On a hang the helper pool is leaked: joining its stuck
/// thread would hang the whole suite.
bool FinishesInTime(const std::function<void()>& call) {
  auto runner = std::make_unique<ThreadPool>(1);
  auto done = runner->Submit(call);
  if (done.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    static_cast<void>(runner.release());
    return false;
  }
  done.get();
  return true;
}

TEST(ThreadPoolTest, ParallelUnitsRethrowsAWorkerException) {
  // Every unit a pool worker runs throws; the caller's own units wait
  // until a worker has run one, so the throw is sure to happen off the
  // calling thread. The exception must reach the caller, not hang it.
  ThreadPool pool(2);
  bool caught = false;
  ASSERT_TRUE(FinishesInTime([&] {
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> worker_ran{false};
    try {
      pool.ParallelUnits(300, [&](size_t) {
        if (std::this_thread::get_id() != caller) {
          worker_ran.store(true);
          throw std::runtime_error("unit failed");
        }
        while (!worker_ran.load()) std::this_thread::yield();
      });
    } catch (const std::runtime_error&) {
      caught = true;
    }
  })) << "ParallelUnits hung after a unit threw on a pool worker";
  EXPECT_TRUE(caught);
}

TEST(ThreadPoolTest, ParallelUnitsWaitsForWorkersBeforeRethrowing) {
  // The caller's own unit throws while pool workers are inside slow units.
  // The call may only rethrow once no unit is running any more, because
  // units reference the caller's locals.
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> running{0};
  std::atomic<int> after_return{-1};
  try {
    pool.ParallelUnits(64, [&](size_t) {
      ++running;
      if (std::this_thread::get_id() == caller) {
        --running;
        throw std::runtime_error("caller unit failed");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      --running;
    });
  } catch (const std::runtime_error&) {
    after_return.store(running.load());
  }
  EXPECT_EQ(after_return.load(), 0);
}

TEST(ThreadPoolTest, ParallelChunksRethrowsAChunkException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  bool caught = false;
  ASSERT_TRUE(FinishesInTime([&] {
    try {
      pool.ParallelChunks(1000, 10, [&](size_t chunk, size_t, size_t) {
        ++ran;
        if (chunk == 57) throw std::length_error("chunk failed");
      });
    } catch (const std::length_error&) {
      caught = true;
    }
  }));
  EXPECT_TRUE(caught);
  EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // Destructor must run every queued task before joining.
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, ReusableAcrossBatchesOfWork) {
  ThreadPool pool(2);
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 10; ++i) {
      futures.push_back(pool.Submit([batch, i] { return batch * 100 + i; }));
    }
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(futures[static_cast<size_t>(i)].get(), batch * 100 + i);
    }
  }
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

}  // namespace
}  // namespace qens::common
