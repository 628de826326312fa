// Tests for the shared worker pool's one dispatcher, ParallelUnits: every
// unit runs once also when the pool is oversubscribed, reused, or called
// from inside a unit of another call on the same pool; unit exceptions
// reach the caller only after every running unit has finished; and
// destroying the pool right after a call is safe.

#include "qens/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
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

TEST(ThreadPoolTest, OversubscribedUnitsAllComplete) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelUnits(64, [&count](size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

/// Runs `call` on a separate thread and reports whether it finished within
/// ten seconds; an exception `call` throws is rethrown here. On a hang the
/// thread is detached: joining it would hang the whole suite.
bool FinishesInTime(const std::function<void()>& call) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread runner([call, done] {
    try {
      call();
      done->set_value();
    } catch (...) {
      done->set_exception(std::current_exception());
    }
  });
  if (finished.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    runner.detach();
    return false;
  }
  runner.join();
  finished.get();
  return true;
}

TEST(ThreadPoolTest, NestedParallelUnitsFromInsideAUnitCompletes) {
  // The outer call's caller-side unit waits until the only worker has run
  // a nested call from inside the other outer unit. That worker is busy
  // running the outer unit, so the nested fan-out finishes only because
  // its calling thread claims the nested units itself.
  auto pool = std::make_unique<ThreadPool>(1);
  std::vector<std::atomic<uint32_t>> hits(100);
  std::atomic<uint32_t> nested_calls{0};
  const bool finished = FinishesInTime([&] {
    const std::thread::id caller = std::this_thread::get_id();
    pool->ParallelUnits(2, [&](size_t) {
      if (std::this_thread::get_id() == caller) {
        while (nested_calls.load() == 0) std::this_thread::yield();
        return;
      }
      pool->ParallelUnits(hits.size(), [&](size_t u) { ++hits[u]; });
      ++nested_calls;
    });
  });
  if (!finished) {
    // Joining the stuck worker would hang the suite; leak the pool instead.
    static_cast<void>(pool.release());
    FAIL() << "nested ParallelUnits deadlocked on a 1-worker pool";
  }
  // A worker that also steals the caller's outer unit nests a second time.
  ASSERT_GE(nested_calls.load(), 1u);
  for (size_t u = 0; u < hits.size(); ++u) {
    ASSERT_EQ(hits[u].load(), nested_calls.load()) << u;
  }
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

TEST(ThreadPoolTest, ParallelUnitsRethrowsAUnitException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  bool caught = false;
  ASSERT_TRUE(FinishesInTime([&] {
    try {
      pool.ParallelUnits(100, [&](size_t unit) {
        ++ran;
        if (unit == 57) throw std::length_error("unit failed");
      });
    } catch (const std::length_error&) {
      caught = true;
    }
  }));
  EXPECT_TRUE(caught);
  EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingParticipants) {
  // A call returns once every unit has finished, which can be before its
  // participant tasks have left the queue; destroying the pool right away
  // must drain those stragglers safely.
  std::atomic<int> count{0};
  for (int round = 0; round < 32; ++round) {
    ThreadPool pool(4);
    pool.ParallelUnits(2, [&count](size_t) { ++count; });
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, ReusableAcrossBatchesOfWork) {
  ThreadPool pool(2);
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<int> slots(10, -1);
    pool.ParallelUnits(slots.size(), [&slots, batch](size_t i) {
      slots[i] = batch * 100 + static_cast<int>(i);
    });
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(slots[static_cast<size_t>(i)], batch * 100 + i);
    }
  }
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

}  // namespace
}  // namespace qens::common
