#ifndef QENS_COMMON_THREAD_POOL_H_
#define QENS_COMMON_THREAD_POOL_H_

/// \file thread_pool.h
/// Fixed-size reusable worker pool — the one concurrency primitive under the
/// parallel hot paths (federated local training, query serving, bench
/// harnesses).
///
/// ParallelUnits is the pool's only dispatcher, and every parallel fan-out
/// in qens goes through it: units are claimed dynamically, the caller
/// participates, and each unit writes its own output slot.
/// Determinism contract: a unit draws randomness only from its own logical
/// coordinates and callers reduce per-unit slots in ascending unit order, so
/// a pool of 1 worker, a pool of N workers, and a plain sequential loop all
/// produce the same result bit for bit — see docs/PERFORMANCE.md.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qens::common {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). Workers live until the
  /// pool is destroyed; the destructor drains the queue and joins.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Parallel execution of `num_units` independent logical units: run
  /// `fn(unit)` exactly once for every unit in [0, num_units) and block
  /// until all have finished. Units are claimed dynamically — each
  /// participant owns a contiguous range, grabs size-adaptive chunks from
  /// its front, and steals from the back of the fullest remaining range
  /// when its own is drained — so stragglers no longer serialize a fixed
  /// partition. The caller thread participates, so the call also works on a
  /// pool whose workers are busy (or from within a unit of another call).
  ///
  /// Determinism: the pool guarantees each unit runs exactly once, nothing
  /// more. Bit-identical replay additionally requires the call site to (a)
  /// derive any randomness inside `fn` from the unit's own coordinates (a
  /// per-unit seed or SplitRng key), never from a generator shared across
  /// units, and (b) write results into per-unit slots reduced in ascending
  /// unit order after this returns. Under those two rules the output is
  /// bit-identical to a sequential loop at every worker count and any steal
  /// schedule.
  ///
  /// Exceptions: a unit that throws ends its claimed chunk early (later
  /// units of that chunk are skipped; other chunks still run). Once every
  /// claimed unit has finished, the first exception caught is rethrown on
  /// the caller. num_units must be < 2^32.
  ///
  /// Sizing: the caller is one more participant on top of the workers, so
  /// a call site that wants at most W concurrent units builds a pool of
  /// W - 1 workers.
  void ParallelUnits(size_t num_units, const std::function<void(size_t)>& fn);

  /// Worker count to use when the caller passes 0: the hardware thread
  /// count, falling back to 1 when unknown.
  static size_t DefaultThreadCount();

 private:
  /// Queue one participant task for the next free worker.
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace qens::common

#endif  // QENS_COMMON_THREAD_POOL_H_
