#include "qens/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <exception>
#include <memory>
#include <utility>

namespace qens::common {
namespace {

/// One participant's contiguous claim range, packed begin<<32|end so a
/// single CAS moves either edge: the owner advances `begin` (front), thieves
/// retreat `end` (back). begin only ever grows and end only ever shrinks, so
/// there is no ABA and `begin >= end` means drained.
constexpr uint64_t PackRange(uint64_t begin, uint64_t end) {
  return (begin << 32) | end;
}
constexpr uint64_t RangeBegin(uint64_t pack) { return pack >> 32; }
constexpr uint64_t RangeEnd(uint64_t pack) { return pack & 0xffffffffull; }

/// Guided self-scheduling: an owner claims max(1, remaining / kGuidedDivisor)
/// units from the front of its range per grab, so chunks shrink as the range
/// drains and the tail self-balances across thieves.
constexpr uint64_t kGuidedDivisor = 4;

/// Scheduling state of one ParallelUnits call, shared by the caller and
/// every participant task (a task may outlive the call; see ParallelUnits).
struct UnitsState {
  UnitsState(size_t participants, uint64_t units,
             const std::function<void(size_t)>& unit_fn)
      : ranges(participants), num_units(units), fn(unit_fn) {}

  std::vector<std::atomic<uint64_t>> ranges;
  const uint64_t num_units;
  const std::function<void(size_t)> fn;
  std::atomic<uint64_t> completed{0};
  std::mutex mu;                // Guards `error`; `done` waits on it.
  std::condition_variable done;  // Signalled when `completed` closes.
  std::exception_ptr error;      // First exception a unit threw.
};

/// Runs the claimed units [begin, end). A unit that throws ends its chunk
/// early; the first exception is kept for the caller to rethrow, and the
/// whole chunk still counts as completed, so the call can neither hang nor
/// unwind while other participants still run `fn`.
void RunChunk(UnitsState& s, uint64_t begin, uint64_t end) {
  try {
    for (uint64_t u = begin; u < end; ++u) s.fn(static_cast<size_t>(u));
  } catch (...) {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.error) s.error = std::current_exception();
  }
  const uint64_t take = end - begin;
  if (s.completed.fetch_add(take, std::memory_order_acq_rel) + take ==
      s.num_units) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.done.notify_all();
  }
}

/// One participant: drain its own range from the front, then steal from
/// the back of the fullest remaining range until every range is empty.
void RunParticipant(UnitsState& s, size_t self) {
  const size_t participants = s.ranges.size();
  for (;;) {
    // Drain our own range from the front with guided (size-adaptive)
    // chunks: large grabs while much remains, shrinking toward one unit so
    // the tail rebalances across thieves.
    uint64_t cur = s.ranges[self].load(std::memory_order_acquire);
    while (RangeBegin(cur) < RangeEnd(cur)) {
      const uint64_t begin = RangeBegin(cur);
      const uint64_t take =
          std::max<uint64_t>(1, (RangeEnd(cur) - begin) / kGuidedDivisor);
      if (s.ranges[self].compare_exchange_weak(
              cur, PackRange(begin + take, RangeEnd(cur)),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        RunChunk(s, begin, begin + take);
        cur = s.ranges[self].load(std::memory_order_acquire);
      }
    }
    // Own range drained: steal roughly half of the fullest remaining range,
    // from the back so we never contend with its owner's front edge unless
    // it is nearly empty. A full scan that finds every range empty is a
    // safe exit — no work is ever added after launch.
    size_t victim = participants;
    uint64_t victim_remaining = 0;
    for (size_t p = 0; p < participants; ++p) {
      if (p == self) continue;
      const uint64_t pack = s.ranges[p].load(std::memory_order_acquire);
      const uint64_t remaining = RangeBegin(pack) < RangeEnd(pack)
                                     ? RangeEnd(pack) - RangeBegin(pack)
                                     : 0;
      if (remaining > victim_remaining) {
        victim_remaining = remaining;
        victim = p;
      }
    }
    if (victim == participants) return;  // Everything drained.
    uint64_t pack = s.ranges[victim].load(std::memory_order_acquire);
    while (RangeBegin(pack) < RangeEnd(pack)) {
      const uint64_t end = RangeEnd(pack);
      const uint64_t take = (end - RangeBegin(pack) + 1) / 2;
      if (s.ranges[victim].compare_exchange_weak(
              pack, PackRange(RangeBegin(pack), end - take),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        RunChunk(s, end - take, end);
        break;
      }
    }
    // Re-enter the outer loop: the steal may have raced away, or more
    // ranges may still hold work.
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      // Drain remaining tasks even when stopping: a queued participant
      // only finds its call's ranges drained and exits.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::ParallelUnits(size_t num_units,
                               const std::function<void(size_t)>& fn) {
  if (num_units == 0) return;
  assert(num_units < (1ull << 32) && "unit index must fit the packed range");
  if (num_units == 1) {
    fn(0);
    return;
  }
  // Participants: every pool worker plus the calling thread. The initial
  // partition is the same count-independent ascending layout as a fixed
  // grid; elasticity comes purely from how the ranges drain.
  //
  // All scheduling state is heap-shared with the participant tasks. The
  // caller returns as soon as every unit has FINISHED (completed ==
  // num_units) — which can be long before a participant task queued behind
  // other calls' participants ever starts. Such a straggler later finds the
  // ranges drained and exits touching only this shared block, so the call
  // neither blocks on a busy pool nor deadlocks when issued from inside a
  // unit of another call.
  const size_t participants = workers_.size() + 1;
  auto state = std::make_shared<UnitsState>(participants, num_units, fn);
  {
    const size_t base = num_units / participants;
    const size_t rem = num_units % participants;
    size_t start = 0;
    for (size_t p = 0; p < participants; ++p) {
      const size_t len = base + (p < rem ? 1 : 0);
      state->ranges[p].store(PackRange(start, start + len),
                             std::memory_order_relaxed);
      start += len;
    }
  }

  // Every pool worker gets a participant task; the caller runs the last
  // participant inline, so progress is guaranteed even when the pool's
  // workers are busy with other calls' units.
  for (size_t p = 0; p < workers_.size(); ++p) {
    Enqueue([state, p]() { RunParticipant(*state, p); });
  }
  RunParticipant(*state, participants - 1);
  // The caller's participant only returns once every range is drained, so
  // this wait covers just the chunks other participants claimed but have
  // not finished; the participant that closes the count wakes the caller.
  // The acq_rel increments in RunChunk pair with these acquire loads:
  // every write `fn` made (and `error`) is visible once the count closes.
  if (state->completed.load(std::memory_order_acquire) < num_units) {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done.wait(lock, [&state, num_units]() {
      return state->completed.load(std::memory_order_acquire) == num_units;
    });
  }
  if (state->error) std::rethrow_exception(state->error);
}

size_t ThreadPool::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace qens::common
