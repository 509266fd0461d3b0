//===- ThreadPool.h - Thread pool and parallel loops ------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread pool behind the parallel pipeline, and `parallelFor`, the
/// loop every fan-out (front end, checker, soundness obligations,
/// inference) goes through.
///
/// `parallelFor` runs on one process-wide pool (`ThreadPool::process()`)
/// that is created empty, grows to the number of helpers a call actually
/// uses, and is reused by every later call, or on a long-lived pool the
/// caller passes (stqd's). A call with Jobs runners submits
/// min(Jobs, N) - 1 helper runners; they and the calling thread pull loop
/// indices from one atomic counter, and the caller returns once every
/// index has run. Because the caller works through the indices itself, a
/// call made from inside a pool task completes even when every worker is
/// busy, and a helper that only starts after the last index was claimed
/// exits without touching the caller's frame.
///
/// Determinism contract: indices run in an arbitrary order on arbitrary
/// runners, so callers that need reproducible output (diagnostics!) write
/// results into per-index slots and merge them in index order afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_SUPPORT_THREADPOOL_H
#define STQ_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stq {

class ThreadPool {
public:
  /// Counters of one pool's lifetime (stats()) or of one parallelFor call.
  struct PoolStats {
    /// Tasks run to completion; for parallelFor, loop indices run.
    uint64_t Executed = 0;
    /// parallelFor only: indices run by a helper runner rather than the
    /// calling thread.
    uint64_t Steals = 0;
  };

  /// Spawns \p Threads workers (at least one).
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// The process-wide pool parallelFor uses when no pool is passed. It
  /// starts without workers and grows on demand; its workers live until
  /// the process exits.
  static ThreadPool &process();

  /// Enqueues \p Task. Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task (including tasks submitted by
  /// tasks) has finished.
  void wait();

  /// Spawns workers until the pool has at least \p Threads.
  void grow(unsigned Threads);

  unsigned threadCount() const;
  PoolStats stats() const;

  /// The job count to use when the user passes no --jobs: the hardware
  /// concurrency, with 1 as the fallback when it is unknown.
  static unsigned defaultJobs();

private:
  ThreadPool() = default;

  void workerLoop();

  mutable std::mutex M;
  /// Signals "a task was queued, or Stop was set". Idle workers sleep on
  /// it until then, whatever the running tasks are doing.
  std::condition_variable WakeCv;
  /// Signals "Pending reached zero".
  std::condition_variable IdleCv;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Workers;
  /// Queued plus running tasks.
  uint64_t Pending = 0;
  uint64_t Executed = 0;
  bool Stop = false;
};

/// A completion scope over a shared ThreadPool: tracks only the tasks
/// submitted through it, so several callers can fan work into one pool and
/// each wait for just their own batch. ThreadPool::wait() waits for
/// *everything* pending, which under sustained load may never drain; a
/// TaskGroup's wait() cannot starve that way. Tasks submitted through a
/// group must not wait on another group from inside the pool (no nested
/// fan-out); parallelFor has no such restriction.
class TaskGroup {
public:
  explicit TaskGroup(ThreadPool &Pool) : Pool(Pool) {}
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup &) = delete;
  TaskGroup &operator=(const TaskGroup &) = delete;

  /// Enqueues \p Task on the shared pool, counted against this group.
  void submit(std::function<void()> Task);
  /// Blocks until every task submitted through this group has finished.
  void wait();

private:
  ThreadPool &Pool;
  std::mutex M;
  std::condition_variable Cv;
  size_t Outstanding = 0;
};

/// The number of runners (the caller plus helpers) parallelFor uses for
/// \p N indices at \p Jobs: min(Jobs, N), and at least one.
unsigned parallelRunners(unsigned Jobs, size_t N);

/// Runs Fn(I, Runner) for every I in [0, N) and returns once all calls
/// finished. Runner < parallelRunners(Jobs, N) names the runner making the
/// call; one runner makes its calls one at a time, so per-runner state
/// needs no locking. Runner 0 is the calling thread. With one runner
/// (Jobs <= 1 or N <= 1) the calls run inline, in index order.
///
/// Helpers run on \p Shared when it is given (stqd's long-lived pool,
/// which is not grown), and otherwise on ThreadPool::process(). \p
/// StatsOut, when non-null, receives this call's counters.
void parallelFor(unsigned Jobs, size_t N,
                 const std::function<void(size_t, unsigned)> &Fn,
                 ThreadPool::PoolStats *StatsOut = nullptr,
                 ThreadPool *Shared = nullptr);

/// parallelFor for loops that keep no per-runner state.
void parallelFor(unsigned Jobs, size_t N,
                 const std::function<void(size_t)> &Fn,
                 ThreadPool::PoolStats *StatsOut = nullptr,
                 ThreadPool *Shared = nullptr);

} // namespace stq

#endif // STQ_SUPPORT_THREADPOOL_H
