//===- ThreadPool.cpp -----------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <memory>

using namespace stq;

ThreadPool::ThreadPool(unsigned Threads) { grow(std::max(Threads, 1u)); }

ThreadPool::~ThreadPool() {
  wait();
  {
    std::lock_guard<std::mutex> Lock(M);
    Stop = true;
  }
  WakeCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

ThreadPool &ThreadPool::process() {
  static ThreadPool Pool;
  return Pool;
}

unsigned ThreadPool::defaultJobs() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

void ThreadPool::grow(unsigned Threads) {
  std::lock_guard<std::mutex> Lock(M);
  while (Workers.size() < Threads)
    Workers.emplace_back([this] { workerLoop(); });
}

unsigned ThreadPool::threadCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return static_cast<unsigned>(Workers.size());
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(M);
    Queue.push_back(std::move(Task));
    ++Pending;
  }
  WakeCv.notify_one();
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(M);
  for (;;) {
    // Queue and Stop change only under M, so a worker that finds the queue
    // empty sleeps until a submit or the destructor wakes it; it never
    // polls, and a wake-up cannot slip in between the test and the sleep.
    WakeCv.wait(Lock, [this] { return Stop || !Queue.empty(); });
    if (Queue.empty())
      return; // Stop, and nothing left to run.
    std::function<void()> Task = std::move(Queue.front());
    Queue.pop_front();
    Lock.unlock();
    Task();
    Task = nullptr; // Captures are destroyed outside the lock too.
    Lock.lock();
    ++Executed;
    if (--Pending == 0)
      IdleCv.notify_all();
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(M);
  IdleCv.wait(Lock, [this] { return Pending == 0; });
}

ThreadPool::PoolStats ThreadPool::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  PoolStats S;
  S.Executed = Executed;
  return S;
}

void TaskGroup::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Outstanding;
  }
  Pool.submit([this, T = std::move(Task)] {
    T();
    std::lock_guard<std::mutex> Lock(M);
    if (--Outstanding == 0)
      Cv.notify_all();
  });
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> Lock(M);
  Cv.wait(Lock, [this] { return Outstanding == 0; });
}

namespace {

/// The state one parallelFor call shares with its helpers. Helpers hold it
/// by shared_ptr, so one that starts after the call returned still finds
/// it alive; it then claims no index and never touches Fn.
struct Batch {
  Batch(const std::function<void(size_t, unsigned)> &Fn, size_t N)
      : Fn(Fn), N(N) {}

  const std::function<void(size_t, unsigned)> &Fn;
  const size_t N;
  std::atomic<size_t> Next{0};
  std::atomic<size_t> Done{0};
  std::atomic<uint64_t> HelperRan{0};
  std::mutex M;
  std::condition_variable Cv; ///< Signals "Done reached N".

  /// Runs indices until none is left to claim; returns how many it ran.
  size_t run(unsigned Runner) {
    size_t Ran = 0;
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
         I = Next.fetch_add(1, std::memory_order_relaxed)) {
      Fn(I, Runner);
      ++Ran;
    }
    return Ran;
  }

  /// Records \p Ran finished indices; the runner that finishes the last
  /// one wakes the caller. Returns true when every index has finished.
  bool finish(size_t Ran) {
    if (Done.fetch_add(Ran, std::memory_order_acq_rel) + Ran != N)
      return false;
    // Taking M orders this notify after the caller's predicate test.
    { std::lock_guard<std::mutex> Lock(M); }
    Cv.notify_one();
    return true;
  }
};

} // namespace

unsigned stq::parallelRunners(unsigned Jobs, size_t N) {
  return static_cast<unsigned>(
      std::max<size_t>(1, std::min<size_t>(std::max(Jobs, 1u), N)));
}

void stq::parallelFor(unsigned Jobs, size_t N,
                      const std::function<void(size_t, unsigned)> &Fn,
                      ThreadPool::PoolStats *StatsOut, ThreadPool *Shared) {
  if (StatsOut)
    *StatsOut = {};
  unsigned Helpers = parallelRunners(Jobs, N) - 1;
  if (Shared)
    Helpers = std::min(Helpers, Shared->threadCount());
  if (Helpers == 0) {
    for (size_t I = 0; I < N; ++I)
      Fn(I, 0);
    if (StatsOut)
      StatsOut->Executed = N;
    return;
  }

  ThreadPool &Pool = Shared ? *Shared : ThreadPool::process();
  if (!Shared)
    Pool.grow(Helpers);
  auto B = std::make_shared<Batch>(Fn, N);
  for (unsigned R = 1; R <= Helpers; ++R)
    Pool.submit([B, R] {
      size_t Ran = B->run(R);
      if (Ran == 0)
        return;
      B->HelperRan.fetch_add(Ran, std::memory_order_relaxed);
      B->finish(Ran);
    });
  if (!B->finish(B->run(0))) {
    std::unique_lock<std::mutex> Lock(B->M);
    B->Cv.wait(Lock, [&] {
      return B->Done.load(std::memory_order_acquire) == N;
    });
  }
  if (StatsOut) {
    StatsOut->Executed = N;
    StatsOut->Steals = B->HelperRan.load(std::memory_order_relaxed);
  }
}

void stq::parallelFor(unsigned Jobs, size_t N,
                      const std::function<void(size_t)> &Fn,
                      ThreadPool::PoolStats *StatsOut, ThreadPool *Shared) {
  parallelFor(
      Jobs, N, [&Fn](size_t I, unsigned) { Fn(I); }, StatsOut, Shared);
}
