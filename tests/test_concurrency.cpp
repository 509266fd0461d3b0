//===- test_concurrency.cpp - Thread-pool and cache stress tests ----------===//
//
// Hammers the concurrent pieces of the parallel pipeline: the
// work-stealing pool, the sharded prover cache, the sharded checker, and
// the fanned-out soundness obligations. These tests are most valuable
// under ThreadSanitizer (configure with -DSTQ_SANITIZE=thread); without a
// sanitizer they still catch lost tasks, lost wakeups, torn counters, and
// deadlocks (via the gtest timeout).
//
//===----------------------------------------------------------------------===//

#include "checker/Parallel.h"
#include "prover/ProverCache.h"
#include "qual/Builtins.h"
#include "soundness/Soundness.h"
#include "support/ThreadPool.h"

#include "TestTempDir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace stq;

namespace {

//===----------------------------------------------------------------------===//
// parallelFor on the process pool
//===----------------------------------------------------------------------===//

// First in this file, so that run as one process the pool is still empty.
TEST(ProcessPool, GrowsOnlyToTheHelpersACallUses) {
  // A one-function TU is two units; at --jobs 4 that is one helper.
  const unsigned Before = ThreadPool::process().threadCount();
  std::atomic<unsigned> Ran{0};
  parallelFor(4, 2, [&](size_t) { Ran.fetch_add(1); });
  EXPECT_EQ(Ran.load(), 2u);
  EXPECT_LE(ThreadPool::process().threadCount(), std::max(Before, 1u));
  // Reused, not re-spawned: a second call adds no thread.
  const unsigned After = ThreadPool::process().threadCount();
  parallelFor(4, 2, [&](size_t) { Ran.fetch_add(1); });
  EXPECT_EQ(ThreadPool::process().threadCount(), After);
}

TEST(ProcessPool, EveryIndexRunsExactlyOnce) {
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    for (size_t N : {size_t(0), size_t(1), size_t(2), size_t(Jobs),
                     size_t(10000)}) {
      std::vector<std::atomic<unsigned>> Hit(N);
      // Per-runner counters are written without atomics: the contract is
      // that one runner never runs two indices at once.
      std::vector<size_t> PerRunner(parallelRunners(Jobs, N), 0);
      ThreadPool::PoolStats Stats;
      parallelFor(
          Jobs, N,
          [&](size_t I, unsigned Runner) {
            Hit[I].fetch_add(1, std::memory_order_relaxed);
            ASSERT_LT(Runner, PerRunner.size());
            ++PerRunner[Runner];
          },
          &Stats);
      for (size_t I = 0; I < N; ++I)
        ASSERT_EQ(Hit[I].load(), 1u) << "jobs " << Jobs << " index " << I;
      size_t Total = 0;
      for (size_t C : PerRunner)
        Total += C;
      EXPECT_EQ(Total, N) << "jobs " << Jobs;
      EXPECT_EQ(Stats.Executed, N);
      EXPECT_EQ(Stats.Steals, N - PerRunner.at(0));
    }
  }
}

TEST(ProcessPool, NestedCallCompletesWhileEveryWorkerIsBusy) {
  // Four outer runners (the caller and three helpers on a three-worker
  // pool) each hold their first index until all four are inside, so every
  // worker is busy when each of them starts a nested loop on the same
  // pool. The nested helpers cannot start; the nested callers must finish
  // their loops alone.
  ThreadPool Pool(3);
  std::atomic<unsigned> Inside{0};
  std::vector<std::atomic<unsigned>> Hit(4 * 1000);
  parallelFor(
      4, 4,
      [&](size_t Outer) {
        Inside.fetch_add(1);
        while (Inside.load() < 4)
          std::this_thread::yield();
        parallelFor(
            4, 1000,
            [&](size_t Inner) { Hit[Outer * 1000 + Inner].fetch_add(1); },
            nullptr, &Pool);
      },
      nullptr, &Pool);
  for (size_t I = 0; I < Hit.size(); ++I)
    ASSERT_EQ(Hit[I].load(), 1u) << "index " << I;
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolStress, EveryTaskRunsExactlyOnce) {
  ThreadPool Pool(8);
  constexpr unsigned N = 10000;
  std::vector<std::atomic<unsigned>> Ran(N);
  for (unsigned I = 0; I < N; ++I)
    Pool.submit([&Ran, I] { Ran[I].fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  for (unsigned I = 0; I < N; ++I)
    ASSERT_EQ(Ran[I].load(), 1u) << "task " << I;
  EXPECT_EQ(Pool.stats().Executed, N);
}

TEST(ThreadPoolStress, TasksSubmittingTasks) {
  ThreadPool Pool(4);
  std::atomic<unsigned> Count{0};
  constexpr unsigned Roots = 64, Children = 16;
  for (unsigned I = 0; I < Roots; ++I)
    Pool.submit([&] {
      Count.fetch_add(1, std::memory_order_relaxed);
      for (unsigned C = 0; C < Children; ++C)
        Pool.submit([&] { Count.fetch_add(1, std::memory_order_relaxed); });
    });
  Pool.wait();
  EXPECT_EQ(Count.load(), Roots + Roots * Children);
}

TEST(ThreadPoolStress, RepeatedWaitCycles) {
  // wait() must be re-usable: submit, wait, submit again.
  ThreadPool Pool(4);
  std::atomic<unsigned> Count{0};
  for (unsigned Round = 0; Round < 50; ++Round) {
    for (unsigned I = 0; I < 20; ++I)
      Pool.submit([&] { Count.fetch_add(1, std::memory_order_relaxed); });
    Pool.wait();
    ASSERT_EQ(Count.load(), (Round + 1) * 20);
  }
}

TEST(ThreadPoolStress, ConcurrentSubmitters) {
  // Multiple external threads feeding one pool.
  ThreadPool Pool(4);
  std::atomic<unsigned> Count{0};
  constexpr unsigned Feeders = 4, PerFeeder = 500;
  std::vector<std::thread> Threads;
  for (unsigned F = 0; F < Feeders; ++F)
    Threads.emplace_back([&] {
      for (unsigned I = 0; I < PerFeeder; ++I)
        Pool.submit([&] { Count.fetch_add(1, std::memory_order_relaxed); });
    });
  for (std::thread &T : Threads)
    T.join();
  Pool.wait();
  EXPECT_EQ(Count.load(), Feeders * PerFeeder);
}

TEST(ThreadPoolStress, ParallelForCoversRange) {
  for (unsigned Jobs : {1u, 2u, 7u, 16u}) {
    constexpr size_t N = 4096;
    std::vector<std::atomic<unsigned>> Hit(N);
    ThreadPool::PoolStats Stats;
    parallelFor(Jobs, N,
                [&](size_t I) { Hit[I].fetch_add(1, std::memory_order_relaxed); },
                &Stats);
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Hit[I].load(), 1u) << "jobs " << Jobs << " index " << I;
    EXPECT_EQ(Stats.Executed, N);
  }
}

TEST(ThreadPoolStress, DestructionWithIdleWorkers) {
  // Pools must tear down cleanly whether or not they ever ran a task.
  for (unsigned Round = 0; Round < 20; ++Round) {
    ThreadPool Idle(4);
    ThreadPool Busy(4);
    std::atomic<unsigned> Count{0};
    Busy.submit([&] { Count.fetch_add(1); });
    Busy.wait();
    EXPECT_EQ(Count.load(), 1u);
  }
}

//===----------------------------------------------------------------------===//
// ProverCache
//===----------------------------------------------------------------------===//

TEST(ProverCacheStress, ConcurrentInsertAndLookup) {
  prover::ProverCache Cache;
  constexpr unsigned Threads = 8, Keys = 200, Rounds = 50;
  std::atomic<unsigned> WrongAnswers{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&Cache, &WrongAnswers, T] {
      for (unsigned R = 0; R < Rounds; ++R)
        for (unsigned K = 0; K < Keys; ++K) {
          std::string Key = "task-" + std::to_string(K);
          // Every key has one correct answer, derived from the key; any
          // torn or cross-keyed read would surface as a wrong result.
          prover::ProofResult Expect = K % 2 ? prover::ProofResult::Proved
                                             : prover::ProofResult::Unknown;
          if (auto Hit = Cache.lookup(Key)) {
            if (Hit->Result != Expect)
              WrongAnswers.fetch_add(1, std::memory_order_relaxed);
          } else {
            prover::ProverStats Stats;
            Stats.Seconds = 0.001 * (T + 1);
            Cache.insert(Key, Expect, Stats);
          }
        }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(WrongAnswers.load(), 0u);

  prover::CacheStats CS = Cache.stats();
  EXPECT_EQ(CS.Entries, Keys);
  EXPECT_EQ(CS.Lookups, CS.Hits + CS.Misses);
  EXPECT_EQ(CS.Lookups,
            static_cast<uint64_t>(Threads) * Rounds * Keys);
  // Racing inserts of the same key are allowed; the first wins and the
  // rest are dropped, so insertions can exceed entries but never misses.
  EXPECT_GE(CS.Insertions, CS.Entries);
  EXPECT_LE(CS.Insertions, CS.Misses);
}

TEST(ProverCacheStress, ClearDuringUse) {
  prover::ProverCache Cache;
  std::atomic<bool> Done{false};
  std::thread Clearer([&] {
    while (!Done.load(std::memory_order_relaxed))
      Cache.clear();
  });
  prover::ProverStats Stats;
  for (unsigned I = 0; I < 5000; ++I) {
    std::string Key = "k" + std::to_string(I % 64);
    if (!Cache.lookup(Key))
      Cache.insert(Key, prover::ProofResult::Proved, Stats);
  }
  Done.store(true);
  Clearer.join();
  prover::CacheStats CS = Cache.stats();
  EXPECT_EQ(CS.Lookups, CS.Hits + CS.Misses);
}

//===----------------------------------------------------------------------===//
// End-to-end: parallel checker and soundness fan-out under load
//===----------------------------------------------------------------------===//

TEST(PipelineStress, RepeatedParallelChecks) {
  DiagnosticEngine Setup;
  qual::QualifierSet Quals;
  ASSERT_TRUE(qual::loadBuiltinQualifiers({"pos", "neg"}, Quals, Setup));

  std::string Source;
  for (unsigned F = 0; F < 40; ++F) {
    std::string N = std::to_string(F);
    Source += "int f" + N + "(int pos a" + N + ") {\n"
              "  int pos x" + N + " = a" + N + " * a" + N + ";\n"
              "  int pos bad" + N + " = x" + N + " - 1;\n"
              "  return bad" + N + ";\n}\n";
  }

  DiagnosticEngine BaseDiags;
  std::unique_ptr<cminus::Program> BaseProg;
  checker::CheckResult Base = checker::checkSourceParallel(
      Source, Quals, BaseDiags, BaseProg, {}, 1);
  ASSERT_FALSE(BaseDiags.hasErrors());
  EXPECT_EQ(Base.QualErrors, 40u);

  for (unsigned Round = 0; Round < 10; ++Round) {
    DiagnosticEngine Diags;
    checker::CheckResult Result =
        checker::checkProgramParallel(*BaseProg, Quals, Diags, {}, 8);
    ASSERT_EQ(Result.QualErrors, Base.QualErrors) << "round " << Round;
    ASSERT_EQ(Diags.diagnostics().size(), BaseDiags.diagnostics().size());
  }
}

TEST(PipelineStress, ConcurrentSoundnessCheckersSharedCache) {
  DiagnosticEngine Setup;
  qual::QualifierSet Quals;
  ASSERT_TRUE(qual::loadBuiltinQualifiers({"pos", "neg", "nonzero"}, Quals,
                                          Setup));
  prover::ProverCache Cache;
  std::atomic<unsigned> Unsound{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      soundness::SoundnessChecker SC(Quals, {}, nullptr, &Cache);
      for (const soundness::SoundnessReport &R : SC.checkAll(2))
        if (!R.sound())
          Unsound.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Unsound.load(), 0u);
  prover::CacheStats CS = Cache.stats();
  EXPECT_GT(CS.Hits, 0u);
  EXPECT_EQ(CS.Lookups, CS.Hits + CS.Misses);
}

TEST(PipelineStress, PersistentCacheSaveLoadRacesParallelChecker) {
  // The --cache-file path under contention: while parallel soundness
  // checkers hammer a shared cache, other threads repeatedly save() it to
  // one path and load() the file back into the same cache. save() renames
  // a complete temp file into place, so a concurrent load() must always
  // see a parseable snapshot, and loaded entries must never override
  // fresher in-memory ones.
  DiagnosticEngine Setup;
  qual::QualifierSet Quals;
  ASSERT_TRUE(qual::loadBuiltinQualifiers({"pos", "neg", "nonzero"}, Quals,
                                          Setup));
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  const std::string Path = Tmp.path("test_cache_race.stqcache");
  prover::ProverCache Cache;
  {
    // Seed the file so the first load() races a real parse.
    soundness::SoundnessChecker Seed(Quals, {}, nullptr, &Cache);
    Seed.checkAll(1);
    std::string Error;
    ASSERT_TRUE(Cache.save(Path, &Error)) << Error;
  }

  std::atomic<unsigned> Unsound{0};
  std::atomic<unsigned> FailedLoads{0};
  std::atomic<bool> Done{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 3; ++T)
    Threads.emplace_back([&] {
      soundness::SoundnessChecker SC(Quals, {}, nullptr, &Cache);
      for (unsigned Round = 0; Round < 4; ++Round)
        for (const soundness::SoundnessReport &R : SC.checkAll(2))
          if (!R.sound())
            Unsound.fetch_add(1, std::memory_order_relaxed);
    });
  Threads.emplace_back([&] {
    std::string Error;
    while (!Done.load(std::memory_order_relaxed))
      Cache.save(Path, &Error);
  });
  Threads.emplace_back([&] {
    std::string Error;
    while (!Done.load(std::memory_order_relaxed))
      if (!Cache.load(Path, &Error))
        FailedLoads.fetch_add(1, std::memory_order_relaxed);
  });
  for (unsigned T = 0; T < 3; ++T)
    Threads[T].join();
  Done.store(true, std::memory_order_relaxed);
  Threads[3].join();
  Threads[4].join();

  EXPECT_EQ(Unsound.load(), 0u);
  // Every load raced a rename of a fully written snapshot: none may have
  // seen a torn or truncated file.
  EXPECT_EQ(FailedLoads.load(), 0u);
  prover::CacheStats CS = Cache.stats();
  EXPECT_EQ(CS.Lookups, CS.Hits + CS.Misses);
}

} // namespace
