// Regression and contention coverage for ThreadPool, the analysis plane's
// worker pool: it encodes the exception-loss fix (a throwing task used to
// escape worker_loop and std::terminate the process) and resize safety.
// These tests are also the TSan targets for the pool: the stress test runs
// real submitter contention with wait_idle barriers between rounds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "origami/common/thread_pool.hpp"

namespace {

using origami::common::ThreadPool;

// ---------------------------------------------------------------------------
// ThreadPool: the exception-loss regression and resize safety.
// ---------------------------------------------------------------------------

TEST(ThreadPool, TaskExceptionIsRethrownFromWaitIdle) {
  // Pre-fix, the throw escaped worker_loop and std::terminate'd the whole
  // process — the submitter never learned which task failed.
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPool, ErrorIsClearedAfterRethrowAndPoolStaysUsable) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("round 1 failure"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The barrier consumed the error; the pool is a working pool again.
  EXPECT_NO_THROW(pool.wait_idle());
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, OnlyFirstExceptionOfARoundIsReported) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] { throw std::runtime_error("one of many"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);  // exactly one report
  EXPECT_NO_THROW(pool.wait_idle());  // the other seven were dropped
}

TEST(ThreadPool, DestructorRethrowsUnobservedTaskException) {
  // No wait_idle() barrier intervenes, so the destructor is the last
  // chance to surface the failure instead of swallowing it.
  EXPECT_THROW(
      {
        ThreadPool pool(1);
        pool.submit([] { throw std::runtime_error("unobserved"); });
      },
      std::runtime_error);
}

TEST(ThreadPool, SubmitWaitIdleStressUnderContention) {
  // TSan sweep: multiple submitter threads racing worker pickup with
  // wait_idle barriers between rounds.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> executed{0};
  constexpr int kRounds = 20;
  constexpr int kSubmitters = 3;
  constexpr int kTasksPerSubmitter = 50;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&pool, &executed] {
        for (int i = 0; i < kTasksPerSubmitter; ++i) {
          pool.submit(
              [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (auto& t : submitters) t.join();
    pool.wait_idle();
    const std::uint64_t expect =
        static_cast<std::uint64_t>(round + 1) * kSubmitters *
        kTasksPerSubmitter;
    ASSERT_EQ(executed.load(), expect);
  }
}

TEST(ThreadPool, SetAnalysisThreadsWaitsForInFlightWork) {
  // A mid-run resize used to tear the pool down under running tasks; now
  // it quiesces first, so no submitted task can be lost across a resize.
  origami::common::set_analysis_threads(4);
  std::atomic<int> completed{0};
  constexpr int kTasks = 24;
  for (int i = 0; i < kTasks; ++i) {
    origami::common::analysis_pool().submit([&completed] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      completed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Resize while the tasks above are (very likely) still in flight.
  origami::common::set_analysis_threads(2);
  EXPECT_EQ(completed.load(), kTasks);
  EXPECT_EQ(origami::common::analysis_threads(), 2u);
  // Restore the process-wide default for every other test in this binary.
  origami::common::set_analysis_threads(1);
  EXPECT_EQ(origami::common::analysis_threads(), 1u);
}

}  // namespace
