// Regression and contention coverage for the concurrency primitives that
// carry the live serving plane: MpmcQueue / BoundedMpmcQueue (the request
// lanes) and ThreadPool (the analysis plane). The first two suites encode
// the silent-drop fix — a push racing close() must be *rejected*, never
// dropped — and the ThreadPool suite encodes the exception-loss fix (a
// throwing task used to escape worker_loop and std::terminate the
// process). These tests are also the TSan targets for the primitives: the
// sweep tests run real producer/consumer contention with mid-stream
// close(), which is exactly the shutdown interleaving the serving plane
// exercises on every finalize.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "origami/common/mpmc_queue.hpp"
#include "origami/common/thread_pool.hpp"

namespace {

using origami::common::BoundedMpmcQueue;
using origami::common::MpmcQueue;
using origami::common::ThreadPool;

// ---------------------------------------------------------------------------
// MpmcQueue: close() semantics and the silent-drop regression.
// ---------------------------------------------------------------------------

TEST(MpmcQueue, PushAfterCloseIsRejectedNotDropped) {
  MpmcQueue<int> q;
  EXPECT_TRUE(q.push(1));
  q.close();
  // Pre-fix behaviour: push returned void and the item vanished. Now the
  // producer is told its item never entered the queue.
  EXPECT_FALSE(q.push(2));
  auto got = q.pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1);
  EXPECT_EQ(q.pop(), std::nullopt);  // drained + closed
}

TEST(MpmcQueue, CloseRaceAccountsForEveryItem) {
  // Producers race a mid-stream close(). The accounting invariant the
  // serving plane relies on: every item is either consumed or its push
  // returned false — accepted == consumed, with no third outcome. On the
  // pre-fix queue the producers cannot observe rejection, so items pushed
  // after close() are silently lost and this bookkeeping is impossible.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 4000;
  MpmcQueue<int> q;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> consumed{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &accepted] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (q.push(i)) accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> consumers;
  consumers.reserve(2);
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&q, &consumed] {
      while (q.pop().has_value()) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Close somewhere in the middle of the stream so some pushes are
  // accepted and (almost certainly) some are rejected.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  q.close();
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(consumed.load(), accepted.load());
  EXPECT_LE(accepted.load(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
}

TEST(MpmcQueue, ContendedPopTryPopCloseSweep) {
  // TSan sweep: blocking pops, spinning try_pops, and close() all contend
  // on the same queue. Every accepted item must be consumed exactly once.
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 3000;
  MpmcQueue<std::uint64_t> q;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> consumed_sum{0};
  std::atomic<std::uint64_t> pushed_sum{0};
  std::atomic<bool> producers_done{false};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v =
            static_cast<std::uint64_t>(p) * kPerProducer + i + 1;
        if (q.push(v)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
          pushed_sum.fetch_add(v, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int c = 0; c < 2; ++c) {  // blocking consumers
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        consumed_sum.fetch_add(*v, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {  // polling consumer
    while (true) {
      if (auto v = q.try_pop()) {
        consumed_sum.fetch_add(*v, std::memory_order_relaxed);
      } else if (producers_done.load(std::memory_order_acquire) &&
                 q.closed()) {
        break;
      } else {
        std::this_thread::yield();
      }
    }
  });

  // Close mid-stream, but never before the first push lands: on a loaded
  // host the producers may not have run at all within the head start.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  while (accepted.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  q.close();
  for (int t = 0; t < kProducers; ++t) threads[t].join();
  producers_done.store(true, std::memory_order_release);
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

  // try_pop can race the blocking consumers for the last items, but the
  // sums must balance: nothing lost, nothing duplicated.
  EXPECT_EQ(consumed_sum.load(), pushed_sum.load());
  EXPECT_GT(accepted.load(), 0u);
}

// ---------------------------------------------------------------------------
// BoundedMpmcQueue: backpressure + close() semantics of the request lanes.
// ---------------------------------------------------------------------------

TEST(BoundedMpmcQueue, RejectsPushAfterCloseAndDrainsRemainder) {
  BoundedMpmcQueue<int> q(4);
  EXPECT_TRUE(q.push(10));
  EXPECT_TRUE(q.push(11));
  q.close();
  EXPECT_FALSE(q.push(12));
  EXPECT_FALSE(q.try_push(13));
  EXPECT_EQ(q.pop(), std::optional<int>(10));
  EXPECT_EQ(q.pop(), std::optional<int>(11));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedMpmcQueue, ZeroCapacityIsClampedToOne) {
  BoundedMpmcQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_FALSE(q.try_push(2));  // full at the clamped capacity
}

TEST(BoundedMpmcQueue, BackpressureBlocksProducerUntilConsumerMakesRoom) {
  BoundedMpmcQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_FALSE(q.try_push(3));  // full: lane applies backpressure

  std::atomic<bool> third_accepted{false};
  std::thread producer([&] {
    const bool ok = q.push(3);  // blocks until the pop below
    EXPECT_TRUE(ok);
    third_accepted.store(true, std::memory_order_release);
  });
  // The producer must be stalled, not failed: give it a moment, then
  // confirm the push has not completed while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(third_accepted.load(std::memory_order_acquire));

  EXPECT_EQ(q.pop(), std::optional<int>(1));  // makes room
  producer.join();
  EXPECT_TRUE(third_accepted.load());
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(3));
}

TEST(BoundedMpmcQueue, CloseWakesBlockedProducerWithRejection) {
  BoundedMpmcQueue<int> q(1);
  EXPECT_TRUE(q.push(1));  // lane now full
  std::atomic<int> result{-1};
  std::thread producer([&] {
    result.store(q.push(2) ? 1 : 0, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(result.load(std::memory_order_acquire), -1);  // still blocked
  q.close();  // must wake the producer and reject, not hang or drop
  producer.join();
  EXPECT_EQ(result.load(), 0);
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedMpmcQueue, ContendedSweepHonoursCapacityAndAccounting) {
  // TSan sweep at the serving-plane shape: several producers pushing
  // through a shallow lane, consumers draining, close() mid-stream. The
  // capacity invariant is sampled from a monitor thread while the
  // accounting invariant (accepted == consumed) is checked at the end.
  constexpr std::size_t kCapacity = 8;
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 2000;
  BoundedMpmcQueue<int> q(kCapacity);
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> stop_monitor{false};
  std::atomic<bool> capacity_violated{false};

  std::thread monitor([&] {
    while (!stop_monitor.load(std::memory_order_acquire)) {
      if (q.size() > kCapacity) {
        capacity_violated.store(true, std::memory_order_release);
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (q.push(i)) accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (q.pop().has_value()) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  q.close();
  for (auto& t : threads) t.join();
  stop_monitor.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_EQ(consumed.load(), accepted.load());
  EXPECT_FALSE(capacity_violated.load());
}

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
