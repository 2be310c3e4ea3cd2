// Tests for the discrete-event engine and the network model.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "origami/net/network.hpp"
#include "origami/sim/event_queue.hpp"
#include "origami/sim/time.hpp"

namespace origami {
namespace {

using sim::EventQueue;
using sim::SimTime;

// ------------------------------------------------------------ time units --

TEST(SimTimeUnits, Conversions) {
  EXPECT_EQ(sim::micros(1), 1000);
  EXPECT_EQ(sim::millis(1), 1000000);
  EXPECT_EQ(sim::seconds(1), 1000000000);
  EXPECT_DOUBLE_EQ(sim::to_seconds(sim::seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(sim::to_micros(sim::micros(7)), 7.0);
}

// ----------------------------------------------------------- event queue --

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(300, [&] { order.push_back(3); });
  q.schedule_at(100, [&] { order.push_back(1); });
  q.schedule_at(200, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 300);
  EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, EqualTimesRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, HandlersCanScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) q.schedule_after(10, chain);
  };
  q.schedule_at(0, chain);
  q.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.now(), 40);
}

TEST(EventQueue, RunUntilStopsAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(100, [&] { ++fired; });
  q.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 50);
  EXPECT_FALSE(q.empty());
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilAdvancesClockWhenEmpty) {
  EventQueue q;
  q.run_until(1234);
  EXPECT_EQ(q.now(), 1234);
}

TEST(EventQueue, PastTimeScheduleClampsToNow) {
  // Regression: schedule_at documented t >= now() but never enforced it — a
  // past-time event executed with a stale timestamp, silently rewinding the
  // deterministic clock for everything it scheduled downstream.
  EventQueue q;
  std::vector<SimTime> seen;
  std::vector<int> order;
  q.schedule_at(100, [&] {
    order.push_back(1);
    seen.push_back(q.now());
    // Buggy caller asks for the virtual past; must run *at* 100, after the
    // other event already queued for 100 (FIFO via the sequence number).
    q.schedule_at(10, [&] {
      order.push_back(3);
      seen.push_back(q.now());
    });
  });
  q.schedule_at(100, [&] {
    order.push_back(2);
    seen.push_back(q.now());
  });
  q.schedule_at(200, [&] {
    order.push_back(4);
    seen.push_back(q.now());
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(seen, (std::vector<SimTime>{100, 100, 100, 200}));
  EXPECT_EQ(q.now(), 200);  // the clock never moved backwards
}

TEST(EventQueue, ClearDropsPending) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.clear();
  q.run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesStayFifoAcrossRecycledSlots) {
  // Freed slots are handed back last-freed first, so later events sit in
  // lower slots than earlier ones: only (time, seq) may order them.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) q.schedule_at(i, [] {});
  q.run();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 16; ++i) {
      q.schedule_at(100 * (round + 1),
                    [&order, round, i] { order.push_back(16 * round + i); });
    }
    q.run();
  }
  ASSERT_EQ(order.size(), 48u);
  for (int i = 0; i < 48; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, HandlerMayGrowTheSlabWhileItRuns) {
  // The running handler must not live in the slab it grows: its captures
  // are small enough to sit inside the std::function, and it reads them
  // after the slab has reallocated.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&q, &order] {
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(20, [&order, i] { order.push_back(i); });
    }
    order.push_back(-1);
    q.schedule_at(15, [&order] { order.push_back(-2); });
  });
  q.run();
  ASSERT_EQ(order.size(), 1002u);
  EXPECT_EQ(order[0], -1);
  EXPECT_EQ(order[1], -2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i) + 2], i);
  }
  EXPECT_EQ(q.processed(), 1002u);
  EXPECT_EQ(q.now(), 20);
}

TEST(EventQueue, ClearReleasesCallablesAndSlotsAreReused) {
  EventQueue q;
  auto held = std::make_shared<int>(0);
  q.schedule_at(5, [held] {});
  q.run_until(7);
  EXPECT_EQ(held.use_count(), 1);  // ran, then released with its slot
  q.schedule_at(8, [held] {});
  q.clear();
  EXPECT_EQ(held.use_count(), 1);  // dropped and released
  EXPECT_TRUE(q.empty());

  // After a clear, new events take the recycled slots in time order.
  std::vector<int> fired;
  q.schedule_at(40, [&] { fired.push_back(2); });
  q.schedule_at(35, [&] { fired.push_back(1); });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));

  // A handler may clear the queue under itself and schedule again.
  q.schedule_at(50, [&] {
    fired.push_back(3);
    q.clear();
    q.schedule_at(50, [&] { fired.push_back(4); });
  });
  q.schedule_at(60, [&] { fired.push_back(-1); });
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 50);
}

TEST(EventQueue, RunUntilLeavesLaterEventsInPlace) {
  EventQueue q;
  std::vector<SimTime> seen;
  for (const SimTime t : {40, 10, 30, 20}) {
    q.schedule_at(t, [&] { seen.push_back(q.now()); });
  }
  q.run_until(25);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(q.now(), 25);
  EXPECT_EQ(q.processed(), 2u);
  // New events take the freed slots and interleave with the waiting ones.
  q.schedule_at(35, [&] { seen.push_back(q.now()); });
  q.schedule_at(0, [&] { seen.push_back(q.now()); });  // clamped to 25
  q.run_until(30);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20, 25, 30}));
  q.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20, 25, 30, 35, 40}));
  EXPECT_EQ(q.processed(), 6u);
}

TEST(EventQueue, ScheduleAfterIsRelative) {
  EventQueue q;
  SimTime observed = -1;
  q.schedule_at(100, [&] {
    q.schedule_after(25, [&] { observed = q.now(); });
  });
  q.run();
  EXPECT_EQ(observed, 125);
}

// --------------------------------------------------------------- network --

TEST(Network, LocalTrafficIsFree) {
  net::Network n;
  EXPECT_EQ(n.rtt(3, 3), 0);
  EXPECT_EQ(n.one_way(3, 3), 0);
  EXPECT_EQ(n.rpc_count(), 0u);
}

TEST(Network, RemoteRttNearBase) {
  net::NetworkParams p;
  p.base_rtt = sim::micros(100);
  p.jitter_frac = 0.05;
  net::Network n(p);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) sum += static_cast<double>(n.rtt(0, 1));
  EXPECT_NEAR(sum / 1000, static_cast<double>(sim::micros(100)),
              static_cast<double>(sim::micros(5)));
  EXPECT_EQ(n.rpc_count(), 1000u);
}

TEST(Network, ZeroJitterIsExact) {
  net::NetworkParams p;
  p.base_rtt = sim::micros(200);
  p.jitter_frac = 0.0;
  net::Network n(p);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(n.rtt(0, 1), sim::micros(200));
    EXPECT_EQ(n.one_way(0, 1), sim::micros(100));
  }
}

TEST(Network, DeterministicBySeed) {
  net::NetworkParams p;
  p.seed = 777;
  net::Network a(p);
  net::Network b(p);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.rtt(0, 1), b.rtt(0, 1));
}

TEST(Network, JitterNeverCollapsesLatency) {
  net::NetworkParams p;
  p.jitter_frac = 0.5;  // extreme jitter
  net::Network n(p);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(n.rtt(0, 1), p.base_rtt / 4);
  }
}

TEST(Network, ResetCounters) {
  net::Network n;
  (void)n.rtt(0, 1);
  n.reset_counters();
  EXPECT_EQ(n.rpc_count(), 0u);
}

}  // namespace
}  // namespace origami
