// Tests for the discrete-event engine (simkit/event_queue.h).
#include "simkit/event_queue.h"

#include <gtest/gtest.h>

#include "simkit/rng.h"

#include <cmath>
#include <limits>

#include <string>
#include <vector>

namespace fvsst::sim {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, EqualTimesRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&, i] { order.push_back(i); });
  }
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, EqualTimesRunInScheduledAtOrder) {
  // Among events due at one instant, an as_of time orders an event as if
  // scheduled then — in the past or the future of the scheduling call.
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(0); });
  sim.schedule_at(0.5, [&] {
    sim.schedule_at(1.0, 0.9, [&] { order.push_back(3); });
    sim.schedule_at(1.0, [&] { order.push_back(2); });
    sim.schedule_at(1.0, 0.2, [&] { order.push_back(1); });
  });
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulation, NowAdvancesToEventTime) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule_at(4.5, [&] { seen = sim.now(); });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 4.5);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // clock finishes at t_end
}

TEST(Simulation, RunUntilDoesNotRunLaterEvents) {
  Simulation sim;
  bool ran = false;
  sim.schedule_at(5.0, [&] { ran = true; });
  sim.run_until(4.999);
  EXPECT_FALSE(ran);
  sim.run_until(5.0);
  EXPECT_TRUE(ran);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_after(1.5, [&] { fired_at = sim.now(); });
  });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(Simulation, PastTimesClampToNow) {
  Simulation sim;
  sim.run_until(5.0);
  double fired_at = -1.0;
  sim.schedule_at(1.0, [&] { fired_at = sim.now(); });
  sim.run_until(6.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulation, PeriodicEventRepeats) {
  Simulation sim;
  int count = 0;
  sim.schedule_every(1.0, [&] { ++count; });
  sim.run_until(5.5);
  EXPECT_EQ(count, 5);  // t = 1, 2, 3, 4, 5
}

TEST(Simulation, PeriodicFromStart) {
  Simulation sim;
  std::vector<double> times;
  sim.schedule_every_from(0.5, 2.0, [&] { times.push_back(sim.now()); });
  sim.run_until(7.0);
  EXPECT_EQ(times, (std::vector<double>{0.5, 2.5, 4.5, 6.5}));
}

TEST(Simulation, CancelOneShot) {
  Simulation sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until(2.0);
  EXPECT_FALSE(ran);
}

TEST(Simulation, CancelPeriodicStopsRepeats) {
  Simulation sim;
  int count = 0;
  EventId id = 0;
  id = sim.schedule_every(1.0, [&] {
    ++count;
    if (count == 3) sim.cancel(id);
  });
  sim.run_until(100.0);
  EXPECT_EQ(count, 3);
}

TEST(Simulation, CancelUnknownIdReturnsFalse) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(9999));
}

TEST(Simulation, DoubleCancelReturnsFalse) {
  Simulation sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation sim;
  std::vector<std::string> log;
  sim.schedule_at(1.0, [&] {
    log.push_back("outer");
    sim.schedule_at(1.0, [&] { log.push_back("inner-same-time"); });
    sim.schedule_at(2.0, [&] { log.push_back("inner-later"); });
  });
  sim.run_until(3.0);
  EXPECT_EQ(log, (std::vector<std::string>{"outer", "inner-same-time",
                                           "inner-later"}));
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, ExecutedCountTracksEvents) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run_until(100.0);
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulation, RunForAdvancesRelative) {
  Simulation sim;
  sim.run_for(2.0);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_for(3.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, RejectsNonFiniteTimes) {
  Simulation sim;
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(std::numeric_limits<double>::infinity(),
                                  [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_every(std::nan(""), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_every(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_every(0.0, [] {}), std::invalid_argument);
}

TEST(Simulation, PeriodicEventsDoNotDrift) {
  // Firing times are computed as origin + k*period, so even after many
  // firings the boundary event at exactly t_end still fires (naive
  // accumulation of 0.05 would drift past 2.0 and drop the last firing).
  Simulation sim;
  int count = 0;
  double last_at = 0.0;
  sim.schedule_every(0.05, [&] {
    ++count;
    last_at = sim.now();
  });
  sim.run_until(2.0);
  EXPECT_EQ(count, 40);
  EXPECT_DOUBLE_EQ(last_at, 2.0);

  // And over a long horizon the firing count is exact.
  Simulation sim2;
  long long n = 0;
  sim2.schedule_every(0.01, [&] { ++n; });
  sim2.run_until(1000.0);
  EXPECT_EQ(n, 100000);
}

TEST(Simulation, StressRandomScheduleExecutesInOrder) {
  // 50k events with random times, some scheduled from inside handlers and
  // some cancelled: execution times must be globally non-decreasing and
  // the executed count exact.
  Simulation sim;
  Rng rng(404);
  double last_seen = -1.0;
  std::size_t executed = 0;
  std::size_t cancelled = 0;
  std::vector<EventId> ids;
  auto handler = [&] {
    ASSERT_GE(sim.now(), last_seen);
    last_seen = sim.now();
    ++executed;
    if (rng.bernoulli(0.1)) {
      sim.schedule_after(rng.uniform(0.0, 5.0), [&] {
        ASSERT_GE(sim.now(), last_seen);
        last_seen = sim.now();
        ++executed;
      });
    }
  };
  for (int i = 0; i < 50000; ++i) {
    ids.push_back(sim.schedule_at(rng.uniform(0.0, 100.0), handler));
  }
  for (int i = 0; i < 5000; ++i) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
    if (sim.cancel(ids[idx])) ++cancelled;
  }
  sim.run_until(1e9);
  EXPECT_GE(executed, 50000u - cancelled);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, PeriodicSelfCancellationInsideAction) {
  // A periodic event cancelling itself mid-callback must not fire again.
  Simulation sim;
  int fired = 0;
  EventId id = sim.schedule_every(1.0, [&] { ++fired; });
  sim.schedule_at(2.5, [&] { sim.cancel(id); });
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace fvsst::sim
