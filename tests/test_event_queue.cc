// Tests for the discrete-event engine (simkit/event_queue.h).
#include "simkit/event_queue.h"

#include <gtest/gtest.h>

#include "event_queue_reference.h"
#include "simkit/rng.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
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

TEST(Simulation, RunUntilStopsAtTheBoundBehindACancelledEvent) {
  // A cancelled entry at the front of the queue is dropped, and the bound
  // is checked again before the next event runs.
  Simulation sim;
  int early = 0;
  int late = 0;
  const EventId id = sim.schedule_at(1.0, [&] { ++early; });
  sim.schedule_at(5.0, [&] { ++late; });
  ASSERT_TRUE(sim.cancel(id));
  sim.run_until(2.0);
  EXPECT_EQ(early, 0);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(5.0);
  EXPECT_EQ(late, 1);
  EXPECT_EQ(sim.now(), 5.0);
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

// --- Differential test against the priority_queue engine ------------------

/// One seeded script of schedules, cancels and runs, driven against an
/// engine; returns everything the script observed, in order: each firing
/// (which scheduled action, its id, now(), armed_at(), current_id()) and
/// the result of every call.  Times sit on a 0.25 s grid, so firings tie
/// often and (when, armed, seq) decides most of the order; actions
/// schedule more events, cancel themselves, each other, fired events and
/// unknown ids, and cancel the same id twice.
template <typename Sim>
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::string> run() {
    for (int i = 0; i < 10; ++i) schedule_one();
    for (int i = 0; i < 300 && sim_.pending() > 0; ++i) {
      if (rng_.bernoulli(0.3)) {
        const double t_end = sim_.now() + 0.25 * quarter(0, 3);
        sim_.run_until(t_end);
        note("run_until", t_end, sim_.now());
      } else {
        note("step", sim_.step(), sim_.now());
      }
      if (rng_.bernoulli(0.1)) cancel_any();
    }
    note("end", static_cast<double>(sim_.events_executed()),
         static_cast<double>(sim_.pending()));
    return log_;
  }

 private:
  std::int64_t quarter(std::int64_t lo, std::int64_t hi) {
    return rng_.uniform_int(lo, hi);
  }

  void schedule_one() {
    const std::size_t token = ids_.size();
    ids_.push_back(0);
    const double when = sim_.now() + 0.25 * quarter(-1, 4);
    const double period = 0.25 * quarter(1, 3);
    EventId id = 0;
    switch (rng_.uniform_int(0, 4)) {
      case 0:
        id = sim_.schedule_at(when, action(token));
        break;
      case 1:
        id = sim_.schedule_at(when, sim_.now() + 0.25 * quarter(-2, 2),
                              action(token));
        break;
      case 2:
        id = sim_.schedule_after(0.25 * quarter(0, 4), action(token));
        break;
      case 3:
        id = sim_.schedule_every(period, action(token));
        break;
      default:
        id = sim_.schedule_every_from(when, period, action(token));
        break;
    }
    ids_[token] = id;
    note("schedule", static_cast<double>(token), static_cast<double>(id));
  }

  typename Sim::Action action(std::size_t token) {
    return [this, token] {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "fire token=%zu id=%" PRIu64 " now=%a armed=%a cur=%" PRIu64,
                    token, ids_[token], sim_.now(), sim_.armed_at(),
                    sim_.current_id());
      log_.emplace_back(buf);
      switch (rng_.uniform_int(0, 9)) {
        case 0:
          schedule_one();
          schedule_one();
          break;
        case 1:
        case 2:
          schedule_one();
          break;
        case 3:
          note("cancel self", sim_.cancel(ids_[token]));
          break;
        case 4:
          cancel_any();
          break;
        case 5: {
          const EventId id = pick();
          note("cancel twice", sim_.cancel(id), sim_.cancel(id));
          break;
        }
        case 6:
          note("cancel unknown", sim_.cancel(0),
               sim_.cancel(ids_.back() + 7));
          break;
        default:
          break;
      }
    };
  }

  EventId pick() {
    return ids_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1))];
  }

  void cancel_any() { note("cancel", sim_.cancel(pick())); }

  void note(const char* what, double a, double b = 0.0) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %a %a pending=%zu", what, a, b,
                  sim_.pending());
    log_.emplace_back(buf);
  }

  Sim sim_;
  Rng rng_;
  std::vector<EventId> ids_;  ///< By token: the id its schedule returned.
  std::vector<std::string> log_;
};

TEST(SimulationDifferential, MatchesPriorityQueueEngine) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto expected = Script<ReferenceSimulation>(seed).run();
    const auto got = Script<Simulation>(seed).run();
    ASSERT_GT(expected.size(), 20u) << "seed " << seed;
    ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "seed " << seed << ", line " << i;
    }
  }
}

}  // namespace
}  // namespace fvsst::sim
