// event_queue_reference.h - A priority_queue Simulation, the oracle for the
// key heap and slot store.
//
// sim::Simulation dispatches from a heap of trivially copyable keys and
// keeps each action in a recycled slot.  This is the engine it replaced,
// kept verbatim in its ordering and cancellation logic: every pending event
// is a full copy in a std::priority_queue ordered by (when, armed, seq),
// step() copies the top event out before running it, a periodic event
// re-arms with a copy of itself, and cancel() records ids lazily.  The
// differential test in test_event_queue.cc drives both through the same
// seeded scripts and requires the same execution sequence and the same
// return values from every call.  One thing changed since: run_until()
// used to let step() run whatever followed a cancelled entry at the front,
// even an event due after the bound; both engines now re-check the bound
// after dropping a cancelled entry.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simkit/event_queue.h"

namespace fvsst::sim {

class ReferenceSimulation {
 public:
  using Action = std::function<void()>;

  ReferenceSimulation() = default;
  ReferenceSimulation(const ReferenceSimulation&) = delete;
  ReferenceSimulation& operator=(const ReferenceSimulation&) = delete;

  double now() const { return now_; }

  EventId schedule_at(double when, Action action) {
    return push(when, 0.0, now_, std::move(action));
  }
  EventId schedule_at(double when, double as_of, Action action) {
    return push(when, 0.0, as_of, std::move(action));
  }
  EventId schedule_after(double delay, Action action) {
    return push(now_ + delay, 0.0, now_, std::move(action));
  }
  EventId schedule_every(double period, Action action) {
    if (!(period > 0.0)) {
      throw std::invalid_argument("Simulation: period must be positive");
    }
    return push(now_ + period, period, now_, std::move(action));
  }
  EventId schedule_every_from(double start, double period, Action action) {
    if (!(period > 0.0)) {
      throw std::invalid_argument("Simulation: period must be positive");
    }
    return push(start, period, now_, std::move(action));
  }

  bool cancel(EventId id) {
    if (id == 0 || id >= next_id_) return false;
    if (std::find(cancelled_.begin(), cancelled_.end(), id) !=
        cancelled_.end())
      return false;
    cancelled_.push_back(id);
    return true;
  }

  void run_until(double t_end) {
    while (step_until(t_end)) {
    }
    now_ = std::max(now_, t_end);
  }
  void run_for(double duration) { run_until(now_ + duration); }

  bool step() { return step_until(std::numeric_limits<double>::infinity()); }

  bool step_until(double t_end) {
    while (!queue_.empty() && queue_.top().when <= t_end) {
      Event ev = queue_.top();
      queue_.pop();
      --live_;
      const auto it = std::find(cancelled_.begin(), cancelled_.end(), ev.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.when;
      armed_at_ = ev.armed;
      current_id_ = ev.id;
      if (ev.period > 0.0) {
        Event next = ev;
        next.fires = ev.fires + 1;
        next.when = ev.origin + static_cast<double>(next.fires) * ev.period;
        next.armed = now_;
        next.seq = next_seq_++;
        queue_.push(next);
        ++live_;
      }
      ev.action();
      ++executed_;
      return true;
    }
    return false;
  }

  std::uint64_t events_executed() const { return executed_; }
  EventId current_id() const { return current_id_; }
  double armed_at() const { return armed_at_; }
  std::size_t pending() const {
    return live_ - std::min(live_, cancelled_.size());
  }

 private:
  struct Event {
    double when = 0.0;
    double armed = 0.0;
    std::uint64_t seq = 0;
    EventId id = 0;
    double period = 0.0;
    double origin = 0.0;
    std::uint64_t fires = 0;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      if (a.armed != b.armed) return a.armed > b.armed;
      return a.seq > b.seq;
    }
  };

  EventId push(double when, double period, double armed, Action action) {
    if (!std::isfinite(when) || !std::isfinite(period) ||
        !std::isfinite(armed)) {
      throw std::invalid_argument("Simulation: non-finite event time");
    }
    if (period < 0.0) {
      throw std::invalid_argument("Simulation: negative period");
    }
    Event ev;
    ev.when = std::max(when, now_);
    ev.armed = armed;
    ev.seq = next_seq_++;
    ev.id = next_id_++;
    ev.period = period;
    ev.origin = ev.when;
    ev.fires = 0;
    ev.action = std::move(action);
    const EventId id = ev.id;
    queue_.push(std::move(ev));
    ++live_;
    return id;
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<EventId> cancelled_;
  double now_ = 0.0;
  double armed_at_ = 0.0;
  EventId current_id_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
};

}  // namespace fvsst::sim
