#include "simkit/event_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace fvsst::sim {

EventId Simulation::push(double when, double period, double armed,
                         Action action) {
  // A NaN/inf timestamp would silently corrupt the heap ordering (every
  // comparison with NaN is false); fail loudly instead.
  if (!std::isfinite(when) || !std::isfinite(period) ||
      !std::isfinite(armed)) {
    throw std::invalid_argument("Simulation: non-finite event time");
  }
  if (period < 0.0) {
    throw std::invalid_argument("Simulation: negative period");
  }
  std::uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.id = next_id_++;
  slot.period = period;
  slot.origin = std::max(when, now_);
  slot.fires = 0;
  slot.action = std::move(action);
  push_key({slot.origin, armed, next_seq_++, index});
  ++live_;
  return slot.id;
}

void Simulation::push_key(const Key& key) {
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulation::release(std::uint32_t slot) {
  slots_[slot].action = nullptr;
  free_slots_.push_back(slot);
}

EventId Simulation::schedule_at(double when, Action action) {
  return push(when, 0.0, now_, std::move(action));
}

EventId Simulation::schedule_at(double when, double as_of, Action action) {
  return push(when, 0.0, as_of, std::move(action));
}

EventId Simulation::schedule_after(double delay, Action action) {
  return push(now_ + delay, 0.0, now_, std::move(action));
}

EventId Simulation::schedule_every(double period, Action action) {
  if (!(period > 0.0)) {
    throw std::invalid_argument("Simulation: period must be positive");
  }
  return push(now_ + period, period, now_, std::move(action));
}

EventId Simulation::schedule_every_from(double start, double period,
                                        Action action) {
  if (!(period > 0.0)) {
    throw std::invalid_argument("Simulation: period must be positive");
  }
  return push(start, period, now_, std::move(action));
}

bool Simulation::cancel(EventId id) {
  // Lazy cancellation: the id is recorded and the event dropped when popped.
  // The cancelled_ list stays small because fvsst cancels only long-lived
  // periodic events (samplers, daemons).
  if (id == 0 || id >= next_id_) return false;
  if (std::find(cancelled_.begin(), cancelled_.end(), id) != cancelled_.end())
    return false;
  cancelled_.push_back(id);
  return true;
}

bool Simulation::step() {
  return step_until(std::numeric_limits<double>::infinity());
}

bool Simulation::step_until(double t_end) {
  // The bound is re-checked after every cancelled entry dropped, so a
  // cancelled event at the front never lets a later one past t_end.
  while (!heap_.empty() && heap_.front().when <= t_end) {
    const Key key = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --live_;
    Slot& slot = slots_[key.slot];
    if (!cancelled_.empty()) {
      const auto it = std::find(cancelled_.begin(), cancelled_.end(), slot.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        release(key.slot);
        continue;
      }
    }
    now_ = key.when;
    armed_at_ = key.armed;
    current_id_ = slot.id;
    if (slot.period > 0.0) {
      // Re-arm before running so the action may cancel its own event id;
      // the action runs in place (a deque slot never moves).  Firing k
      // lands at origin + k*period exactly (origin is the first firing).
      ++slot.fires;
      push_key({slot.origin + static_cast<double>(slot.fires) * slot.period,
                now_, next_seq_++, key.slot});
      ++live_;
      slot.action();
    } else {
      Action action = std::move(slot.action);
      release(key.slot);
      action();
    }
    ++executed_;
    return true;
  }
  return false;
}

void Simulation::run_until(double t_end) {
  while (step_until(t_end)) {
  }
  now_ = std::max(now_, t_end);
}

void Simulation::run_for(double duration) {
  run_until(now_ + duration);
}

std::size_t Simulation::pending() const {
  return live_ - std::min(live_, cancelled_.size());
}

}  // namespace fvsst::sim
