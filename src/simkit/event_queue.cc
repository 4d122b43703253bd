#include "simkit/event_queue.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace fvsst::sim {

EventId Simulation::push(double when, double period, double armed,
                         Action action) {
  // A NaN/inf timestamp would silently corrupt the priority-queue ordering
  // (every comparison with NaN is false); fail loudly instead.
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
  while (!queue_.empty()) {
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
      // Re-arm before running so the action may cancel its own event id.
      // The k-th firing lands at origin + k*period exactly.
      Event next = ev;
      next.fires = ev.fires + 1;
      // Firing k lands at origin + k*period (origin is the first firing).
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

void Simulation::run_until(double t_end) {
  while (!queue_.empty() && queue_.top().when <= t_end) {
    step();
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
