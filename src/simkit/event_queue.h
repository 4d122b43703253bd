// event_queue.h - Discrete-event simulation core.
//
// The whole fvsst reproduction runs on a single-threaded discrete-event
// simulator: cores advance in fixed ticks, counter samplers fire every `t`,
// the scheduler fires every `T`, and power-supply failures are one-shot
// events.  Events at equal timestamps execute in insertion order
// (FIFO-stable), which keeps runs deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace fvsst::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
using EventId = std::uint64_t;

/// Single-threaded discrete-event simulation engine.
///
/// Typical use:
///   Simulation sim;
///   sim.schedule_every(0.01, [&]{ sampler.sample(); });
///   sim.schedule_at(5.0, [&]{ supply.fail(); });
///   sim.run_until(30.0);
class Simulation {
 public:
  using Action = std::function<void()>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  double now() const { return now_; }

  /// Schedules `action` at absolute simulated time `when` (seconds).
  /// Times in the past are clamped to `now()`.
  EventId schedule_at(double when, Action action);

  /// Schedules `action` at `when`, ordered among the events due then as if
  /// scheduled at simulated time `as_of` (ties at `as_of` keep scheduling
  /// order).  A periodic timer's firing is ordered by the instant of the
  /// one before it, so a caller skipping a timer's firings passes that.
  EventId schedule_at(double when, double as_of, Action action);

  /// Schedules `action` after `delay` seconds.
  EventId schedule_after(double delay, Action action);

  /// Schedules `action` every `period` seconds starting at `now() + period`
  /// (or at `start` if given).  The action keeps repeating until cancelled.
  EventId schedule_every(double period, Action action);
  EventId schedule_every_from(double start, double period, Action action);

  /// Cancels a pending (or repeating) event.  Returns true if the event was
  /// still live.  Cancelling an already-fired one-shot event is a no-op.
  bool cancel(EventId id);

  /// Runs every event due at or before `t_end`, and no later one; the
  /// clock always finishes at exactly `t_end` (even if the queue drains
  /// early) so that "run for 10s" semantics hold.
  void run_until(double t_end);

  /// Convenience: run_until(now() + duration).
  void run_for(double duration);

  /// Executes events one at a time; returns false when the queue is empty.
  /// Not re-entrant: an action must not call step() or run_until().
  bool step();

  /// Number of events executed since construction.
  std::uint64_t events_executed() const { return executed_; }

  /// The executing event: its id (a periodic event keeps one across
  /// firings) and the simulated time it was scheduled at, as its
  /// same-instant order sees it (the as_of of schedule_at(when, as_of, …)).
  EventId current_id() const { return current_id_; }
  double armed_at() const { return armed_at_; }

  /// Number of events currently pending.
  std::size_t pending() const;

 private:
  /// One firing in the dispatch heap.  Trivially copyable, so a sift moves
  /// 32 bytes and never an action.  Tie-breakers among equal timestamps:
  /// the simulated time the firing was scheduled at, then FIFO.
  struct Key {
    double when = 0.0;
    double armed = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;  ///< Index into slots_.
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      if (a.armed != b.armed) return a.armed > b.armed;
      return a.seq > b.seq;
    }
  };
  /// A scheduled event's identity and action.  A one-shot's action is
  /// moved out before it runs and its slot freed; a repeating event keeps
  /// its slot, and runs in place, until a cancelled firing pops.
  struct Slot {
    EventId id = 0;
    double period = 0.0;  // > 0 for repeating events
    // Repeating events fire at origin + k*period (computed, not
    // accumulated) so long-running periodic timers don't drift in
    // floating point.
    double origin = 0.0;
    std::uint64_t fires = 0;
    Action action;
  };

  /// step() restricted to events due at or before `t_end`: drops the
  /// cancelled entries at the front and runs the first live one; false
  /// when none is due by then.
  bool step_until(double t_end);
  EventId push(double when, double period, double armed, Action action);
  void push_key(const Key& key);
  void release(std::uint32_t slot);

  std::vector<Key> heap_;  ///< Min-heap under Later.
  /// A deque keeps every slot's address stable while actions (one running
  /// in place among them) schedule new events; freed slots are recycled.
  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<EventId> cancelled_;  // ids cancelled but still in heap_
  double now_ = 0.0;
  double armed_at_ = 0.0;
  EventId current_id_ = 0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
};

}  // namespace fvsst::sim
