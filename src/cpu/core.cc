#include "cpu/core.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "cpu/power_ledger.h"

namespace fvsst::cpu {
namespace {

constexpr double kTimeEpsilon = 1e-12;

}  // namespace

Core::Core(sim::Simulation& sim, Config cfg, sim::Rng rng)
    : sim_(sim),
      cfg_(std::move(cfg)),
      rng_(rng),
      requested_hz_(cfg_.max_hz),
      effective_hz_(cfg_.max_hz),
      throttle_(cfg_.scaling_mode, cfg_.max_hz, cfg_.throttle_steps),
      idle_runner_(workload::idle_loop(cfg_.idle_ipc)),
      synced_until_(sim.now()) {
  if (cfg_.max_hz <= 0.0) {
    throw std::invalid_argument("Core: max_hz must be positive");
  }
  effective_hz_ = throttle_.effective_hz(requested_hz_);
}

std::size_t Core::add_workload(workload::WorkloadSpec spec) {
  sync();
  jobs_.emplace_back(std::move(spec));
  finish_times_.push_back(-1.0);
  return jobs_.size() - 1;
}

bool Core::idle() {
  sync();
  return pick_runner() == nullptr;
}

void Core::set_frequency(double hz) {
  if (hz <= 0.0 || hz > cfg_.max_hz + kTimeEpsilon) {
    throw std::invalid_argument("Core: frequency out of range");
  }
  sync();
  requested_hz_ = hz;
  effective_hz_ = throttle_.effective_hz(hz);
  // Set-points move only on the simulation thread: StepPool workers advance
  // cores but never actuate them, so the ledger needs no synchronisation.
  if (ledger_) ledger_->set_frequency(ledger_slot_, hz);
}

PerfCounters Core::read_counters() {
  sync();
  return counters_;
}

double Core::instructions_retired() {
  sync();
  double total = 0.0;
  for (const auto& j : jobs_) total += j.instructions_retired();
  return total;
}

double Core::job_instructions_retired(std::size_t job) {
  sync();
  return jobs_.at(job).instructions_retired();
}

std::size_t Core::passes_completed() {
  sync();
  std::size_t total = 0;
  for (const auto& j : jobs_) total += j.passes_completed();
  return total;
}

double Core::job_finish_time(std::size_t job) {
  sync();
  return finish_times_.at(job);
}

const workload::Phase* Core::active_phase() {
  sync();
  WorkloadRunner* runner = pick_runner();
  return runner ? &runner->current_phase() : nullptr;
}

void Core::steal_time(double seconds) {
  if (seconds < 0.0) {
    throw std::invalid_argument("Core: negative stolen time");
  }
  sync();
  stolen_pending_s_ += seconds;
}

void Core::sync() { advance_to(sim_.now()); }

void Core::advance_to(double t) {
  if (t < synced_until_) return;
  if (grid_period_ > 0.0 && !grid_suspended_) {
    // Subdivide at the sampling lattice: every instant in (synced_until, t]
    // ends its own advance segment, so chunk boundaries (and with them the
    // per-chunk noise draws) land exactly where a per-tick driver would
    // have put them.  Instants are origin + k*period in that exact
    // floating-point form — the expression sim::Simulation uses to re-arm
    // periodic events — so a lattice instant compares equal to the tick
    // time it stands in for.
    while (true) {
      const double g =
          grid_origin_ + static_cast<double>(grid_next_k_) * grid_period_;
      if (g > t) break;
      const double dt = g - synced_until_;
      if (dt > kTimeEpsilon) advance(dt, g);
      synced_until_ = g;
      // The per-sample overhead the daemon would have stolen at this tick.
      // Pending stolen time never touches the counters until a later
      // advance consumes it, so adding it before the fold leaves the
      // folded counters identical to a tick-driven read.
      if (grid_steal_s_ > 0.0) stolen_pending_s_ += grid_steal_s_;
      if (grid_folds_) fold_counters();
      ++grid_next_k_;
    }
  }
  const double dt = t - synced_until_;
  if (dt > kTimeEpsilon) advance(dt, t);
  synced_until_ = t;
}

double Core::next_interesting_time() const {
  double limit = std::numeric_limits<double>::infinity();
  if (grid_period_ > 0.0 && !grid_suspended_) {
    limit = std::min(limit, grid_origin_ + static_cast<double>(grid_next_k_) *
                                               grid_period_);
  }
  if (stolen_pending_s_ > kTimeEpsilon) {
    return std::min(limit, synced_until_ + stolen_pending_s_);
  }
  // pick_runner() mutates the round-robin cursor; peek without committing.
  const WorkloadRunner* runner = nullptr;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const auto& j = jobs_[(rr_index_ + i) % jobs_.size()];
    if (!j.finished()) {
      runner = &j;
      break;
    }
  }
  const bool is_idle = (runner == nullptr);
  if (is_idle && cfg_.idles_by_halting) return limit;
  const WorkloadRunner& active = is_idle ? idle_runner_ : *runner;
  const double rate = workload::true_performance(
      active.current_phase(), cfg_.latencies, effective_hz_);
  if (rate > 0.0) {
    limit = std::min(limit, synced_until_ +
                                active.instructions_left_in_phase() / rate);
  }
  if (!is_idle) {
    limit = std::min(limit,
                     synced_until_ + (cfg_.quantum_s - quantum_used_s_));
  }
  return limit;
}

void Core::set_sampling_grid(double origin, double period,
                             double recurring_steal_s, bool record_history) {
  if (period <= 0.0) {
    throw std::invalid_argument("Core: sampling grid period must be positive");
  }
  if (grid_period_ > 0.0 &&
      (grid_origin_ != origin || grid_period_ != period)) {
    throw std::logic_error(
        "Core: a different sampling grid is already registered");
  }
  grid_origin_ = origin;
  grid_period_ = period;
  grid_steal_s_ = recurring_steal_s;
  grid_folds_ = record_history;
}

void Core::resume_sampling_grid(double t) {
  if (!grid_suspended_) return;
  grid_suspended_ = false;
  while (grid_origin_ + static_cast<double>(grid_next_k_) * grid_period_ < t) {
    ++grid_next_k_;
  }
}

void Core::drain_counter_history(std::vector<PerfCounters>& /*out*/) {}

void Core::start_sample_fold() {
  sync();
  fold_last_ = counters_;
  fold_sum_ = PerfCounters{};
}

void Core::collect_sample_fold() {
  sync();
  fold_counters();
}

WorkloadRunner* Core::pick_runner() {
  if (jobs_.empty()) return nullptr;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    auto& j = jobs_[(rr_index_ + i) % jobs_.size()];
    if (!j.finished()) {
      if (i != 0) {
        rr_index_ = (rr_index_ + i) % jobs_.size();
        quantum_used_s_ = 0.0;
      }
      return &j;
    }
  }
  return nullptr;
}

void Core::rotate_if_quantum_expired() {
  if (quantum_used_s_ + kTimeEpsilon < cfg_.quantum_s) return;
  quantum_used_s_ = 0.0;
  if (!jobs_.empty()) rr_index_ = (rr_index_ + 1) % jobs_.size();
}

// Advances the model by `dt` seconds ending at absolute time `end_time`.
// Finish times are derived from end_time (not sim_.now()) so a span
// subdivided at grid instants produces bit-identical timestamps to the
// per-tick advances it replaces.
void Core::advance(double dt, double end_time) {
  ++advance_calls_;
  double remaining = dt;
  while (remaining > kTimeEpsilon) {
    // Scheduler/daemon overhead executes first: cycles pass, no retirement.
    if (stolen_pending_s_ > kTimeEpsilon) {
      const double chunk = std::min(remaining, stolen_pending_s_);
      counters_.cycles += chunk * effective_hz_;
      stolen_pending_s_ -= chunk;
      remaining -= chunk;
      continue;
    }

    WorkloadRunner* runner = pick_runner();
    const bool is_idle = (runner == nullptr);
    if (is_idle && cfg_.idles_by_halting) {
      // Halting idle: cycles elapse and are flagged halted; nothing
      // retires.  The daemon can infer idleness from the counter alone.
      counters_.cycles += remaining * effective_hz_;
      counters_.halted_cycles += remaining * effective_hz_;
      remaining = 0.0;
      continue;
    }
    WorkloadRunner& active = is_idle ? idle_runner_ : *runner;
    const workload::Phase& phase = active.current_phase();

    // Ground-truth retirement rate at the delivered frequency, with a small
    // per-chunk execution jitter the predictor cannot anticipate.
    double rate =
        workload::true_performance(phase, cfg_.latencies, effective_hz_);
    if (cfg_.execution_noise_sigma > 0.0) {
      rate *= std::max(0.1, 1.0 + rng_.normal(0.0, cfg_.execution_noise_sigma));
    }

    double chunk = remaining;
    if (!is_idle) {
      chunk = std::min(chunk, cfg_.quantum_s - quantum_used_s_);
    }
    const double to_phase_end = active.instructions_left_in_phase() / rate;
    chunk = std::min(chunk, to_phase_end);
    chunk = std::max(chunk, kTimeEpsilon);

    const double instr =
        std::min(rate * chunk, active.instructions_left_in_phase());
    active.retire(instr);

    counters_.instructions += instr;
    counters_.cycles += chunk * effective_hz_;
    auto noisy = [&](double value) {
      if (cfg_.counter_noise_sigma <= 0.0 || value <= 0.0) return value;
      return value *
             std::max(0.0, 1.0 + rng_.normal(0.0, cfg_.counter_noise_sigma));
    };
    counters_.l2_accesses += noisy(instr * phase.apki_l2 / 1000.0);
    counters_.l3_accesses += noisy(instr * phase.apki_l3 / 1000.0);
    counters_.mem_accesses += noisy(instr * phase.apki_mem / 1000.0);

    if (!is_idle) {
      quantum_used_s_ += chunk;
      if (active.finished()) {
        const double now_local = end_time - remaining + chunk;
        finish_times_[rr_index_] = now_local;
        ++jobs_finished_;
        quantum_used_s_ = 0.0;
      } else {
        rotate_if_quantum_expired();
      }
    }
    remaining -= chunk;
  }
}

}  // namespace fvsst::cpu
