#include "core/daemon.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "simkit/log.h"

namespace fvsst::core {

FvsstDaemon::FvsstDaemon(sim::Simulation& sim, cluster::Cluster& cluster,
                         const mach::FrequencyTable& table,
                         power::PowerBudget& budget, DaemonConfig config)
    : sim_(sim),
      cluster_(cluster),
      budget_(budget),
      config_(config),
      procs_(cluster.all_procs()) {
  for (const auto& addr : procs_) {
    proc_tables_.push_back(&cluster_.node(addr.node).machine().freq_table);
  }

  auto sampler = std::make_unique<SimCoreSampler>(
      cluster_, procs_, SimCoreSampler::ResetPolicy::kOnValidInterval,
      sim_.now());
  IpcEstimator::Options est_opts;
  est_opts.idle_signal = config_.idle_signal;
  est_opts.halted_idle_threshold = config_.halted_idle_threshold;
  est_opts.smoothing = config_.estimate_smoothing;
  auto estimator = std::make_unique<IpcEstimator>(
      cluster_.node(0).machine().latencies, est_opts);
  std::unique_ptr<PolicyStage> policy;
  if (config_.policy_factory) {
    policy = config_.policy_factory(table, cluster_.node(0).machine().latencies,
                                    config_.scheduler);
  } else {
    auto scheduler_stage = std::make_unique<SchedulerPolicyStage>(
        table, cluster_.node(0).machine().latencies, config_.scheduler);
    policy_ = scheduler_stage.get();
    policy = std::move(scheduler_stage);
  }
  auto actuator = std::make_unique<SimCoreActuator>(cluster_, procs_);
  actuator->set_fault_plan(config_.fault_plan, &sim_);

  ControlLoopConfig loop_config;
  loop_config.schedule_every_n_samples = config_.schedule_every_n_samples;
  loop_config.record_traces = config_.record_traces;
  loop_config.journal = config_.journal;
  // Sticky-write surveillance only makes sense when writes can actually go
  // wrong; keeping it off otherwise keeps fault-free journals unchanged.
  loop_config.detect_actuation_mismatch =
      config_.fault_plan && !config_.fault_plan->empty();
  if (config_.journal) {
    // t_restarts = 1: a budget trigger resets the tick count, restarting T
    // (the paper's SMP daemon semantic the inspector verifies).
    config_.journal->append(sim_.now(), sim::EventType::kRunMeta)
        .set("t_sample_s", config_.t_sample_s)
        .set("multiplier", static_cast<double>(config_.schedule_every_n_samples))
        .set("cpus", static_cast<double>(procs_.size()))
        .set("t_restarts", 1.0)
        .set("daemon", std::string("fvsst"));
  }
  // The scheduling calculation itself costs daemon time (dead cycles on the
  // hosting CPU), charged just before the policy runs.
  loop_config.pre_policy = [this](CycleTrigger) {
    cluster_.core(procs_[config_.daemon_cpu])
        .steal_time(config_.overhead_per_schedule_s);
  };
  loop_config.monitor = config_.monitor;
  if (config_.monitor) {
    mon_over_budget_ = config_.monitor->input("over_budget_w");
    mon_journal_dropped_ = config_.monitor->input("journal_dropped");
  }
  loop_ = std::make_unique<ControlLoop>(
      std::move(loop_config), std::move(sampler), std::move(estimator),
      std::move(policy), std::move(actuator), proc_tables_, &telemetry_);

  std::vector<double> hz(procs_.size());
  std::vector<double> watts(procs_.size());
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    hz[i] = cluster_.core(procs_[i]).frequency_hz();
    watts[i] = proc_tables_[i]->power(hz[i]);
  }
  loop_->prime(sim_.now(), hz, watts);

  budget_.on_change([this](double limit) {
    if (config_.journal) {
      config_.journal->append(sim_.now(), sim::EventType::kBudgetChange)
          .set("budget_w", limit);
    }
    // A budget trigger restarts T (t_restarts = 1): the next timer cycle
    // is the n-th tick from here, counting a tick at exactly now unless it
    // ran first: its wake ran, or this event was armed after the tick
    // before it (on a tie, scheduled after the daemon's first wake).
    std::uint64_t j = first_tick_at_or_after(sim_.now());
    const double before = tick_time(j - 1);
    if (tick_time(j) == sim_.now() &&
        (j == last_wake_k_ || sim_.armed_at() > before ||
         (sim_.armed_at() == before && sim_.current_id() > timer_id_))) {
      ++j;
    }
    run_cycle(CycleTrigger::kBudget);
    next_cycle_k_ =
        j + static_cast<std::uint64_t>(config_.schedule_every_n_samples) - 1;
    const std::uint64_t k = next_wake(j - 1, next_cycle_k_);
    if (k != wake_k_) {
      sim_.cancel(wake_event_);
      arm_wake(k);
    }
  });
  if (config_.fault_plan) {
    for (const sim::FaultSpec& spec : config_.fault_plan->specs()) {
      if (spec.kind == sim::FaultKind::kActuationReject &&
          spec.target < static_cast<int>(procs_.size())) {
        reject_windows_.emplace_back(spec.start_s, spec.end_s);
      }
    }
    std::sort(reject_windows_.begin(), reject_windows_.end());
  }
  // The lattice a per-tick timer would sample on: schedule_every fires
  // first at now + t and re-arms firing m at that SAME origin plus
  // (m-1)*t — so the first firing, not the schedule time, anchors every
  // later instant's floating-point value.
  start_t_ = sim_.now();
  grid_origin_ = start_t_ + config_.t_sample_s;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    // The per-tick counter-reading overhead: locally per CPU with per-CPU
    // collector threads (paper Sec. 9's improved design), else all charged
    // to the CPU hosting the single-threaded daemon.
    double steal = 0.0;
    if (config_.per_cpu_threads) {
      steal = config_.overhead_per_cpu_sample_s;
    } else if (i == config_.daemon_cpu) {
      steal = config_.overhead_per_cpu_sample_s *
              static_cast<double>(procs_.size());
    }
    cluster_.core(procs_[i]).set_sampling_grid(
        grid_origin_, config_.t_sample_s, steal, /*record_history=*/true);
  }
  next_cycle_k_ = static_cast<std::uint64_t>(config_.schedule_every_n_samples);
  arm_wake(next_wake(0, next_cycle_k_));
  timer_id_ = wake_event_;
}

FvsstDaemon::~FvsstDaemon() { sim_.cancel(wake_event_); }

const FrequencyScheduler& FvsstDaemon::scheduler() const {
  if (policy_ == nullptr) {
    throw std::logic_error(
        "FvsstDaemon::scheduler: a custom policy_factory replaced the "
        "default scheduler stage");
  }
  return policy_->scheduler();
}

const sim::TimeSeries& FvsstDaemon::granted_freq_trace(std::size_t cpu) const {
  return loop_->trace(cpu, ControlLoop::Trace::kGranted);
}
const sim::TimeSeries& FvsstDaemon::desired_freq_trace(std::size_t cpu) const {
  return loop_->trace(cpu, ControlLoop::Trace::kDesired);
}
const sim::TimeSeries& FvsstDaemon::predicted_ipc_trace(
    std::size_t cpu) const {
  return loop_->trace(cpu, ControlLoop::Trace::kPredictedIpc);
}
const sim::TimeSeries& FvsstDaemon::measured_ipc_trace(std::size_t cpu) const {
  return loop_->trace(cpu, ControlLoop::Trace::kMeasuredIpc);
}
const sim::TimeSeries& FvsstDaemon::deviation_trace(std::size_t cpu) const {
  return loop_->trace(cpu, ControlLoop::Trace::kDeviation);
}

double FvsstDaemon::tick_time(std::uint64_t m) const {
  if (m == 0) return start_t_;
  return grid_origin_ + static_cast<double>(m - 1) * config_.t_sample_s;
}

std::uint64_t FvsstDaemon::first_tick_at_or_after(double t) const {
  // Estimate, then settle on the exact lattice expression.
  const double est = std::ceil((t - grid_origin_) / config_.t_sample_s);
  std::uint64_t m = est > 0.0 ? static_cast<std::uint64_t>(est) + 1 : 1;
  while (tick_time(m) < t) ++m;
  while (m > 1 && tick_time(m - 1) >= t) --m;
  return m;
}

bool FvsstDaemon::must_step(std::uint64_t m) const {
  if (loop_->retrying_cpu_count() > 0) return true;
  const double from = tick_time(m);
  const double to = tick_time(m + 1);
  for (const auto& [start, end] : reject_windows_) {
    if (start > to) break;
    if (end > from) return true;
  }
  return false;
}

std::uint64_t FvsstDaemon::next_wake(std::uint64_t m,
                                     std::uint64_t next_cycle) const {
  if (must_step(m)) return m + 1;
  // The first tick a window reaches must wake: a budget trigger inside the
  // window may be refused and start a retry that tick counts.
  const double to = tick_time(m + 1);
  for (const auto& [start, end] : reject_windows_) {
    if (start > to) {
      return std::min(next_cycle, first_tick_at_or_after(start));
    }
  }
  return next_cycle;
}

void FvsstDaemon::arm_wake(std::uint64_t m) {
  // Ordered at its instant as the per-tick timer's firing m would be: as
  // if armed at tick m - 1, so observers sampling on their own timers
  // (power sensors, the margin controller) see the same before/after.
  wake_k_ = m;
  wake_event_ = sim_.schedule_at(tick_time(m), tick_time(m - 1),
                                 [this] { on_wake(); });
}

void FvsstDaemon::on_wake() {
  const std::uint64_t m = wake_k_;
  last_wake_k_ = m;
  const std::uint64_t n =
      static_cast<std::uint64_t>(config_.schedule_every_n_samples);
  const std::uint64_t next =
      next_wake(m, m == next_cycle_k_ ? m + n : next_cycle_k_);
  // The next tick's wake is armed before any work, as a periodic timer
  // re-arms before its action: events the work schedules for that tick
  // run after its wake, never before.
  if (next == m + 1) arm_wake(next);
  // The per-tick steals were applied by the cores' sampling grids; collect
  // replays the skipped per-tick counter folds from the recorded history.
  loop_->collect(sim_.now());
  if (m == next_cycle_k_) {
    run_cycle(CycleTrigger::kTimer);
    next_cycle_k_ += n;
  }
  if (next != m + 1) arm_wake(next);
}

void FvsstDaemon::run_cycle(CycleTrigger trigger) {
  const double now = sim_.now();
  const ScheduleResult& result =
      loop_->run_cycle(now, budget_.effective_limit_w(), trigger);
  if (config_.monitor) {
    // Measured draw, not the grant: sticky or rejected writes leave the
    // hardware above budget even when the schedule looks feasible, and
    // that is exactly the overshoot the default rule pack watches for.
    const double drawn = cluster_.cpu_power_w();
    config_.monitor->observe(
        mon_over_budget_, now,
        std::max(0.0, drawn - budget_.effective_limit_w()));
    if (config_.journal) {
      const std::size_t dropped = config_.journal->dropped();
      config_.monitor->observe(
          mon_journal_dropped_, now,
          static_cast<double>(dropped - mon_last_dropped_));
      mon_last_dropped_ = dropped;
    }
    config_.monitor->evaluate(now);
  }
  if (!result.feasible) {
    sim::LogLine(sim::LogLevel::kWarn, "fvsst", now)
        << "budget " << budget_.effective_limit_w()
        << "W infeasible even at minimum frequencies";
  }
  if (trigger == CycleTrigger::kBudget) {
    sim::LogLine(sim::LogLevel::kInfo, "fvsst", now)
        << "budget trigger: rescheduled to "
        << result.total_cpu_power_w << "W (limit "
        << budget_.effective_limit_w() << "W)";
  }
}

double FvsstDaemon::cpu_energy_j(std::size_t cpu) const {
  return loop_->cpu_energy_j(cpu, sim_.now());
}

double FvsstDaemon::cpu_mean_power_w(std::size_t cpu) const {
  return loop_->cpu_mean_power_w(cpu, sim_.now());
}

}  // namespace fvsst::core
