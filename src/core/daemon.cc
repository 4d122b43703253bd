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
    if (event_driven_) {
      // A budget trigger restarts T (t_restarts = 1): in tick mode the tick
      // count resets and the next timer cycle lands n counted ticks later,
      // where a tick at exactly now still counts (budget events carry
      // setup-time sequence numbers, so they fire before the re-armed tick
      // at a coincident instant).  Reproduce that arithmetic on the
      // lattice: j0 = min{j : g_j >= now}, next cycle at index j0 + n - 1.
      // Tick number m (1-based) fires at grid_origin_ + (m-1)*t; find the
      // first tick at or after the trigger by lattice index i = m - 1.
      const double tau = sim_.now();
      const double t = config_.t_sample_s;
      double est = std::ceil((tau - grid_origin_) / t);
      if (!(est > 0.0)) est = 0.0;
      std::uint64_t i = static_cast<std::uint64_t>(est);
      while (grid_origin_ + static_cast<double>(i) * t < tau) ++i;
      while (i > 0 && grid_origin_ + static_cast<double>(i - 1) * t >= tau) {
        --i;
      }
      const std::uint64_t j = i + 1;  // First tick number at or after tau.
      run_cycle(CycleTrigger::kBudget);
      next_cycle_k_ =
          j + static_cast<std::uint64_t>(config_.schedule_every_n_samples) - 1;
      sim_.cancel(wake_event_);
      schedule_wake();
    } else {
      run_cycle(CycleTrigger::kBudget);
    }
  });
  // Event-driven advance needs every tick-granular mechanism disabled:
  // actuation retries count ticks, so a non-empty fault plan forces the
  // tick fallback (behaviour, not just timing, would diverge otherwise).
  event_driven_ = config_.advance_mode == AdvanceMode::kEvent &&
                  !(config_.fault_plan && !config_.fault_plan->empty());
  if (event_driven_) {
    // The lattice a tick-driven daemon would sample on: schedule_every
    // fires first at now + t, and re-arms firing m at that SAME origin
    // plus (m-1)*t — so the first firing, not the schedule time, anchors
    // every later instant's floating-point value.
    grid_origin_ = sim_.now() + config_.t_sample_s;
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      // The overhead a tick-driven daemon would have stolen at each tick:
      // locally per CPU with per-CPU collector threads, else all charged
      // to the CPU hosting the daemon process.
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
    next_cycle_k_ =
        static_cast<std::uint64_t>(config_.schedule_every_n_samples);
    schedule_wake();
  } else {
    tick_event_ =
        sim_.schedule_every(config_.t_sample_s, [this] { on_sample_tick(); });
  }
}

FvsstDaemon::~FvsstDaemon() {
  sim_.cancel(tick_event_);
  sim_.cancel(wake_event_);
}

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

void FvsstDaemon::on_sample_tick() {
  // Reading counters costs CPU time: either all on the single daemon
  // thread's CPU, or locally on every CPU when per-CPU collector threads
  // are used (paper Sec. 9's improved design).
  if (config_.per_cpu_threads) {
    for (const auto& addr : procs_) {
      cluster_.core(addr).steal_time(config_.overhead_per_cpu_sample_s);
    }
  } else {
    cluster_.core(procs_[config_.daemon_cpu])
        .steal_time(config_.overhead_per_cpu_sample_s *
                    static_cast<double>(procs_.size()));
  }
  if (loop_->collect(sim_.now())) {
    run_cycle(CycleTrigger::kTimer);
  }
}

void FvsstDaemon::schedule_wake() {
  // Tick number next_cycle_k_ fires at origin + (k-1)*t: grid_origin_ is
  // the first tick itself, matching sim::Simulation's re-arm expression.
  wake_event_ = sim_.schedule_at(
      grid_origin_ +
          static_cast<double>(next_cycle_k_ - 1) * config_.t_sample_s,
      [this] { on_event_wake(); });
}

void FvsstDaemon::on_event_wake() {
  // The per-tick steals were applied by the cores' sampling grids; collect
  // replays the skipped per-tick counter folds from the recorded history.
  // Its due-cycle return is ignored: in event mode a wake *is* the cycle.
  loop_->collect(sim_.now());
  run_cycle(CycleTrigger::kTimer);
  next_cycle_k_ +=
      static_cast<std::uint64_t>(config_.schedule_every_n_samples);
  schedule_wake();
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
