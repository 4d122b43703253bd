#include "core/control_loop.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fvsst::core {

std::string_view cycle_trigger_name(CycleTrigger trigger) {
  switch (trigger) {
    case CycleTrigger::kTimer: return "timer";
    case CycleTrigger::kBudget: return "budget";
    case CycleTrigger::kManual: return "manual";
  }
  return "?";
}

ControlLoop::ControlLoop(ControlLoopConfig config,
                         std::unique_ptr<Sampler> sampler,
                         std::unique_ptr<Estimator> estimator,
                         std::unique_ptr<PolicyStage> policy,
                         std::unique_ptr<Actuator> actuator,
                         std::vector<const mach::FrequencyTable*> tables,
                         sim::MetricRegistry* telemetry)
    : config_(std::move(config)),
      sampler_(std::move(sampler)),
      estimator_(std::move(estimator)),
      policy_(std::move(policy)),
      actuator_(std::move(actuator)),
      tables_(std::move(tables)),
      telemetry_(telemetry) {
  const std::size_t cpus = sampler_->cpu_count();
  if (tables_.size() != cpus) {
    throw std::invalid_argument(
        "ControlLoop: tables must parallel the sampler's CPUs");
  }
  views_.resize(cpus);
  states_.resize(cpus);
  real_tables_ = tables_;
  pinned_tables_.resize(cpus);
  retries_.resize(cpus);
  last_written_hz_.assign(cpus, -1.0);
  if (telemetry_ && config_.record_traces) {
    const auto& nm = config_.naming;
    for (std::size_t i = 0; i < cpus; ++i) {
      const std::string prefix = config_.metric_prefix + std::to_string(i) + "/";
      const std::string suffix =
          nm.append_cpu_index ? std::to_string(i) : std::string();
      auto& st = states_[i];
      // One-time interning: the hot loop appends through these pointers
      // and never touches the registry's hash map again.
      st.granted = &telemetry_->series(
          telemetry_->intern_series(prefix + "granted_hz", nm.granted + suffix));
      st.desired = &telemetry_->series(
          telemetry_->intern_series(prefix + "desired_hz", nm.desired + suffix));
      st.pred_ipc = &telemetry_->series(telemetry_->intern_series(
          prefix + "predicted_ipc", nm.predicted_ipc + suffix));
      st.meas_ipc = &telemetry_->series(telemetry_->intern_series(
          prefix + "measured_ipc", nm.measured_ipc + suffix));
      st.dev = &telemetry_->series(telemetry_->intern_series(
          prefix + "ipc_deviation", nm.deviation + suffix));
    }
  }
  if (config_.journal) {
    prev_idle_.assign(cpus, 0);
    // The operating-point tables are the inspector's ground truth for the
    // minimum-voltage check; record them up front.
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      for (std::size_t k = 0; k < tables_[i]->size(); ++k) {
        const auto& point = (*tables_[i])[k];
        config_.journal->append(0.0, sim::EventType::kTablePoint,
                                static_cast<int>(i))
            .set("hz", point.hz)
            .set("volts", point.volts)
            .set("watts", point.watts);
      }
    }
  }
}

void ControlLoop::prime(double now, const std::vector<double>& hz,
                        const std::vector<double>& watts) {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    auto& st = states_[i];
    if (i < watts.size()) st.power_acc.record(now, watts[i]);
    if (i < hz.size()) {
      if (st.granted) st.granted->add(now, hz[i]);
      if (st.desired) st.desired->add(now, hz[i]);
    }
  }
}

void ControlLoop::collect(double now) {
  sampler_->collect();
  process_retries(now);
}

const ScheduleResult& ControlLoop::run_cycle(double now, double power_budget_w,
                                             CycleTrigger trigger) {
  if (config_.journal) {
    config_.journal->append(now, sim::EventType::kCycleStart)
        .set("cycle", static_cast<double>(cycles_run_))
        .set("budget_w", power_budget_w)
        .set("trigger", std::string(cycle_trigger_name(trigger)));
  }

  // --- Sample + Estimate: close the interval, score the previous cycle's
  // predictions against what was measured, refresh the workload views.
  sampler_->end_interval(now, samples_);
  for (std::size_t i = 0; i < states_.size() && i < samples_.size(); ++i) {
    const IntervalSample& s = samples_[i];
    if (!s.valid) continue;
    auto& st = states_[i];
    if (!st.has_prediction) continue;
    const double measured_ipc = s.delta.ipc();
    const double deviation = std::abs(st.predicted_ipc - measured_ipc);
    if (st.meas_ipc) st.meas_ipc->add(now, measured_ipc);
    if (st.dev) st.dev->add(now, deviation);
    st.deviation.add(deviation);
  }
  estimator_->update(samples_, views_);

  if (config_.journal) {
    for (std::size_t i = 0; i < views_.size(); ++i) {
      const char idle = views_[i].idle ? 1 : 0;
      if (idle != prev_idle_[i]) {
        config_.journal->append(now,
                                idle ? sim::EventType::kIdleEnter
                                     : sim::EventType::kIdleExit,
                                static_cast<int>(i));
        prev_idle_[i] = idle;
      }
    }
    // Sticky-write detection (observation only): the set-point measured at
    // interval close disagrees with the last write the actuator accepted.
    if (config_.detect_actuation_mismatch) {
      for (std::size_t i = 0; i < views_.size(); ++i) {
        if (retries_[i].active || last_written_hz_[i] < 0.0) continue;
        const double measured = views_[i].current_hz;
        if (measured > 0.0 && measured != last_written_hz_[i]) {
          config_.journal->append(now, sim::EventType::kFault,
                                  static_cast<int>(i))
              .set("expected_hz", last_written_hz_[i])
              .set("observed_hz", measured)
              .set("kind", std::string("actuation_sticky"));
        }
      }
    }
  }

  // The facade's modelled scheduling cost (dead cycles) is charged here.
  if (config_.pre_policy) config_.pre_policy(trigger);

  // --- Policy.
  last_result_ = policy_->decide(views_, tables_, power_budget_w);
  ++cycles_run_;

  // --- Actuate, then account for what was granted: record the promise the
  // policy's model makes for the next interval, and the operating point's
  // power/frequency traces.
  const ActuationReport report = actuator_->apply(last_result_, now, trigger);
  handle_rejections(report, now);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const ScheduleDecision& d = last_result_.decisions[i];
    auto& st = states_[i];
    const double predicted =
        views_[i].estimate.valid ? policy_->predict_ipc(views_[i], d.hz) : -1.0;
    if (predicted >= 0.0) {
      st.predicted_ipc = predicted;
      st.has_prediction = true;
      if (st.pred_ipc) st.pred_ipc->add(now, predicted);
    } else {
      st.has_prediction = false;
    }
    // A rejected write leaves the hardware at its pinned point; charge the
    // true draw, not the grant that never landed.
    const double actual_watts =
        retries_[i].active && pinned_tables_[i]
            ? pinned_tables_[i]->max_point().watts
            : d.watts;
    st.power_acc.record(now, actual_watts);
    if (st.granted) st.granted->add(now, d.hz);
    if (st.desired) st.desired->add(now, d.desired_hz);
  }
  if (telemetry_) {
    if (!cycles_id_.valid()) {
      cycles_id_ = telemetry_->intern_counter("loop/cycles");
    }
    telemetry_->counter(cycles_id_) = static_cast<double>(cycles_run_);
  }
  if (config_.journal) journal_cycle(now, power_budget_w);
  if (config_.monitor) {
    if (!monitor_ids_.resolved) {
      monitor_ids_.downgrade_steps = config_.monitor->input("downgrade_steps");
      monitor_ids_.infeasible = config_.monitor->input("infeasible");
      monitor_ids_.resolved = true;
    }
    config_.monitor->observe(monitor_ids_.downgrade_steps, now,
                             static_cast<double>(last_result_.downgrade_steps));
    config_.monitor->observe(monitor_ids_.infeasible, now,
                             last_result_.feasible ? 0.0 : 1.0);
  }
  return last_result_;
}

void ControlLoop::journal_cycle(double now, double power_budget_w) {
  sim::EventLog& journal = *config_.journal;
  for (std::size_t i = 0; i < last_result_.decisions.size(); ++i) {
    const ScheduleDecision& d = last_result_.decisions[i];
    sim::Event& e = journal.append(now, sim::EventType::kDecision,
                                   static_cast<int>(i));
    e.set("granted_hz", d.hz)
        .set("desired_hz", d.desired_hz)
        .set("volts", d.volts)
        .set("watts", d.watts)
        .set("predicted_loss", d.predicted_loss)
        .set("idle", i < views_.size() && views_[i].idle ? 1.0 : 0.0);
    if (d.pass1_reason != Pass1Reason::kUnspecified) {
      e.set("pass1", std::string(pass1_reason_name(d.pass1_reason)));
    }
    if (last_result_.explained) {
      e.set("pass1_loss", d.pass1_loss);
      e.set("rejected_loss", d.rejected_loss);
      // The workload estimate behind the decision, so offline tooling
      // (tools/fvsst_oracle) can replay the cycle against the same model
      // the policy saw and bound what any policy could have achieved.
      if (i < views_.size()) {
        const WorkloadEstimate& est = views_[i].estimate;
        e.set("est_valid", est.valid ? 1.0 : 0.0)
            .set("est_alpha_inv", est.alpha_inv)
            .set("est_mem_s", est.mem_time_per_instr);
      }
    }
  }
  for (std::size_t k = 0; k < last_result_.downgrades.size(); ++k) {
    const DowngradeStep& step = last_result_.downgrades[k];
    journal.append(now, sim::EventType::kDowngrade,
                   static_cast<int>(step.proc))
        .set("seq", static_cast<double>(k))
        .set("from_hz", step.from_hz)
        .set("to_hz", step.to_hz)
        .set("loss_after", step.loss_after)
        .set("marginal_loss", step.marginal_loss)
        .set("watts_saved", step.watts_saved);
  }
  if (!last_result_.feasible) {
    journal.append(now, sim::EventType::kInfeasibleBudget)
        .set("budget_w", power_budget_w)
        .set("total_power_w", last_result_.total_cpu_power_w);
  }
  journal.append(now, sim::EventType::kActuation)
      .set("total_power_w", last_result_.total_cpu_power_w)
      .set("budget_w", power_budget_w)
      .set("feasible", last_result_.feasible ? 1.0 : 0.0)
      .set("downgrade_steps",
           static_cast<double>(last_result_.downgrade_steps));
}

void ControlLoop::handle_rejections(const ActuationReport& report,
                                    double now) {
  for (std::size_t i = 0; i < last_result_.decisions.size(); ++i) {
    const bool rejected =
        std::find(report.rejected.begin(), report.rejected.end(), i) !=
        report.rejected.end();
    RetryState& retry = retries_[i];
    if (!rejected) {
      // The cycle's own write landed; an in-flight retry is moot.
      if (retry.active) finish_recovery(i, last_result_.decisions[i].hz, now);
      last_written_hz_[i] = last_result_.decisions[i].hz;
      continue;
    }
    const double target = last_result_.decisions[i].hz;
    if (!retry.active) {
      retry.active = true;
      retry.attempts = 1;
      retry.backoff_ticks = kActuationBackoffTicks;
      retry.ticks_until_retry = retry.backoff_ticks;
      // The write failed, so the hardware is still at its pre-cycle point;
      // schedule it there until the write lands so the power accounting
      // stays honest and the others absorb the budget.
      pin_cpu(i, views_[i].current_hz);
    }
    // A fresh grant re-aims an in-flight retry without resetting its
    // attempt budget (otherwise a permanently failing CPU never
    // fail-safes).
    if (!retry.degraded) retry.target_hz = target;
    if (config_.journal) {
      config_.journal->append(now, sim::EventType::kFault,
                              static_cast<int>(i))
          .set("attempt", static_cast<double>(retry.attempts))
          .set("target_hz", retry.target_hz)
          .set("kind", std::string("actuation_reject"));
    }
  }
}

void ControlLoop::process_retries(double now) {
  for (std::size_t i = 0; i < retries_.size(); ++i) {
    RetryState& retry = retries_[i];
    if (!retry.active) continue;
    if (--retry.ticks_until_retry > 0) continue;
    if (actuator_->write_one(i, retry.target_hz, now)) {
      finish_recovery(i, retry.target_hz, now);
      continue;
    }
    ++retry.attempts;
    if (config_.journal) {
      config_.journal->append(now, sim::EventType::kFault,
                              static_cast<int>(i))
          .set("attempt", static_cast<double>(retry.attempts))
          .set("target_hz", retry.target_hz)
          .set("kind", std::string("actuation_reject"));
    }
    if (!retry.degraded && retry.attempts > kActuationMaxRetries) {
      // Retry budget spent: fail-safe.  Hold the table-minimum grant (the
      // most conservative request) and keep knocking at a bounded pace.
      retry.degraded = true;
      retry.target_hz = real_tables_[i]->min_hz();
      if (config_.journal) {
        config_.journal->append(now, sim::EventType::kDegradedMode,
                                static_cast<int>(i))
            .set("hz", retry.target_hz)
            .set("state", std::string("enter"))
            .set("reason", std::string("actuation_failsafe"));
      }
    }
    // Exponential backoff capped near T/2 so a cleared fault is noticed
    // within about one scheduling period.
    const int cap = std::max(1, config_.schedule_every_n_samples / 2);
    retry.backoff_ticks = std::min(retry.backoff_ticks * 2, cap);
    retry.ticks_until_retry = retry.backoff_ticks;
  }
}

void ControlLoop::finish_recovery(std::size_t cpu, double hz_written,
                                  double now) {
  RetryState& retry = retries_[cpu];
  last_written_hz_[cpu] = hz_written;
  const bool was_degraded = retry.degraded;
  const int attempts = retry.attempts;
  retry = RetryState{};
  unpin_cpu(cpu);
  if (config_.journal) {
    if (was_degraded) {
      config_.journal->append(now, sim::EventType::kDegradedMode,
                              static_cast<int>(cpu))
          .set("hz", hz_written)
          .set("state", std::string("exit"))
          .set("reason", std::string("actuation_failsafe"));
    }
    config_.journal->append(now, sim::EventType::kFault,
                            static_cast<int>(cpu))
        .set("attempt", static_cast<double>(attempts))
        .set("recovered_hz", hz_written)
        .set("kind", std::string("actuation_reject"))
        .set("state", std::string("exit"));
  }
}

void ControlLoop::pin_cpu(std::size_t cpu, double hz) {
  const mach::FrequencyTable* real = real_tables_.at(cpu);
  const mach::OperatingPoint& point =
      hz > 0.0 ? real->ceil_point(hz) : real->max_point();
  pinned_tables_[cpu] = std::make_unique<mach::FrequencyTable>(
      std::vector<mach::OperatingPoint>{point});
  tables_[cpu] = pinned_tables_[cpu].get();
}

void ControlLoop::unpin_cpu(std::size_t cpu) {
  tables_.at(cpu) = real_tables_.at(cpu);
  pinned_tables_[cpu].reset();
}

bool ControlLoop::pinned(std::size_t cpu) const {
  return pinned_tables_.at(cpu) != nullptr;
}

std::size_t ControlLoop::degraded_cpu_count() const {
  std::size_t n = 0;
  for (const RetryState& r : retries_) n += r.degraded ? 1 : 0;
  return n;
}

std::size_t ControlLoop::retrying_cpu_count() const {
  std::size_t n = 0;
  for (const RetryState& r : retries_) n += r.active ? 1 : 0;
  return n;
}

const sim::RunningStat& ControlLoop::deviation_stat(std::size_t cpu) const {
  return states_.at(cpu).deviation;
}

double ControlLoop::cpu_energy_j(std::size_t cpu, double now) const {
  return states_.at(cpu).power_acc.integral_until(now);
}

double ControlLoop::cpu_mean_power_w(std::size_t cpu, double now) const {
  return states_.at(cpu).power_acc.mean_until(now);
}

const sim::TimeSeries& ControlLoop::trace(std::size_t cpu, Trace which) const {
  static const sim::TimeSeries kEmpty{};
  const CpuState& st = states_.at(cpu);
  const sim::TimeSeries* s = nullptr;
  switch (which) {
    case Trace::kGranted: s = st.granted; break;
    case Trace::kDesired: s = st.desired; break;
    case Trace::kPredictedIpc: s = st.pred_ipc; break;
    case Trace::kMeasuredIpc: s = st.meas_ipc; break;
    case Trace::kDeviation: s = st.dev; break;
  }
  return s ? *s : kEmpty;
}

// ---------------------------------------------------------------------------
// SimCoreSampler
// ---------------------------------------------------------------------------

SimCoreSampler::SimCoreSampler(cluster::Cluster& cluster,
                               std::vector<cluster::ProcAddress> procs,
                               ResetPolicy reset, double start_time)
    : cluster_(cluster),
      procs_(std::move(procs)),
      reset_(reset),
      aggregate_started_at_(procs_.size(), start_time) {
  for (const auto& addr : procs_) cluster_.core(addr).start_sample_fold();
}

void SimCoreSampler::collect() {
  // Syncing folds every grid instant crossed since the last collect (each
  // the counters a collect at that tick would have read), then the read
  // at `now` folds on top: the sum stays bit-identical to the per-tick
  // collector's.
  for (const auto& addr : procs_) cluster_.core(addr).collect_sample_fold();
}

void SimCoreSampler::end_interval(double now,
                                  std::vector<IntervalSample>& out) {
  collect();  // fold anything gathered since the last tick
  out.assign(procs_.size(), IntervalSample{});
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    IntervalSample& s = out[i];
    auto& core = cluster_.core(procs_[i]);
    const double elapsed = now - aggregate_started_at_[i];
    s.delta = core.sample_fold();
    s.elapsed_s = elapsed;
    s.os_idle = core.idle();
    s.current_hz = core.frequency_hz();
    s.valid = elapsed > 0.0 && s.delta.cycles > 0.0;
    if (s.valid) s.measured_hz = s.delta.cycles / elapsed;
    const bool reset =
        reset_ == ResetPolicy::kOnElapsed ? elapsed > 0.0 : s.valid;
    if (reset) {
      core.clear_sample_fold();
      aggregate_started_at_[i] = now;
    }
  }
}

// ---------------------------------------------------------------------------
// IpcEstimator
// ---------------------------------------------------------------------------

IpcEstimator::IpcEstimator(const mach::MemoryLatencies& latencies,
                           Options options)
    : predictor_(latencies), options_(options) {}

void IpcEstimator::update(const std::vector<IntervalSample>& samples,
                          std::vector<ProcView>& views) {
  if (halted_fraction_.size() < samples.size()) {
    halted_fraction_.resize(samples.size(), 0.0);
  }
  for (std::size_t i = 0; i < samples.size() && i < views.size(); ++i) {
    const IntervalSample& s = samples[i];
    ProcView& v = views[i];
    if (s.valid) {
      halted_fraction_[i] = s.delta.halted_cycles / s.delta.cycles;
      CounterObservation obs;
      obs.delta = s.delta;
      obs.measured_hz = s.measured_hz;
      const WorkloadEstimate est = predictor_.estimate(obs);
      if (est.valid) {
        const double sm = options_.smoothing;
        if (sm > 0.0 && v.estimate.valid) {
          v.estimate.alpha_inv =
              sm * v.estimate.alpha_inv + (1.0 - sm) * est.alpha_inv;
          v.estimate.mem_time_per_instr =
              sm * v.estimate.mem_time_per_instr +
              (1.0 - sm) * est.mem_time_per_instr;
        } else {
          v.estimate = est;
        }
      } else if (options_.reset_on_invalid) {
        v.estimate = est;
      }
    } else if (options_.reset_on_invalid) {
      v.estimate = WorkloadEstimate{};
    }
    switch (options_.idle_signal) {
      case IdleSignal::kOsSignal:
        v.idle = s.os_idle;
        break;
      case IdleSignal::kHaltedCounter:
        v.idle = halted_fraction_[i] > kHaltedIdleThreshold;
        break;
      case IdleSignal::kNone:
        v.idle = false;
        break;
    }
    v.current_hz = s.current_hz;
  }
}

// ---------------------------------------------------------------------------
// SchedulerPolicyStage
// ---------------------------------------------------------------------------

SchedulerPolicyStage::SchedulerPolicyStage(const mach::FrequencyTable& table,
                                           const mach::MemoryLatencies& latencies,
                                           FrequencyScheduler::Options options)
    : scheduler_(table, latencies, options) {}

ScheduleResult SchedulerPolicyStage::decide(
    const std::vector<ProcView>& views,
    const std::vector<const mach::FrequencyTable*>& tables,
    double power_budget_w) {
  return scheduler_.schedule(views, tables, power_budget_w);
}

double SchedulerPolicyStage::predict_ipc(const ProcView& view,
                                         double hz) const {
  return scheduler_.predictor().predict_ipc(view.estimate, hz);
}

// ---------------------------------------------------------------------------
// SimCoreActuator
// ---------------------------------------------------------------------------

SimCoreActuator::SimCoreActuator(cluster::Cluster& cluster,
                                 std::vector<cluster::ProcAddress> procs,
                                 bool skip_unchanged)
    : cluster_(cluster), procs_(std::move(procs)),
      skip_unchanged_(skip_unchanged) {}

void SimCoreActuator::set_fault_plan(const sim::FaultPlan* plan,
                                     sim::Simulation* sim) {
  faults_ = plan && !plan->empty() ? plan : nullptr;
  sim_ = sim;
}

// Performs one frequency write under the fault plan.  Returns false when
// the write was refused (kActuationReject); a sticky write (claims success,
// changes nothing) and a delayed write both return true — no error is the
// whole point of those failure modes.
bool SimCoreActuator::write(std::size_t cpu, double hz, double now) {
  const int target = static_cast<int>(cpu);
  if (faults_) {
    using sim::FaultKind;
    if (faults_->active(FaultKind::kActuationReject, target, now)) {
      return false;
    }
    if (faults_->active(FaultKind::kActuationSticky, target, now)) {
      return true;
    }
    if (const sim::FaultSpec* delay =
            faults_->active(FaultKind::kActuationDelay, target, now);
        delay && sim_ && delay->value > 0.0) {
      sim_->schedule_after(delay->value, [this, cpu, hz] {
        cluster_.core(procs_[cpu]).set_frequency(hz);
      });
      return true;
    }
  }
  cluster_.core(procs_[cpu]).set_frequency(hz);
  return true;
}

ActuationReport SimCoreActuator::apply(const ScheduleResult& result,
                                       double now, CycleTrigger trigger) {
  (void)trigger;
  ActuationReport report;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const double hz = result.decisions[i].hz;
    if (skip_unchanged_ && hz == cluster_.core(procs_[i]).frequency_hz()) {
      continue;
    }
    if (!write(i, hz, now)) report.rejected.push_back(i);
  }
  return report;
}

bool SimCoreActuator::write_one(std::size_t cpu, double hz, double now) {
  return write(cpu, hz, now);
}

}  // namespace fvsst::core
