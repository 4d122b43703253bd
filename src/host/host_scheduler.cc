#include "host/host_scheduler.h"

#include <utility>

namespace fvsst::host {

std::optional<mach::FrequencyTable> table_from_host(
    const CpuFreqInfo& info, const power::PowerModel& model, double volt_min,
    double volt_max) {
  if (info.available_hz.empty()) return std::nullopt;
  const double f_lo = info.available_hz.front();
  const double f_hi = info.available_hz.back();
  std::vector<mach::OperatingPoint> points;
  for (double hz : info.available_hz) {
    const double rel = f_hi > f_lo ? (hz - f_lo) / (f_hi - f_lo) : 1.0;
    const double volts = volt_min + (volt_max - volt_min) * rel;
    points.push_back({hz, volts, model.power(hz, volts)});
  }
  return mach::FrequencyTable(std::move(points));
}

PerfEventSampler::PerfEventSampler(std::size_t cpu_count) : cpus_(cpu_count) {
  available_ = group_.valid() && group_.start();
  if (available_) {
    if (const auto snap = group_.read()) last_ = *snap;
  }
}

void PerfEventSampler::end_interval(double now,
                                    std::vector<core::IntervalSample>& out) {
  (void)now;
  core::IntervalSample sample;
  sample.elapsed_s = interval_s_;
  if (available_ && interval_s_ > 0.0) {
    if (const auto snap = group_.read()) {
      sample.delta = *snap - last_;
      sample.measured_hz = sample.delta.cycles / interval_s_;
      last_ = *snap;
      sample.valid = true;
    }
  }
  // The single process-wide observation stands in for every managed CPU.
  out.assign(cpus_, sample);
}

SysfsActuator::SysfsActuator(CpufreqSysfs& sysfs, std::vector<int> cpus)
    : sysfs_(sysfs), cpus_(std::move(cpus)) {}

core::ActuationReport SysfsActuator::apply(const core::ScheduleResult& result,
                                           double now,
                                           core::CycleTrigger trigger) {
  (void)now;
  (void)trigger;
  core::ActuationReport report;
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    if (!sysfs_.set_frequency(cpus_[i], result.decisions[i].hz)) {
      ++failed_writes_;
      report.rejected.push_back(i);
    }
  }
  return report;
}

bool SysfsActuator::write_one(std::size_t cpu, double hz, double now) {
  (void)now;
  if (sysfs_.set_frequency(cpus_.at(cpu), hz)) return true;
  ++failed_writes_;
  return false;
}

HostScheduler::HostScheduler(Options options)
    : options_(std::move(options)), sysfs_(options_.sysfs_root) {
  cpus_ = sysfs_.cpus();
  if (cpus_.empty()) return;
  const auto info = sysfs_.info(cpus_.front());
  if (!info) {
    cpus_.clear();
    return;
  }
  table_ = table_from_host(*info, options_.power_model);
  if (!table_) {
    cpus_.clear();
    return;
  }
  proc_tables_.assign(cpus_.size(), &*table_);

  auto sampler = std::make_unique<PerfEventSampler>(cpus_.size());
  sampler_ = sampler.get();
  counters_available_ = sampler_->available();
  core::IpcEstimator::Options est_opts;
  est_opts.idle_signal = core::IdleSignal::kNone;
  // Stateless like the original host port: an unusable interval demotes
  // every CPU back to "unknown workload" (f_max under the budget cap).
  est_opts.reset_on_invalid = true;
  auto actuator = std::make_unique<SysfsActuator>(sysfs_, cpus_);
  actuator_ = actuator.get();

  core::ControlLoopConfig loop_config;
  loop_config.schedule_every_n_samples = 1;  // step() is externally paced.
  loop_config.record_traces = options_.record_traces;
  loop_config.journal = options_.journal;
  if (options_.journal) {
    // t_sample_s = 0: cycles are externally paced (wall clock), so the
    // inspector has no fixed period to verify.
    options_.journal->append(0.0, sim::EventType::kRunMeta)
        .set("t_sample_s", 0.0)
        .set("multiplier", 1.0)
        .set("cpus", static_cast<double>(cpus_.size()))
        .set("t_restarts", 0.0)
        .set("daemon", std::string("host"));
  }
  loop_ = std::make_unique<core::ControlLoop>(
      std::move(loop_config), std::move(sampler),
      std::make_unique<core::IpcEstimator>(options_.latencies, est_opts),
      std::make_unique<core::SchedulerPolicyStage>(*table_, options_.latencies,
                                                   options_.scheduler),
      std::move(actuator), proc_tables_, &telemetry_);
}

std::vector<core::ScheduleDecision> HostScheduler::step(double interval_s) {
  if (!active()) return {};
  sampler_->set_interval(interval_s);
  if (interval_s > 0.0) clock_s_ += interval_s;
  const core::ScheduleResult& result = loop_->run_cycle(
      clock_s_, options_.power_budget_w, core::CycleTrigger::kManual);
  return result.decisions;
}

}  // namespace fvsst::host
