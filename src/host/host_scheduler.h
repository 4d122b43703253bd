// host_scheduler.h - fvsst wired to a real Linux host.
//
// The paper's prototype read Power4+ counters through kernel support and
// throttled the pipeline; on a modern Linux machine the equivalents are
// perf_event_open(2) for the counters and sysfs cpufreq for the actuator.
// HostScheduler is the shared core::ControlLoop engine wired with host
// backends:
//
//   PerfEventSampler -> IpcEstimator -> SchedulerPolicyStage -> SysfsActuator
//
// The caller drives step() from its own timing loop (the simulator's T
// becomes a wall-clock interval).  Everything degrades gracefully: where
// counters or cpufreq are unavailable the affected piece reports itself
// inactive instead of failing, so the class is constructible and testable
// inside containers (tests point it at a fake sysfs tree).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/control_loop.h"
#include "core/scheduler.h"
#include "host/cpufreq_sysfs.h"
#include "host/perf_events.h"
#include "power/power_model.h"
#include "simkit/telemetry.h"

namespace fvsst::host {

/// Builds an operating-point table from a host CPU's available frequencies.
/// Voltages are unknown to sysfs, so a linear reduced-voltage curve is
/// assumed between `volt_min` and `volt_max`, and per-point power comes
/// from the analytic model with the given coefficients.  Returns nullopt
/// when the CPU exposes no frequency list.
std::optional<mach::FrequencyTable> table_from_host(
    const CpuFreqInfo& info, const power::PowerModel& model,
    double volt_min = 0.8, double volt_max = 1.2);

/// Sampler over one process-wide perf_event_open(2) counter group.
/// Per-CPU counting needs elevated privileges; this prototype-grade
/// fallback observes the calling workload only, mirroring the paper's
/// single-threaded daemon, and reports the same interval sample for every
/// managed CPU.  The interval length is supplied by the caller's timing
/// loop via set_interval().
class PerfEventSampler final : public core::Sampler {
 public:
  explicit PerfEventSampler(std::size_t cpu_count);

  std::size_t cpu_count() const override { return cpus_; }
  void end_interval(double now,
                    std::vector<core::IntervalSample>& out) override;

  /// Wall-clock length of the interval the next end_interval() closes.
  void set_interval(double seconds) { interval_s_ = seconds; }

  /// True when the hardware counter group opened and started.
  bool available() const { return available_; }

 private:
  std::size_t cpus_;
  PerfEventGroup group_;
  bool available_ = false;
  cpu::PerfCounters last_;
  double interval_s_ = 0.0;
};

/// Actuator writing granted frequencies to sysfs scaling_setspeed.  Writes
/// that fail (insufficient privilege) are counted, not fatal.
class SysfsActuator final : public core::Actuator {
 public:
  SysfsActuator(CpufreqSysfs& sysfs, std::vector<int> cpus);

  core::ActuationReport apply(const core::ScheduleResult& result, double now,
                              core::CycleTrigger trigger) override;
  bool write_one(std::size_t cpu, double hz, double now) override;

  std::size_t failed_writes() const { return failed_writes_; }

 private:
  CpufreqSysfs& sysfs_;
  std::vector<int> cpus_;
  std::size_t failed_writes_ = 0;
};

/// Drives fvsst on the local machine.
class HostScheduler {
 public:
  struct Options {
    core::FrequencyScheduler::Options scheduler;
    /// Memory latency constants for the predictor (seconds).  Defaults are
    /// typical contemporary server values; calibrate per machine for
    /// accuracy (paper Sec. 4.3).
    mach::MemoryLatencies latencies{4e-9, 12e-9, 90e-9};
    power::PowerModel power_model{50e-9, 1.0};
    double power_budget_w = 1e9;  ///< Effectively unconstrained by default.
    std::string sysfs_root = "/sys/devices/system/cpu";
    /// Record per-CPU traces in telemetry() (off for long-lived daemons).
    bool record_traces = false;
    /// Decision journal (not owned; must outlive the scheduler).
    sim::EventLog* journal = nullptr;
  };

  explicit HostScheduler(Options options);

  /// True when at least one CPU with cpufreq control was found.
  bool active() const { return !cpus_.empty(); }

  /// CPUs under management.
  const std::vector<int>& cpus() const { return cpus_; }

  /// True when hardware counters opened (otherwise step() only enforces
  /// the budget cap, with no per-workload prediction).
  bool counters_available() const { return counters_available_; }

  /// One scheduling round over `interval_s` of wall-clock history.
  /// Returns the decisions (empty when inactive).
  std::vector<core::ScheduleDecision> step(double interval_s);

  std::size_t failed_writes() const {
    return actuator_ ? actuator_->failed_writes() : 0;
  }
  std::size_t steps() const { return loop_ ? loop_->cycles_run() : 0; }

  void set_power_budget_w(double watts) { options_.power_budget_w = watts; }

  /// The underlying engine; null when inactive.
  const core::ControlLoop* loop() const { return loop_.get(); }

  sim::MetricRegistry& telemetry() { return telemetry_; }
  const sim::MetricRegistry& telemetry() const { return telemetry_; }

 private:
  Options options_;
  CpufreqSysfs sysfs_;
  std::vector<int> cpus_;
  std::optional<mach::FrequencyTable> table_;
  std::vector<const mach::FrequencyTable*> proc_tables_;
  sim::MetricRegistry telemetry_;
  PerfEventSampler* sampler_ = nullptr;    ///< Owned by loop_.
  SysfsActuator* actuator_ = nullptr;      ///< Owned by loop_.
  std::unique_ptr<core::ControlLoop> loop_;
  bool counters_available_ = false;
  double clock_s_ = 0.0;  ///< Accumulated wall-clock time across steps.
};

}  // namespace fvsst::host
