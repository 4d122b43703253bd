// governor_daemon.h - Classic utilisation-driven frequency governors.
//
// Transmeta's LongRun and Intel's Demand Based Switching — the mechanisms
// the paper positions fvsst against — "respond to changes in demand ...
// using a very simple model": frequency follows CPU utilisation, read from
// non-halted-cycle style counters, with no knowledge of memory behaviour
// or power budgets.  GovernorDaemon runs those policies live in the
// simulation so benches can compare their dynamic behaviour with fvsst's:
//
//   kPerformance   always f_max
//   kPowersave     always f_min
//   kOndemand      jump to f_max above an up-threshold, else proportional
//                  to utilisation (Linux's classic ondemand)
//   kConservative  step one setting up/down on threshold crossings
//
// Utilisation is measured as the non-halted cycle fraction.  On hot-idle
// processors (the Power4+) that reads 1.0 even when idle, so these
// governors pin idle machines at f_max — the paper's core critique.  On
// memory-stalled work it also reads 1.0, so they never exploit
// performance saturation.
//
// The daemon is a facade over the shared core::ControlLoop engine:
// SimCoreSampler feeds a UtilizationEstimator (non-halted fraction into
// ProcView::utilization), a GovernorPolicyStage maps utilisation to
// frequency, and SimCoreActuator writes only changed set-points.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/control_loop.h"
#include "core/scheduler.h"
#include "simkit/event_queue.h"
#include "simkit/telemetry.h"
#include "simkit/time_series.h"

namespace fvsst::baselines {

enum class GovernorPolicy { kPerformance, kPowersave, kOndemand, kConservative };

/// Returns the policy's cpufreq-style name.
std::string governor_name(GovernorPolicy policy);

/// Estimator stage of the governors: folds each interval's non-halted
/// cycle fraction into ProcView::utilization (sticky across unusable
/// intervals) and refreshes ProcView::current_hz.  Makes no workload
/// estimate — these governors are memory-blind by design.
class UtilizationEstimator final : public core::Estimator {
 public:
  void update(const std::vector<core::IntervalSample>& samples,
              std::vector<core::ProcView>& views) override;
};

/// The LongRun/DBS-style policies as a control-loop stage.
class GovernorPolicyStage final : public core::PolicyStage {
 public:
  GovernorPolicyStage(GovernorPolicy policy, double up_threshold,
                      double down_threshold);

  core::ScheduleResult decide(
      const std::vector<core::ProcView>& views,
      const std::vector<const mach::FrequencyTable*>& tables,
      double power_budget_w) override;

  /// The per-CPU rule; exposed for tests.
  double decide_hz(const mach::FrequencyTable& table, double util,
                   double current_hz) const;

 private:
  GovernorPolicy policy_;
  double up_threshold_;
  double down_threshold_;
};

/// Per-CPU utilisation-driven governor daemon.
class GovernorDaemon {
 public:
  struct Config {
    GovernorPolicy policy = GovernorPolicy::kOndemand;
    double period_s = 0.010;      ///< Linux default sampling rate scale.
    double up_threshold = 0.80;   ///< ondemand/conservative step-up point.
    double down_threshold = 0.30; ///< conservative step-down point.
    bool record_traces = false;
    /// Decision journal (not owned; must outlive the daemon).
    sim::EventLog* journal = nullptr;
  };

  /// `table` is the default operating-point set; on heterogeneous
  /// clusters each processor is governed within its own node's table.
  GovernorDaemon(sim::Simulation& sim, cluster::Cluster& cluster,
                 const mach::FrequencyTable& table, Config config);
  ~GovernorDaemon();

  GovernorDaemon(const GovernorDaemon&) = delete;
  GovernorDaemon& operator=(const GovernorDaemon&) = delete;

  /// Most recent per-CPU utilisation readings (non-halted fraction).
  double utilization(std::size_t cpu) const {
    return loop_->views().at(cpu).utilization;
  }

  /// Decided frequency per tick ("gov_hz_cpu<i>"); empty unless
  /// Config::record_traces was set.
  const sim::TimeSeries& freq_trace(std::size_t cpu) const {
    return loop_->trace(cpu, core::ControlLoop::Trace::kGranted);
  }

  std::size_t evaluations() const { return loop_->cycles_run(); }

  /// The underlying engine (latest views).
  const core::ControlLoop& loop() const { return *loop_; }

  sim::MetricRegistry& telemetry() { return telemetry_; }
  const sim::MetricRegistry& telemetry() const { return telemetry_; }

 private:
  void tick();

  sim::Simulation& sim_;
  cluster::Cluster& cluster_;
  Config config_;
  std::vector<cluster::ProcAddress> procs_;
  std::vector<const mach::FrequencyTable*> proc_tables_;
  sim::MetricRegistry telemetry_;
  std::unique_ptr<core::ControlLoop> loop_;
  sim::EventId event_ = 0;
};

}  // namespace fvsst::baselines
