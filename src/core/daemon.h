// daemon.h - The fvsst daemon: the paper's prototype as a simulated process.
//
// The prototype (paper Sec. 6) is "a privileged user-level daemon ...
// single-threaded" that collects performance-counter data every dispatch
// interval t, and "after some number of collection cycles or when given a
// signal with a new frequency limit, executes the scheduling calculation
// and throttles the processors accordingly".  FvsstDaemon is a thin facade
// over the shared ControlLoop engine wired with the simulator stages:
//
//   SimCoreSampler -> IpcEstimator -> SchedulerPolicyStage -> SimCoreActuator
//
// The facade owns what is specific to the prototype: the sampling timer
// (paper: t = 10 ms, T = 10 * t), the power-budget trigger (the
// supply-failure signal), and the modelled daemon cost charged to the
// processor hosting the daemon (dead cycles, paper Fig. 4).  Everything
// else — prediction scoring, per-CPU power accounting, the scheduling and
// performance-counter logs the paper's post-processing relies on — lives in
// the engine and its telemetry registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/control_loop.h"
#include "core/scheduler.h"
#include "power/budget.h"
#include "simkit/event_queue.h"
#include "simkit/stats.h"
#include "simkit/telemetry.h"
#include "simkit/time_series.h"

namespace fvsst::core {

/// Daemon cost of one scheduling calculation, charged to the daemon CPU
/// per schedule.
inline constexpr double kOverheadPerScheduleS = 100e-6;

/// Daemon configuration.
struct DaemonConfig {
  double t_sample_s = 0.010;            ///< Counter sampling period t.
  int schedule_every_n_samples = 10;    ///< T = n * t.
  FrequencyScheduler::Options scheduler;
  IdleSignal idle_signal = IdleSignal::kOsSignal;
  /// EWMA weight of the *previous* estimate in [0, 1): 0 uses each
  /// interval's fresh estimate alone (the paper's prototype); larger
  /// values damp counter noise at the cost of slower phase response —
  /// the stability the paper otherwise buys with a large T.
  double estimate_smoothing = 0.0;
  /// Daemon cost of reading one CPU's counters once (charged per sample).
  double overhead_per_cpu_sample_s = 2e-6;
  /// Flattened index of the processor hosting the daemon process.
  std::size_t daemon_cpu = 0;
  /// Paper Sec. 9's improved design: "multiple threads, two per processor"
  /// — one collector and one actuator per CPU.  When true, per-CPU sampling
  /// cost is charged to each CPU itself (local counter reads) instead of
  /// funnelling everything through the daemon CPU.
  bool per_cpu_threads = false;
  /// Record per-CPU traces (disable for long bulk runs).
  bool record_traces = true;
  /// Decision journal (not owned; must outlive the daemon).  The daemon
  /// contributes run_meta and budget_change events; the engine emits the
  /// per-cycle record.  Null disables journalling.
  sim::EventLog* journal = nullptr;
  /// Injected faults (not owned; must outlive the daemon).  Actuation
  /// kinds (reject / sticky / delay) apply to the daemon's frequency
  /// writes; the engine answers rejects with retry-with-backoff escalating
  /// to an f_min fail-safe.  Null or empty: no injection, bit-for-bit
  /// identical behaviour.
  const sim::FaultPlan* fault_plan = nullptr;
  /// Inert (see AdvanceMode); nothing reads it.
  AdvanceMode advance_mode = AdvanceMode::kEvent;
  /// Online monitor (not owned; must outlive the daemon).  The daemon
  /// feeds `over_budget_w` (measured power above the effective limit) and
  /// `journal_dropped` at the end of every cycle and evaluates the rule
  /// set there.  Observation only: null leaves the run bit-for-bit
  /// unchanged.
  sim::monitor::Monitor* monitor = nullptr;
  /// Replaces the default SchedulerPolicyStage when set: the daemon calls
  /// the factory with its table, latencies and scheduler options and runs
  /// the returned stage instead (fvsst_sim --policy wires the comparator
  /// policies through here).  Null keeps the paper's scheduler.
  PolicyStageFactory policy_factory;
};

/// The frequency/voltage scheduling daemon.
///
/// Time advance: every core carries the sampling lattice
/// (Core::set_sampling_grid), which charges the per-tick collection cost,
/// so the daemon wakes only at the cycle ticks T = n*t — and every tick
/// while an actuation_reject window or a retry (whose backoff counts
/// ticks) needs it.
class FvsstDaemon {
 public:
  /// Starts sampling immediately.  The daemon registers itself on
  /// `budget.on_change` and reschedules whenever the limit moves.
  FvsstDaemon(sim::Simulation& sim, cluster::Cluster& cluster,
              const mach::FrequencyTable& table, power::PowerBudget& budget,
              DaemonConfig config);
  ~FvsstDaemon();

  FvsstDaemon(const FvsstDaemon&) = delete;
  FvsstDaemon& operator=(const FvsstDaemon&) = delete;

  std::size_t cpu_count() const { return loop_->cpu_count(); }

  /// Scheduling calculations executed so far (timer- and trigger-driven).
  std::size_t schedules_run() const { return loop_->cycles_run(); }

  /// Result of the most recent scheduling calculation.
  const ScheduleResult& last_result() const { return loop_->last_result(); }

  /// Most recent workload estimate per flattened CPU index.
  const WorkloadEstimate& estimate(std::size_t cpu) const {
    return loop_->views().at(cpu).estimate;
  }

  // --- Logs (valid when record_traces) ---------------------------------
  /// Granted frequency over time (Hz).
  const sim::TimeSeries& granted_freq_trace(std::size_t cpu) const;
  /// Epsilon-constrained ("desired") frequency over time (Hz).
  const sim::TimeSeries& desired_freq_trace(std::size_t cpu) const;
  /// IPC the predictor promised for each interval.
  const sim::TimeSeries& predicted_ipc_trace(std::size_t cpu) const;
  /// IPC actually measured over each interval.
  const sim::TimeSeries& measured_ipc_trace(std::size_t cpu) const;
  /// |predicted - measured| IPC per interval.
  const sim::TimeSeries& deviation_trace(std::size_t cpu) const;

  /// Running |predicted - measured| statistics (Table 2's "IPC deviation").
  const sim::RunningStat& deviation_stat(std::size_t cpu) const {
    return loop_->deviation_stat(cpu);
  }

  /// Energy charged to one CPU so far (peak-power convention: table watts
  /// of the granted operating point integrated over time) — the quantity
  /// behind the paper's Table 3 energy rows.
  double cpu_energy_j(std::size_t cpu) const;

  /// Time-weighted mean power of one CPU since the daemon started.
  double cpu_mean_power_w(std::size_t cpu) const;

  /// The paper scheduler behind the default policy stage.  Throws
  /// std::logic_error when a DaemonConfig::policy_factory replaced the
  /// stage (there is no FrequencyScheduler to expose then).
  const FrequencyScheduler& scheduler() const;

  /// The underlying engine (latest views, prediction statistics).
  const ControlLoop& loop() const { return *loop_; }

  /// Registry holding the per-CPU traces ("cpu<i>/granted_hz", ...) and the
  /// engine's cycle counter ("loop/cycles").
  sim::MetricRegistry& telemetry() { return telemetry_; }
  const sim::MetricRegistry& telemetry() const { return telemetry_; }

 private:
  void on_wake();
  void run_cycle(CycleTrigger trigger);
  /// Simulated time of tick number m (1-based; 0: the construction
  /// instant).
  double tick_time(std::uint64_t m) const;
  /// Smallest tick number whose instant is at or after `t`.
  std::uint64_t first_tick_at_or_after(double t) const;
  /// True when tick m + 1 needs a wake whatever the cycle schedule: a
  /// retry is in flight, or a reject window touches [tick m, tick m + 1]
  /// (a write there may be refused and start a tick-counted retry).
  bool must_step(std::uint64_t m) const;
  /// The tick to wake at once every tick up to m has passed: m + 1 when
  /// must_step, else `next_cycle` or the first tick the next reject window
  /// reaches, whichever comes first.
  std::uint64_t next_wake(std::uint64_t m, std::uint64_t next_cycle) const;
  void arm_wake(std::uint64_t m);

  sim::Simulation& sim_;
  cluster::Cluster& cluster_;
  power::PowerBudget& budget_;
  DaemonConfig config_;
  sim::MetricRegistry telemetry_;
  std::vector<cluster::ProcAddress> procs_;
  /// Per-processor operating-point tables (each node's own machine), so
  /// heterogeneous clusters are scheduled within their real options.
  std::vector<const mach::FrequencyTable*> proc_tables_;
  SchedulerPolicyStage* policy_ = nullptr;  ///< Owned by loop_.
  std::unique_ptr<ControlLoop> loop_;
  // grid_origin_ is the FIRST tick instant (ctor time + t), and tick
  // number m fires at grid_origin_ + (m-1) * t_sample_s in that exact
  // floating-point form (the expression the event queue uses to re-arm
  // periodic timers), so wakes land on the cores' lattice instants.
  double start_t_ = 0.0;
  double grid_origin_ = 0.0;
  std::uint64_t next_cycle_k_ = 0;  ///< Tick number of the next timer cycle.
  std::uint64_t wake_k_ = 0;        ///< Tick number the armed wake fires at.
  std::uint64_t last_wake_k_ = 0;   ///< Tick number of the last wake run.
  sim::EventId wake_event_ = 0;
  /// The first wake's id: where a per-tick timer would sit in the
  /// scheduling order of events built around the daemon.
  sim::EventId timer_id_ = 0;
  /// The plan's actuation_reject windows [start, end) that can hit this
  /// daemon's CPUs, by start time.
  std::vector<std::pair<double, double>> reject_windows_;
  // Monitor input channels (interned once in the ctor; unused when the
  // config carries no monitor).
  sim::monitor::InputId mon_over_budget_;
  sim::monitor::InputId mon_journal_dropped_;
  std::size_t mon_last_dropped_ = 0;  ///< Last pushed journal drop count.
};

}  // namespace fvsst::core
