// control_loop.h - The generic sample -> estimate -> decide -> actuate
// engine behind every fvsst daemon.
//
// The paper's daemon (Sec. 6) is one control cycle: collect
// performance-counter data every dispatch interval t, estimate each
// processor's workload, run the scheduling calculation every T = n*t (or
// when the power budget moves), and throttle the processors accordingly.
// The repo used to implement that cycle four separate times — the SMP
// daemon, the distributed cluster scheduler, the Linux-host port and the
// baseline governors — each with its own trace bookkeeping.  ControlLoop
// is the one implementation, split into four pluggable stages:
//
//   Sampler    where counters come from: simulated cores, cluster-channel
//              summaries, or a real host's perf_event_open(2);
//   Estimator  interval samples -> per-CPU ProcViews (the predictor's
//              workload estimate + EWMA smoothing + idle resolution);
//   Policy     views -> frequency decisions (the paper's two-pass
//              scheduler, its variants, or a comparator governor);
//   Actuator   decisions -> the world (core throttles, cluster settings
//              messages, sysfs scaling_setspeed).
//
// The engine owns the shared telemetry: per-CPU granted/desired frequency,
// predicted/measured IPC, prediction deviation and power are registered in
// a sim::MetricRegistry.  Everything it records is a simulated quantity, so
// journals and telemetry depend only on the run's inputs; the daemon
// overhead the paper measures for Fig. 4 is charged as modelled dead cycles
// by the facades (DaemonConfig::overhead_per_*).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/scheduler.h"
#include "simkit/event_log.h"
#include "simkit/event_queue.h"
#include "simkit/fault_plan.h"
#include "simkit/monitor.h"
#include "simkit/stats.h"
#include "simkit/telemetry.h"

namespace fvsst::core {

/// Inert: every daemon has one time-advance path (cores on the sampling
/// grid, wakes only where the daemon has work).  The enum and the daemon
/// configs' advance_mode fields remain only because the benchmark harness
/// still sets them; nothing reads them.
enum class AdvanceMode {
  kEvent,
};

/// How a loop learns that a processor is idle (paper Sec. 5).
enum class IdleSignal {
  /// Poll the OS/firmware idle state (the explicit indicator the paper
  /// calls for on hot-idle processors like the Power4+).
  kOsSignal,
  /// Infer idleness from the halted-cycle counter: on processors that
  /// idle by halting, "there is no need for the idle indicator".
  kHaltedCounter,
  /// No idle knowledge at all (the paper's prototype, which implemented
  /// none of the idle-detection techniques).
  kNone,
};

/// Halted-cycle fraction above which a processor counts as idle under
/// IdleSignal::kHaltedCounter.
inline constexpr double kHaltedIdleThreshold = 0.90;

/// Rejected frequency writes are retried this many times (with a doubling
/// tick backoff) before the engine fail-safes the CPU to its table
/// minimum frequency.
inline constexpr int kActuationMaxRetries = 3;
/// Ticks until the first retry of a rejected write; doubles per failure,
/// capped so a CPU recovers within about one scheduling period T.
inline constexpr int kActuationBackoffTicks = 1;

/// One CPU's measurements over a closed sampling interval.
struct IntervalSample {
  cpu::PerfCounters delta;   ///< Counter deltas accumulated this interval.
  double elapsed_s = 0.0;    ///< Interval length in (simulated) seconds.
  double measured_hz = 0.0;  ///< Effective frequency: cycles / elapsed.
  double current_hz = 0.0;   ///< Set-point frequency at interval close.
  bool os_idle = false;      ///< OS/firmware idle flag at interval close.
  bool valid = false;        ///< Usable: elapsed > 0 and cycles > 0.
};

/// Stage 1: where counter data comes from.
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Number of processors under management.
  virtual std::size_t cpu_count() const = 0;

  /// Cheap per-t accumulation (fold counter deltas into the running
  /// interval).  On-demand backends may no-op.
  virtual void collect() {}

  /// Folds outstanding counters, closes the measurement interval ending at
  /// `now`, and fills `out` (resized to cpu_count()) with one sample per
  /// CPU, so a caller closing intervals every round reuses one buffer.
  virtual void end_interval(double now, std::vector<IntervalSample>& out) = 0;
};

/// Stage 2: interval samples -> persistent per-CPU views.
class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Folds this interval's samples into `views` (one per CPU, persistent
  /// across cycles — estimators carry smoothing state forward).
  virtual void update(const std::vector<IntervalSample>& samples,
                      std::vector<ProcView>& views) = 0;
};

/// Stage 3: views -> frequency decisions.  One contract for the paper's
/// FrequencyScheduler variants, the utilisation governors, and the
/// comparator policies in baselines/ (see baselines::PolicyStageAdapter).
class PolicyStage {
 public:
  virtual ~PolicyStage() = default;

  /// Decides every processor's operating point under the aggregate budget.
  /// `tables` parallels `views` (per-processor operating points).
  virtual ScheduleResult decide(
      const std::vector<ProcView>& views,
      const std::vector<const mach::FrequencyTable*>& tables,
      double power_budget_w) = 0;

  /// IPC this policy's model promises for `view` at `hz`; negative when
  /// the policy makes no prediction (the engine then skips scoring).
  virtual double predict_ipc(const ProcView& view, double hz) const {
    (void)view;
    (void)hz;
    return -1.0;
  }
};

/// Builds a replacement policy stage for a daemon.  Facades that hardwire
/// SchedulerPolicyStage (the SMP daemon, the cluster coordinators) accept
/// one of these in their configs so comparator policies — the baselines
/// adapter in particular — can drive the same live engine; the factory
/// form (rather than a unique_ptr) keeps configs copyable and lets a
/// crash-restarted coordinator rebuild its stage from scratch.  Arguments:
/// the daemon's default table, its nominal latencies and the configured
/// scheduler options (epsilon et al.).
using PolicyStageFactory = std::function<std::unique_ptr<PolicyStage>(
    const mach::FrequencyTable& table, const mach::MemoryLatencies& latencies,
    const FrequencyScheduler::Options& options)>;

/// What caused a scheduling cycle.
enum class CycleTrigger {
  kTimer,   ///< The periodic T boundary.
  kBudget,  ///< A power-budget change (the supply-failure trigger).
  kManual,  ///< Externally driven (the host port's step()).
};

/// Stable wire name ("timer", "budget", "manual") for journals and logs.
std::string_view cycle_trigger_name(CycleTrigger trigger);

/// What an actuation attempt accomplished.  Real actuation paths fail —
/// cpufreq writes get refused, settings messages get lost — and the engine
/// reacts (retry, then fail-safe) rather than assuming success.
struct ActuationReport {
  /// CPUs whose frequency write was refused.  Empty on full success; the
  /// engine starts a bounded retry for each listed CPU.
  std::vector<std::size_t> rejected;
};

/// Stage 4: applies decisions to the world.
class Actuator {
 public:
  virtual ~Actuator() = default;

  /// Applies every decision; reports the CPUs whose write was refused.
  virtual ActuationReport apply(const ScheduleResult& result, double now,
                                CycleTrigger trigger) = 0;

  /// Retries a single CPU's frequency write (the engine's retry path
  /// between cycles).  Returns false when the write was refused again.
  virtual bool write_one(std::size_t cpu, double hz, double now) {
    (void)cpu;
    (void)hz;
    (void)now;
    return true;
  }
};

/// Display names for the engine's per-CPU trace metrics.  Keys in the
/// registry are structured ("cpu3/granted_hz"); display names keep the
/// historical labels benches and CSV headers rely on.
struct TraceNaming {
  std::string granted = "granted_hz";
  std::string desired = "desired_hz";
  std::string predicted_ipc = "predicted_ipc";
  std::string measured_ipc = "measured_ipc";
  std::string deviation = "ipc_deviation";
  std::string power = "power_w";
  /// Appends the CPU index to each display name (the governors' historic
  /// "gov_hz_cpu0" style).
  bool append_cpu_index = false;
};

/// Engine configuration.
struct ControlLoopConfig {
  /// The facade's scheduling period in ticks (the paper's T = n * t);
  /// caps the actuation retry backoff near T/2.
  int schedule_every_n_samples = 10;
  /// Register and append the per-CPU trace series.
  bool record_traces = true;
  /// Registry key prefix: "<metric_prefix><cpu>/<metric>".
  std::string metric_prefix = "cpu";
  TraceNaming naming;
  /// Invoked between estimation and the policy run — facades charge their
  /// modelled scheduling cost (dead cycles) here.
  std::function<void(CycleTrigger)> pre_policy;
  /// Journal (observation only) when a CPU's measured set-point disagrees
  /// with the last successfully written grant — the sticky-actuation
  /// failure that raises no error.  Needs a journal to matter.
  bool detect_actuation_mismatch = false;
  /// Decision journal (not owned; must outlive the loop).  When set, the
  /// engine emits table_point events at construction and cycle_start /
  /// idle transitions / decision / downgrade / infeasible_budget /
  /// actuation events per cycle.  Purely observational: with it null the
  /// loop's behaviour is bit-for-bit identical.
  sim::EventLog* journal = nullptr;
  /// Online monitor (not owned; must outlive the loop).  When set, every
  /// cycle feeds the `downgrade_steps` and `infeasible` rule inputs from
  /// the schedule result — the facade that owns the loop decides when to
  /// evaluate().  Observation only: with it null the loop is unchanged.
  sim::monitor::Monitor* monitor = nullptr;
};

/// The unified control-loop engine.  Passive: facades own the timers (or
/// wall clock) and drive collect()/run_cycle(); the engine owns the stage
/// pipeline, per-CPU prediction scoring, power accounting and trace
/// recording.
class ControlLoop {
 public:
  ControlLoop(ControlLoopConfig config, std::unique_ptr<Sampler> sampler,
              std::unique_ptr<Estimator> estimator,
              std::unique_ptr<PolicyStage> policy,
              std::unique_ptr<Actuator> actuator,
              std::vector<const mach::FrequencyTable*> tables,
              sim::MetricRegistry* telemetry = nullptr);

  ControlLoop(const ControlLoop&) = delete;
  ControlLoop& operator=(const ControlLoop&) = delete;

  /// Registers the starting operating point of every CPU for power
  /// accounting and the trace baselines (the pre-first-cycle state).
  void prime(double now, const std::vector<double>& hz,
             const std::vector<double>& watts);

  /// One sampling tick: folds the counters and runs due actuation retries
  /// (rejected writes being retried with backoff, counted in ticks).  The
  /// facade decides which ticks are scheduling cycles.
  void collect(double now);

  /// One full cycle: close interval -> estimate -> policy -> actuate.
  const ScheduleResult& run_cycle(double now, double power_budget_w,
                                  CycleTrigger trigger);

  std::size_t cpu_count() const { return views_.size(); }
  std::size_t cycles_run() const { return cycles_run_; }
  const ScheduleResult& last_result() const { return last_result_; }

  /// Latest per-CPU views (estimate, idle, utilisation).
  const std::vector<ProcView>& views() const { return views_; }

  /// Running |predicted - measured| IPC statistics (paper Table 2).
  const sim::RunningStat& deviation_stat(std::size_t cpu) const;

  /// Energy charged to one CPU up to `now` (peak-power convention: table
  /// watts of the granted point integrated over time).
  double cpu_energy_j(std::size_t cpu, double now) const;

  /// Time-weighted mean power of one CPU up to `now`.
  double cpu_mean_power_w(std::size_t cpu, double now) const;

  /// Trace metrics recorded by the engine.
  enum class Trace { kGranted, kDesired, kPredictedIpc, kMeasuredIpc, kDeviation };

  /// Engine-recorded trace for one CPU.  Returns a shared empty series
  /// when traces are disabled (matching the pre-engine daemons' empty
  /// members).
  const sim::TimeSeries& trace(std::size_t cpu, Trace which) const;

  Sampler& sampler() { return *sampler_; }
  const Sampler& sampler() const { return *sampler_; }
  PolicyStage& policy() { return *policy_; }
  const PolicyStage& policy() const { return *policy_; }
  Actuator& actuator() { return *actuator_; }

  sim::MetricRegistry* telemetry() { return telemetry_; }

  // --- Degraded-mode scheduling --------------------------------------
  // A pinned CPU is scheduled against a one-point table at its *actual*
  // operating point, so the policy accounts its true power draw and
  // downgrades the others to keep the aggregate under budget.  The engine
  // pins CPUs whose writes are rejected; facades pin for their own reasons
  // (a cluster node gone silent is accounted at f_max).

  /// Pins `cpu` to the operating point of its real table nearest at or
  /// above `hz` (table max when hz is 0 or out of range).
  void pin_cpu(std::size_t cpu, double hz);

  /// Restores `cpu` to its full operating-point table.
  void unpin_cpu(std::size_t cpu);

  bool pinned(std::size_t cpu) const;

  /// CPUs currently in the actuation fail-safe (writes kept failing past
  /// the retry budget; the engine is holding an f_min grant for them).
  std::size_t degraded_cpu_count() const;

  /// CPUs with an actuation retry in flight (including degraded ones).
  std::size_t retrying_cpu_count() const;

 private:
  struct CpuState {
    bool has_prediction = false;
    double predicted_ipc = 0.0;   ///< Promise made at the last cycle.
    sim::RunningStat deviation;
    sim::TimeWeightedStat power_acc;
    // Registry-owned series; null when traces are disabled.
    sim::TimeSeries* granted = nullptr;
    sim::TimeSeries* desired = nullptr;
    sim::TimeSeries* pred_ipc = nullptr;
    sim::TimeSeries* meas_ipc = nullptr;
    sim::TimeSeries* dev = nullptr;
  };

  /// Interned monitor input channels, resolved once at the first cycle, so
  /// steady-state feeds hash no strings.
  struct MonitorInputIds {
    bool resolved = false;
    sim::monitor::InputId downgrade_steps, infeasible;
  };

  /// Bounded retry of one CPU's rejected write, escalating to the f_min
  /// fail-safe once the retry budget is spent.
  struct RetryState {
    bool active = false;
    bool degraded = false;   ///< Past the retry budget; holding f_min.
    int attempts = 0;
    int backoff_ticks = 1;   ///< Doubles per failure, capped near T/2.
    int ticks_until_retry = 0;
    double target_hz = 0.0;  ///< What the retry is trying to write.
  };

  void journal_cycle(double now, double power_budget_w);
  void handle_rejections(const ActuationReport& report, double now);
  void process_retries(double now);
  void finish_recovery(std::size_t cpu, double hz_written, double now);

  ControlLoopConfig config_;
  std::unique_ptr<Sampler> sampler_;
  std::unique_ptr<Estimator> estimator_;
  std::unique_ptr<PolicyStage> policy_;
  std::unique_ptr<Actuator> actuator_;
  std::vector<const mach::FrequencyTable*> tables_;
  /// The construction-time tables; tables_ entries divert to
  /// pinned_tables_ while a CPU is pinned.
  std::vector<const mach::FrequencyTable*> real_tables_;
  /// Owned one-point tables for pinned CPUs (null when unpinned).
  std::vector<std::unique_ptr<mach::FrequencyTable>> pinned_tables_;
  std::vector<RetryState> retries_;
  /// Last grant the actuator accepted (sticky-write detection baseline);
  /// negative until the first successful write.
  std::vector<double> last_written_hz_;
  sim::MetricRegistry* telemetry_;
  std::vector<ProcView> views_;
  std::vector<CpuState> states_;
  std::vector<char> prev_idle_;  ///< Journal-only idle-transition memory.
  std::vector<IntervalSample> samples_;  ///< Reused end_interval buffer.
  std::size_t cycles_run_ = 0;
  ScheduleResult last_result_;
  /// loop/cycles, interned at the first cycle's publish (registration
  /// order fixes the position of the counter in every export).
  sim::CounterId cycles_id_;
  MonitorInputIds monitor_ids_;
};

// ---------------------------------------------------------------------------
// Reusable concrete stages (the simulator backends).
// ---------------------------------------------------------------------------

/// Samples simulated cores' performance counters.  Used directly by the
/// SMP daemon and the governors, and per node by the cluster agents.
class SimCoreSampler final : public Sampler {
 public:
  /// What an unusable interval (elapsed <= 0 or no cycles) does to the
  /// running aggregate, mirroring the historical daemons:
  enum class ResetPolicy {
    /// Keep accumulating into the next interval (the SMP daemon).
    kOnValidInterval,
    /// Reset whenever any time elapsed, even with no cycles (the cluster
    /// node agents).
    kOnElapsed,
  };

  /// Starts every core's sample fold (cpu::Core::start_sample_fold: the
  /// construction-time snapshot of its counters).  `start_time` is the
  /// current simulated time (the first interval's start).  The sampler
  /// owns its cores' folds: one sampler per core.
  SimCoreSampler(cluster::Cluster& cluster,
                 std::vector<cluster::ProcAddress> procs,
                 ResetPolicy reset = ResetPolicy::kOnValidInterval,
                 double start_time = 0.0);

  std::size_t cpu_count() const override { return procs_.size(); }
  void collect() override;
  void end_interval(double now, std::vector<IntervalSample>& out) override;

  const std::vector<cluster::ProcAddress>& procs() const { return procs_; }

 private:
  cluster::Cluster& cluster_;
  std::vector<cluster::ProcAddress> procs_;
  ResetPolicy reset_;
  std::vector<double> aggregate_started_at_;
};

/// The paper's workload estimation stage: distils counter deltas into
/// (1/alpha, M) estimates, optionally EWMA-smoothed, and resolves each
/// processor's idle flag from the configured signal.
class IpcEstimator final : public Estimator {
 public:
  struct Options {
    IdleSignal idle_signal = IdleSignal::kOsSignal;
    /// EWMA weight of the *previous* estimate in [0, 1): 0 uses each
    /// interval's fresh estimate alone (the paper's prototype).
    double smoothing = 0.0;
    /// Invalidate a CPU's estimate when its interval was unusable instead
    /// of keeping the last good one (the host port's stateless behaviour).
    bool reset_on_invalid = false;
  };

  IpcEstimator(const mach::MemoryLatencies& latencies, Options options);

  void update(const std::vector<IntervalSample>& samples,
              std::vector<ProcView>& views) override;

  const IpcPredictor& predictor() const { return predictor_; }

 private:
  IpcPredictor predictor_;
  Options options_;
  std::vector<double> halted_fraction_;  ///< Of the last valid interval.
};

/// The paper's frequency/voltage scheduler as a policy stage.
class SchedulerPolicyStage final : public PolicyStage {
 public:
  SchedulerPolicyStage(const mach::FrequencyTable& table,
                       const mach::MemoryLatencies& latencies,
                       FrequencyScheduler::Options options);

  ScheduleResult decide(
      const std::vector<ProcView>& views,
      const std::vector<const mach::FrequencyTable*>& tables,
      double power_budget_w) override;

  double predict_ipc(const ProcView& view, double hz) const override;

  const FrequencyScheduler& scheduler() const { return scheduler_; }

 private:
  FrequencyScheduler scheduler_;
};

/// Applies decisions straight to simulated cores.
class SimCoreActuator final : public Actuator {
 public:
  /// `skip_unchanged` suppresses writes that would not change the
  /// set-point (the governors' historical behaviour).
  SimCoreActuator(cluster::Cluster& cluster,
                  std::vector<cluster::ProcAddress> procs,
                  bool skip_unchanged = false);

  /// Subjects writes to an injected fault plan (rejected / sticky /
  /// delayed writes).  `sim` is needed only for kActuationDelay; without
  /// it delayed writes apply immediately.  Null plan (the default)
  /// restores perfect actuation.
  void set_fault_plan(const sim::FaultPlan* plan,
                      sim::Simulation* sim = nullptr);

  ActuationReport apply(const ScheduleResult& result, double now,
                        CycleTrigger trigger) override;
  bool write_one(std::size_t cpu, double hz, double now) override;

 private:
  bool write(std::size_t cpu, double hz, double now);

  cluster::Cluster& cluster_;
  std::vector<cluster::ProcAddress> procs_;
  bool skip_unchanged_;
  const sim::FaultPlan* faults_ = nullptr;
  sim::Simulation* sim_ = nullptr;
};

}  // namespace fvsst::core
