// scheduler.h - The frequency/voltage scheduling algorithm (paper Fig. 3).
//
//   Let F = f_0, f_1, ..., f_max be the available frequencies ascending.
//   (1) for every processor: pick the lowest f whose predicted PerfLoss
//       versus f_max is < epsilon;
//   (2) while total CPU power exceeds P_max: downgrade the processor whose
//       next-lower setting has the smallest PerfLoss versus f_max;
//   (3) assign each processor the minimum stable voltage for its frequency
//       (table look-up).
//
// Idle processors are special-cased (paper Sec. 5): the Power4+ idles in a
// hot, CPU-intensive loop, so without an explicit idle signal the predictor
// would demand f_max for an idle CPU.  With idle detection on, the
// scheduler "ignores the predictor and sets the frequency and voltage to
// their minimum values".
//
// Pass 2 takes each downgrade from a min-heap of per-processor candidates
// (the paper notes "it is possible to implement in a single pass
// scheduler"), so a round costs O((N + steps) log N) rather than a rescan
// of every processor per step.  Besides the paper's two-pass procedure
// there is the continuous f_ideal extension, which computes an ideal
// frequency per processor and snaps it up onto the available grid before
// the same pass 2, and a watts-per-loss pass-2 greedy (beyond the paper).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/predictor.h"
#include "mach/frequency_table.h"

namespace fvsst::core {

/// Everything the scheduler knows about one processor.
struct ProcView {
  WorkloadEstimate estimate;  ///< From the latest T-interval counters.
  bool idle = false;          ///< Idle signal from firmware/OS, if enabled.
  /// Busy fraction as a naive non-halted-cycle monitor reports it (the
  /// utilisation governors' input; stuck at 1.0 on hot-idle hardware).
  double utilization = 1.0;
  /// Set-point frequency when the latest interval closed.
  double current_hz = 0.0;
};

/// Why pass 1 picked a processor's desired frequency.
enum class Pass1Reason : std::uint8_t {
  kUnspecified,  ///< Policy did not classify (baseline governors).
  kIdle,         ///< Idle signal: predictor ignored, minimum point.
  kNoEstimate,   ///< No usable counter data yet: run at f_max.
  kEpsilon,      ///< Lowest frequency whose predicted loss < epsilon.
  kFmax,         ///< No lower setting satisfied epsilon; pinned to f_max.
};

/// Stable wire name ("idle", "epsilon", ...).
std::string_view pass1_reason_name(Pass1Reason reason);

/// Per-processor outcome.
struct ScheduleDecision {
  double desired_hz = 0.0;  ///< Pass-1 (epsilon-constrained) frequency.
  double hz = 0.0;          ///< Final granted frequency (after pass 2).
  double volts = 0.0;       ///< Minimum stable voltage for `hz`.
  double watts = 0.0;       ///< Peak power at (hz, volts).
  double predicted_loss = 0.0;  ///< Predicted PerfLoss(f_max, hz).
  Pass1Reason pass1_reason = Pass1Reason::kUnspecified;
  // Explain mode (SchedulerOptions::explain) only:
  double pass1_loss = 0.0;     ///< Predicted loss at the desired frequency.
  /// Predicted loss at the next setting below desired — the cutoff that
  /// pass 1 rejected (>= epsilon by construction); -1 when desired is
  /// already the table floor.
  double rejected_loss = -1.0;
};

/// One pass-2 downgrade, in the order taken (explain mode only).
struct DowngradeStep {
  std::size_t proc = 0;        ///< Index into the scheduled views.
  double from_hz = 0.0;
  double to_hz = 0.0;
  double loss_after = 0.0;     ///< Predicted loss at to_hz — the greedy key.
  double marginal_loss = 0.0;  ///< loss_after minus loss before the step.
  double watts_saved = 0.0;
};

/// Whole-system outcome.
struct ScheduleResult {
  std::vector<ScheduleDecision> decisions;  ///< Parallel to the input views.
  double total_cpu_power_w = 0.0;
  bool feasible = true;     ///< False when even all-minimum exceeds budget.
  std::size_t downgrade_steps = 0;  ///< Pass-2 iterations taken.
  /// The ordered pass-2 sequence; populated only in explain mode (in which
  /// case explained is true and downgrades.size() == downgrade_steps).
  std::vector<DowngradeStep> downgrades;
  bool explained = false;
};

/// Algorithm variants.
enum class SchedulerVariant {
  kTwoPass,     ///< The paper's Figure 3 procedure.
  kContinuous,  ///< f_ideal extension snapped onto the frequency grid.
  /// Beyond the paper: pass 2 downgrades the processor with the best
  /// watts-saved per *marginal* predicted-loss ratio instead of the
  /// smallest absolute loss.  Both greedies are heuristics for the same
  /// knapsack-like problem; on random diverse systems they are comparable
  /// on average, each winning some instances (see bench_abl_variants).
  kWattsPerLoss,
};

/// Scheduler tuning knobs.
struct SchedulerOptions {
  /// Acceptable predicted performance loss (the paper's epsilon).  Must
  /// exceed the minimum per-step loss or pass 1 degenerates to f_max.
  double epsilon = 0.04;
  SchedulerVariant variant = SchedulerVariant::kTwoPass;
  /// Honour ProcView::idle by pinning idle processors to the minimum
  /// operating point.
  bool idle_detection = true;
  /// Record decision rationale: pass-1 cutoff losses on every decision and
  /// the ordered pass-2 downgrade sequence (ScheduleResult::downgrades).
  /// Costs extra predictor evaluations; never changes the decisions.
  bool explain = false;
};

/// The frequency/voltage scheduler.
class FrequencyScheduler {
 public:
  using Options = SchedulerOptions;

  FrequencyScheduler(mach::FrequencyTable table,
                     mach::MemoryLatencies nominal_latencies,
                     Options options = SchedulerOptions());

  /// Computes frequency and voltage for every processor under the given
  /// aggregate CPU power budget (watts).
  ScheduleResult schedule(const std::vector<ProcView>& procs,
                          double power_budget_w) const;

  /// Heterogeneous overload: per-processor operating-point tables.  The
  /// paper notes "the voltage table may be different for each processor if
  /// there is significant process variation"; this also covers clusters
  /// mixing machine generations.  `tables` must parallel `procs`, each
  /// pointer non-null and outliving the call.  Each processor's loss is
  /// measured against its own table's f_max.
  ScheduleResult schedule(const std::vector<ProcView>& procs,
                          const std::vector<const mach::FrequencyTable*>& tables,
                          double power_budget_w) const;

  /// Predicted PerfLoss(f_max, hz) for one workload estimate; exposed for
  /// tests and benches.
  double predicted_loss(const WorkloadEstimate& est, double hz) const;

  const mach::FrequencyTable& table() const { return table_; }
  const Options& options() const { return options_; }
  const IpcPredictor& predictor() const { return predictor_; }

 private:
  using Tables = std::vector<const mach::FrequencyTable*>;

  double loss_at(const WorkloadEstimate& est, double hz, double f_max) const;
  /// loss_at with f_max's predicted performance `perf_max` already known:
  /// the predictor is pure, so this is bit-identical to loss_at.
  double loss_from(double perf_max, const WorkloadEstimate& est,
                   double hz) const {
    return perf_loss(perf_max, predictor_.predict_performance(est, hz));
  }
  std::size_t pass1_index(const ProcView& proc,
                          const mach::FrequencyTable& table,
                          Pass1Reason* reason = nullptr) const;
  void record_downgrade(std::size_t proc, std::size_t from_idx,
                        const std::vector<ProcView>& procs,
                        const Tables& tables, ScheduleResult& result) const;
  void pass2_power_fit(std::vector<std::size_t>& idx,
                       const std::vector<ProcView>& procs,
                       const Tables& tables, double power_budget_w,
                       ScheduleResult& result) const;
  ScheduleResult schedule_two_pass(const std::vector<ProcView>& procs,
                                   const Tables& tables,
                                   double power_budget_w) const;
  ScheduleResult schedule_continuous(const std::vector<ProcView>& procs,
                                     const Tables& tables,
                                     double power_budget_w) const;
  ScheduleResult schedule_watts_per_loss(const std::vector<ProcView>& procs,
                                         const Tables& tables,
                                         double power_budget_w) const;
  ScheduleResult finalize(const std::vector<ProcView>& procs,
                          const Tables& tables,
                          const std::vector<std::size_t>& desired_idx,
                          std::vector<std::size_t> granted_idx,
                          const std::vector<Pass1Reason>& reasons,
                          ScheduleResult partial) const;

  mach::FrequencyTable table_;
  IpcPredictor predictor_;
  Options options_;
};

}  // namespace fvsst::core
