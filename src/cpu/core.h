// core.h - The simulated processor core.
//
// A Core executes one or more jobs (time-sliced round-robin, since the
// paper targets multi-programmed systems) according to the phase-based
// performance model: at effective frequency f a phase retires
// 1 / (1/alpha + M_true * f) instructions per cycle.  The core maintains
// the Power4+-style performance counters that are fvsst's only window into
// the workload, including realistic imperfections:
//
//   - access counts carry small multiplicative sampling noise;
//   - each phase's true service times may deviate from the machine's
//     nominal latency constants (Phase::latency_scale);
//   - with ScalingMode::kFetchThrottle, delivered frequency is a quantised
//     duty cycle rather than the exact request;
//   - an empty run queue executes the "hot idle" loop at IPC ~1.3 — the
//     Power4+ behaviour that defeats naive utilisation-based scaling.
//
// The core is lazily synchronised: queries advance the model to the current
// simulation time, so no per-tick events are needed.  Event-driven callers
// can go further: next_interesting_time() names the next model
// discontinuity (phase boundary, quantum rotation, stolen-time end, trace
// exhaustion) and advance_to(t) jumps the model there in one call.  When a
// daemon samples the core on a fixed lattice, set_sampling_grid() makes a
// single large advance_to() internally subdivide at the lattice instants —
// reproducing the exact chunk boundaries, noise draws, overhead steals and
// counter snapshots a per-tick driver would have produced — so a daemon
// that wakes only when it has work is bit-for-bit identical to one that
// reads every core at every tick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/perf_counters.h"
#include "cpu/runner.h"
#include "cpu/throttle.h"
#include "mach/machine_config.h"
#include "simkit/event_queue.h"
#include "simkit/rng.h"
#include "workload/phase.h"

namespace fvsst::cpu {

class PowerLedger;

/// Simulated processor core.
class Core {
 public:
  struct Config {
    std::string name = "cpu";
    mach::MemoryLatencies latencies;
    double max_hz = 0.0;       ///< Nameplate frequency (initial setting).
    double idle_ipc = 1.3;     ///< IPC of the hot idle loop.
    /// When true the core halts while idle: no instructions retire and the
    /// halted-cycle counter advances (instead of the hot idle loop).
    bool idles_by_halting = false;
    ScalingMode scaling_mode = ScalingMode::kIdealDvfs;
    int throttle_steps = 32;
    /// Multiplicative noise (sigma) on per-interval access counts.
    double counter_noise_sigma = 0.01;
    /// Multiplicative noise (sigma) on the instruction retirement rate.
    double execution_noise_sigma = 0.005;
    /// Round-robin time slice for multiprogrammed jobs.
    double quantum_s = 0.010;
  };

  Core(sim::Simulation& sim, Config cfg, sim::Rng rng);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  const std::string& name() const { return cfg_.name; }

  /// Enqueues a job; returns its index for later queries.
  std::size_t add_workload(workload::WorkloadSpec spec);

  /// True when no unfinished real job exists (the core is running the hot
  /// idle loop).  This is the signal the paper's idle detector would send.
  bool idle();

  /// Requested frequency (one of the machine's settings).
  double frequency_hz() const { return requested_hz_; }

  /// Frequency actually delivered (after throttling quantisation).
  double effective_hz() const { return effective_hz_; }

  /// Changes the core's frequency.  Takes effect immediately; the model is
  /// synchronised to the current time first so past work is charged at the
  /// old frequency.  An attached PowerLedger is told of the new set-point.
  void set_frequency(double hz);

  /// Reports every later set_frequency to `ledger` as processor `slot`
  /// (cluster::Cluster attaches its cores to the ledger it owns).  The
  /// ledger must stay valid for every later set_frequency.
  void attach_power_ledger(PowerLedger* ledger, std::size_t slot) {
    ledger_ = ledger;
    ledger_slot_ = slot;
  }

  /// Reads the monotonic counters (synchronises first).
  PerfCounters read_counters();

  /// Total instructions retired by real jobs (idle loop excluded).
  double instructions_retired();

  /// Per-job retired instructions.
  double job_instructions_retired(std::size_t job);

  /// Completed passes over the phase list, summed across jobs (the
  /// throughput metric the synthetic benchmark reports).
  std::size_t passes_completed();

  /// Simulated time at which job `job` finished; negative if still running.
  /// Synchronises first so completions up to now() are visible.
  double job_finish_time(std::size_t job);

  /// Number of jobs that have finished (synchronises first).
  std::size_t jobs_finished() {
    sync();
    return jobs_finished_;
  }

  /// Phase currently executing on the core, or nullptr when idling.
  const workload::Phase* active_phase();

  /// Injects scheduler/daemon overhead: the next `seconds` of core time
  /// execute no workload instructions (used to model fvsst's own cost).
  void steal_time(double seconds);

  /// Advances the execution model to the current simulation time.
  void sync();

  // --- Skip-ahead advance -----------------------------------------------

  /// Advances the model to absolute time `t` (clamped to never move
  /// backwards).  With a sampling grid registered the span is subdivided at
  /// every grid instant in (synced_until, t]: each segment advances with
  /// the exact chunking a per-tick sync would have used, and each grid
  /// instant applies the recurring steal and (when enabled) records a
  /// counter snapshot.  `sync()` is `advance_to(sim.now())`.
  void advance_to(double t);

  /// Absolute time of the next model discontinuity after the last advance:
  /// the earliest of pending-stolen-time end, round-robin quantum expiry,
  /// current phase boundary, and next sampling-grid instant.  Infinity when
  /// nothing bounds the advance (halting idle, no grid).  The phase
  /// boundary uses the noise-free retirement rate, so with
  /// execution_noise_sigma > 0 it is an estimate; jumping past it is always
  /// safe (the model re-chunks), it just costs the skipped precision.
  double next_interesting_time() const;

  /// Registers the daemon's sampling lattice: instants origin + k*period
  /// for k = 0, 1, 2, ... where `origin` is itself the FIRST instant —
  /// the exact floating-point expression sim::Simulation uses to re-arm
  /// periodic events (origin is the first firing, not the schedule time).
  /// At each instant crossed by an advance the core adds
  /// `recurring_steal_s` of overhead and, when `record_history`, snapshots
  /// its counters for later replay by the sampler.  One consumer only:
  /// re-registering with a different lattice throws; re-registering the
  /// same lattice changes only the steal and history settings (the
  /// instants already crossed stay crossed).
  void set_sampling_grid(double origin, double period,
                         double recurring_steal_s, bool record_history);

  /// Stops grid subdivision, steals and snapshots at the instants not yet
  /// crossed: until resume_sampling_grid(), advances run in one piece, as
  /// they do for a core nobody samples (a crashed node's).
  void suspend_sampling_grid() { grid_suspended_ = true; }

  /// Ends a suspension: the first lattice instant at or after `t` is the
  /// next one an advance crosses; the instants skipped while suspended are
  /// never processed.  No-op unless suspended.
  void resume_sampling_grid(double t);

  /// Moves the per-grid-instant counter snapshots accumulated since the
  /// last drain into `out` (appended in time order).
  void drain_counter_history(std::vector<PerfCounters>& out);

  /// Model-advance invocations so far (one per advance_to/sync that had
  /// work to do, counting grid-subdivision segments separately).  The
  /// skip-ahead bench pins its regression floor on this.
  std::uint64_t advance_calls() const { return advance_calls_; }

  /// Absolute time the model has been synchronised to (the lazy-sync
  /// watermark).  Queries at or before this time cost nothing.
  double synced_until() const { return synced_until_; }

  // --- Batched stepping (SoA slabs) -------------------------------------

  /// Batch-stepping entry point for structure-of-arrays slabs
  /// (cluster::Shard): advances cores[i] to `t` for every i not flagged in
  /// `skip` (null = advance all) whose cached watermark is behind `t`,
  /// then refreshes the parallel hot arrays — `synced_until[i]`,
  /// `next_interesting[i]` and `frequency_hz[i]` (any of which may be
  /// null).  Semantically identical to calling advance_to(t) on each
  /// unskipped core in turn — same chunk boundaries, same noise draws —
  /// just without re-dereferencing cold cores the arrays prove are already
  /// synced.  Returns the number of cores actually advanced.
  static std::size_t advance_batch(Core* const* cores, std::size_t n,
                                   double t, const unsigned char* skip,
                                   double* synced_until,
                                   double* next_interesting,
                                   double* frequency_hz);

 private:
  void advance(double dt, double end_time);
  WorkloadRunner* pick_runner();
  void rotate_if_quantum_expired();

  sim::Simulation& sim_;
  Config cfg_;
  sim::Rng rng_;

  double requested_hz_;
  double effective_hz_;
  ThrottleModel throttle_;

  std::vector<WorkloadRunner> jobs_;
  std::vector<double> finish_times_;
  std::size_t jobs_finished_ = 0;
  WorkloadRunner idle_runner_;

  std::size_t rr_index_ = 0;     ///< Round-robin cursor into jobs_.
  double quantum_used_s_ = 0.0;  ///< Time used by the current job's slice.

  double synced_until_ = 0.0;
  double stolen_pending_s_ = 0.0;
  PerfCounters counters_;

  // Sampling lattice; period 0 = none registered.
  double grid_origin_ = 0.0;
  double grid_period_ = 0.0;
  double grid_steal_s_ = 0.0;
  bool grid_history_ = false;
  bool grid_suspended_ = false;
  std::uint64_t grid_next_k_ = 0;  ///< Next unprocessed lattice index.
  std::vector<PerfCounters> history_;
  std::uint64_t advance_calls_ = 0;

  PowerLedger* ledger_ = nullptr;  ///< Null for a core outside a Cluster.
  std::size_t ledger_slot_ = 0;
};

}  // namespace fvsst::cpu
