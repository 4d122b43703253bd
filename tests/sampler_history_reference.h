// sampler_history_reference.h - The snapshot-replay sample fold, the oracle
// for the fold cpu::Core keeps itself.
//
// cpu::Core used to store a counter snapshot at every sampling-grid instant
// an advance crossed, and SimCoreSampler::collect() drained and replayed
// them: for each snapshot `agg += snap - last; last = snap`, then
// `agg += now - last; last = now` for the read at the collect itself.
// end_interval() read the aggregate and reset it under the sampler's
// ResetPolicy.  HistoryReplaySampler keeps that procedure verbatim.
//
// The core no longer records snapshots, so TickedCores produces them the
// way a per-tick collector would have: it steps a grid-free twin cluster to
// every lattice instant, charges the recurring steal there and records the
// counters — the sequence a registered grid reproduces bit for bit
// (CoreSkipAhead in test_event_mode.cc).  It mirrors the grid's suspend and
// resume rules so a twin core skips the instants its gridded original does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/control_loop.h"
#include "cpu/perf_counters.h"
#include "simkit/event_queue.h"

namespace fvsst::core {

class HistoryReplaySampler {
 public:
  HistoryReplaySampler(cluster::Cluster& cluster,
                       std::vector<cluster::ProcAddress> procs,
                       SimCoreSampler::ResetPolicy reset, double start_time)
      : cluster_(cluster), procs_(std::move(procs)), reset_(reset) {
    last_snapshot_.resize(procs_.size());
    aggregate_.resize(procs_.size());
    aggregate_started_at_.assign(procs_.size(), start_time);
    history_.resize(procs_.size());
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      last_snapshot_[i] = cluster_.core(procs_[i]).read_counters();
    }
  }

  /// The snapshot proc `i`'s core took at a grid instant.
  void record(std::size_t i, const cpu::PerfCounters& snapshot) {
    history_[i].push_back(snapshot);
  }

  void collect() {
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      auto& core = cluster_.core(procs_[i]);
      const cpu::PerfCounters now = core.read_counters();
      for (const auto& snap : history_[i]) {
        aggregate_[i] += snap - last_snapshot_[i];
        last_snapshot_[i] = snap;
      }
      history_[i].clear();
      aggregate_[i] += now - last_snapshot_[i];
      last_snapshot_[i] = now;
    }
  }

  void end_interval(double now, std::vector<IntervalSample>& out) {
    collect();
    out.assign(procs_.size(), IntervalSample{});
    for (std::size_t i = 0; i < procs_.size(); ++i) {
      IntervalSample& s = out[i];
      auto& core = cluster_.core(procs_[i]);
      const double elapsed = now - aggregate_started_at_[i];
      s.delta = aggregate_[i];
      s.elapsed_s = elapsed;
      s.os_idle = core.idle();
      s.current_hz = core.frequency_hz();
      s.valid = elapsed > 0.0 && s.delta.cycles > 0.0;
      if (s.valid) s.measured_hz = s.delta.cycles / elapsed;
      const bool reset =
          reset_ == SimCoreSampler::ResetPolicy::kOnElapsed ? elapsed > 0.0
                                                            : s.valid;
      if (reset) {
        aggregate_[i] = cpu::PerfCounters{};
        aggregate_started_at_[i] = now;
      }
    }
  }

 private:
  cluster::Cluster& cluster_;
  std::vector<cluster::ProcAddress> procs_;
  SimCoreSampler::ResetPolicy reset_;
  std::vector<cpu::PerfCounters> last_snapshot_;
  std::vector<cpu::PerfCounters> aggregate_;
  std::vector<double> aggregate_started_at_;
  std::vector<std::vector<cpu::PerfCounters>> history_;
};

/// Per-tick stepping of a grid-free cluster on the lattice
/// origin + k*period, recording each instant's snapshot into a
/// HistoryReplaySampler whose procs are the cluster's all_procs().
class TickedCores {
 public:
  TickedCores(sim::Simulation& sim, cluster::Cluster& cluster, double origin,
              double period, std::vector<double> steal_s)
      : sim_(sim),
        cluster_(cluster),
        procs_(cluster.all_procs()),
        origin_(origin),
        period_(period),
        steal_s_(std::move(steal_s)),
        next_k_(procs_.size(), 0),
        suspended_(procs_.size(), 0) {}

  /// Steps every unsuspended core through each lattice instant up to `t`,
  /// in time order, then moves the simulation to `t`.
  void run_to(double t, HistoryReplaySampler& sampler) {
    while (true) {
      std::uint64_t k = UINT64_MAX;
      for (std::size_t i = 0; i < procs_.size(); ++i) {
        if (!suspended_[i] && next_k_[i] < k) k = next_k_[i];
      }
      if (k == UINT64_MAX) break;
      const double g = instant(k);
      if (g > t) break;
      sim_.run_until(g);
      for (std::size_t i = 0; i < procs_.size(); ++i) {
        if (suspended_[i] || next_k_[i] != k) continue;
        cpu::Core& core = cluster_.core(procs_[i]);
        core.sync();
        if (steal_s_[i] > 0.0) core.steal_time(steal_s_[i]);
        sampler.record(i, core.read_counters());
        ++next_k_[i];
      }
    }
    sim_.run_until(t);
  }

  /// Core::suspend_sampling_grid on a core synchronised to now.
  void suspend(std::size_t i) { suspended_[i] = 1; }

  /// Core::resume_sampling_grid(t).
  void resume(std::size_t i, double t) {
    if (!suspended_[i]) return;
    suspended_[i] = 0;
    while (instant(next_k_[i]) < t) ++next_k_[i];
  }

 private:
  double instant(std::uint64_t k) const {
    return origin_ + static_cast<double>(k) * period_;
  }

  sim::Simulation& sim_;
  cluster::Cluster& cluster_;
  std::vector<cluster::ProcAddress> procs_;
  double origin_;
  double period_;
  std::vector<double> steal_s_;
  std::vector<std::uint64_t> next_k_;
  std::vector<char> suspended_;
};

}  // namespace fvsst::core
