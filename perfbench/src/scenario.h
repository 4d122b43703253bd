// scenario.h - The benchmark's workloads: seeded inputs, the simulator
// wired the way tools/fvsst_sim.cpp wires the equivalent flags, the driven
// dispatch loop, and the outcome fingerprint.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/cluster_daemon.h"
#include "core/daemon.h"
#include "core/tree_daemon.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "power/sensor.h"
#include "probes.h"
#include "simkit/event_log.h"
#include "simkit/event_queue.h"
#include "simkit/fault_plan.h"
#include "simkit/monitor.h"

namespace perfbench {

enum class Workload { kSmpPaper, kFlatChaos1k, kTree20k };

/// Parses a workload name; false when unknown.
bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload w);

/// Everything a run consumes, generated from (workload, seed) alone.
struct Inputs {
  Workload workload = Workload::kSmpPaper;
  std::uint64_t seed = 1;
  std::size_t nodes = 1;
  std::size_t cpus_per_node = 4;
  double duration_s = 1.0;       ///< Simulated seconds per run.
  double t_sample_s = 0.010;     ///< The paper's t.
  int multiplier = 10;           ///< T = multiplier * t.
  int step_threads = 1;          ///< Step threads of the measured runs.
  /// Step threads of the extra run that must reach the measured runs'
  /// outcome, and of the presync replay's parallel pass (0: none).
  int parallel_threads = 0;
  std::uint64_t cluster_seed = 0;
  double initial_budget_w = 0.0;
  std::vector<std::pair<double, double>> budget_steps;  ///< (t, watts).
  /// Index into the workload's app list per flattened CPU (empty: the
  /// uniform synthetic load).
  std::vector<std::size_t> app_of_cpu;
  sim::FaultPlan faults;

  std::size_t cpus() const { return nodes * cpus_per_node; }
  double period_s() const { return t_sample_s * multiplier; }
};

Inputs make_inputs(Workload workload, std::uint64_t seed);

/// The machine every node of the workload runs.
mach::MachineConfig workload_machine(const Inputs& in);

/// Builds the cluster and loads the workloads (the part of set-up the
/// replays share with the real run).
std::unique_ptr<cluster::Cluster> build_cluster(const Inputs& in,
                                                sim::Simulation& sim);

/// Fingerprint of a simulated outcome: every core's final requested
/// frequency, instructions retired and counter totals.
std::uint64_t outcome_fingerprint(cluster::Cluster& cluster);

/// Result of one run.
struct RunResult {
  double run_s = 0.0;                 ///< Host wall time of the dispatch loop.
  std::array<double, 11> tenth_host_s{};  ///< Host time at each tenth.
  std::uint64_t events = 0;           ///< Simulation events (sentinels excluded).
  std::uint64_t allocs = 0;           ///< Allocations during the run.
  std::uint64_t fingerprint = 0;
  std::uint64_t journal_digest = 0;   ///< Only with Scenario's `digest`.
  sim::JournalCheckReport check;
  double job_instructions = 0.0;      ///< Retired by real jobs, all CPUs.
  std::uint64_t advance_calls = 0;    ///< Sum of Core::advance_calls().
  std::size_t rounds = 0;             ///< Scheduling cycles / global rounds.
  std::size_t journal_events = 0;
  std::uint64_t journal_bytes = 0;
  std::size_t node_applies = 0;
  std::size_t retransmits = 0;        ///< Flat daemon's reliable transport.
  std::size_t summary_bytes = 0;
  /// Shard sweeps (tree only): cores visited, and cores actually advanced
  /// (the rest were already synced or flagged).
  std::uint64_t sweep_visits = 0;
  std::uint64_t cores_advanced = 0;
};

/// One fully wired simulation.  Constructing it is the set-up the benchmark
/// times; run() drives it to the end.  With a span recorder the run is
/// traced: the cluster and daemon constructions are spans, the policy
/// stage, journal writer and power function are decorated and every
/// dispatched event is a span.  Without one it is the plain fvsst_sim
/// wiring.  `digest` makes the run digest its journal.  `in` must outlive
/// the scenario.
class Scenario {
 public:
  Scenario(const Inputs& in, SpanRecorder* spans, PolicyStats* policy_stats,
           bool digest);
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Host seconds the constructor took.
  double setup_s() const { return setup_s_; }

  /// Runs the whole simulated duration once.
  RunResult run();

 private:
  const Inputs& in_;
  SpanRecorder* spans_;
  sim::Simulation sim_;
  mach::MachineConfig machine_;  ///< Its table outlives the daemons.
  std::unique_ptr<cluster::Cluster> cluster_;
  power::PowerBudget budget_;
  sim::EventLog journal_;
  std::unique_ptr<sim::monitor::Monitor> monitor_;
  std::unique_ptr<JournalTap> tap_;
  std::unique_ptr<core::FvsstDaemon> smp_;
  std::unique_ptr<core::ClusterDaemon> flat_;
  std::unique_ptr<core::TreeDaemon> tree_;
  std::unique_ptr<power::PowerSensor> sensor_;
  double setup_s_ = 0.0;
};

}  // namespace perfbench
