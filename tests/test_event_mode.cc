// test_event_mode - Event-driven time advance: AdvanceMode::kEvent must be
// byte-identical to the tick-driven run (journals, telemetry, traces and
// final core state — the same referee the parallel stepper answers to)
// while actually skipping work, and cpu::Core's skip-ahead primitives must
// reproduce per-tick stepping bit-for-bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/cluster_daemon.h"
#include "core/daemon.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "run_bytes.h"
#include "simkit/event_log.h"
#include "simkit/fault_plan.h"
#include "simkit/telemetry.h"
#include "workload/synthetic.h"

namespace fvsst {
namespace {

// --- cpu::Core skip-ahead primitives --------------------------------------

cpu::Core::Config core_config(const mach::MachineConfig& machine) {
  cpu::Core::Config cfg;
  cfg.latencies = machine.latencies;
  cfg.max_hz = machine.freq_table.max_hz();
  return cfg;
}

/// Drives one core by per-tick advance_to calls, the other by jumping
/// straight to the horizon with a registered sampling grid: counters,
/// finish times and the RNG stream consumption must match bit-for-bit.
TEST(CoreSkipAhead, GridSubdivisionMatchesPerTickStepping) {
  const mach::MachineConfig machine = mach::p630();
  const double t = 0.010;
  const double horizon = 2.5;

  auto make = [&](sim::Simulation& sim) {
    auto core = std::make_unique<cpu::Core>(sim, core_config(machine),
                                            sim::Rng(99));
    workload::SyntheticParams params;
    params.phase1 = {100.0, 3e8};
    params.phase2 = {20.0, 1e8};
    core->add_workload(workload::make_synthetic(params));
    core->add_workload(workload::make_uniform_synthetic(40.0, 5e9));
    return core;
  };

  sim::Simulation sim_tick;
  auto tick = make(sim_tick);
  sim::Simulation sim_jump;
  auto jump = make(sim_jump);
  // Lattice convention matches sim::Simulation::schedule_every: the origin
  // IS the first instant, and tick k (1-based) lands at origin + (k-1)*t.
  jump->set_sampling_grid(t, t, /*recurring_steal_s=*/3e-6,
                          /*record_history=*/true);

  std::vector<cpu::PerfCounters> tick_history;
  for (int k = 1;; ++k) {
    const double now = t + static_cast<double>(k - 1) * t;
    if (now > horizon) break;
    sim_tick.run_until(now);
    tick->steal_time(3e-6);
    tick_history.push_back(tick->read_counters());
    // A mid-span frequency change lands on both cores at the same instant.
    if (k == 120) {
      tick->set_frequency(machine.freq_table.min_hz());
    }
  }
  jump->advance_to(t + 119.0 * t);  // Tick 120's exact instant.
  jump->set_frequency(machine.freq_table.min_hz());
  jump->advance_to(horizon);

  std::vector<cpu::PerfCounters> jump_history;
  jump->drain_counter_history(jump_history);
  ASSERT_EQ(jump_history.size(), tick_history.size());
  for (std::size_t i = 0; i < tick_history.size(); ++i) {
    const cpu::PerfCounters& a = tick_history[i];
    const cpu::PerfCounters& b = jump_history[i];
    ASSERT_DOUBLE_EQ(a.instructions, b.instructions) << "tick " << i;
    ASSERT_DOUBLE_EQ(a.cycles, b.cycles) << "tick " << i;
    ASSERT_DOUBLE_EQ(a.l2_accesses, b.l2_accesses) << "tick " << i;
    ASSERT_DOUBLE_EQ(a.l3_accesses, b.l3_accesses) << "tick " << i;
    ASSERT_DOUBLE_EQ(a.mem_accesses, b.mem_accesses) << "tick " << i;
    ASSERT_DOUBLE_EQ(a.halted_cycles, b.halted_cycles) << "tick " << i;
  }
  EXPECT_DOUBLE_EQ(tick->job_finish_time(1), jump->job_finish_time(1));
  EXPECT_DOUBLE_EQ(tick->job_instructions_retired(0),
                   jump->job_instructions_retired(0));
  // The grid subdivides the jump into the same advance segments a per-tick
  // driver produces — identical work per segment is what buys the
  // bit-identical counters.  (The advance-call savings live on the
  // grid-free skip-ahead path and in the daemon's event count; the
  // substrate bench pins both.)
  EXPECT_LE(jump->advance_calls(), tick->advance_calls() + 1);
}

TEST(CoreSkipAhead, NextInterestingTimeBoundsThePhase) {
  const mach::MachineConfig machine = mach::p630();
  sim::Simulation sim;
  cpu::Core::Config cfg = core_config(machine);
  cfg.execution_noise_sigma = 0.0;  // noise-free: the ETA is exact
  cfg.counter_noise_sigma = 0.0;
  cfg.quantum_s = 1e9;  // single job: keep quantum expiry out of the way
  cpu::Core core(sim, cfg, sim::Rng(1));
  workload::SyntheticParams params;
  params.phase1 = {100.0, 3e8};
  params.phase2 = {20.0, 1e8};
  core.add_workload(workload::make_synthetic(params));

  const double eta = core.next_interesting_time();
  ASSERT_GT(eta, 0.0);
  ASSERT_TRUE(std::isfinite(eta));
  // Jumping to just before the boundary keeps the compute phase; crossing
  // it lands in the memory-bound one.
  core.advance_to(eta * 0.999);
  const workload::Phase* before = core.active_phase();
  ASSERT_NE(before, nullptr);
  const double before_apki = before->apki_mem;
  // next_interesting_time is relative to the last advance; re-query.
  core.advance_to(core.next_interesting_time() + 1e-9);
  const workload::Phase* after = core.active_phase();
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->apki_mem, before_apki);
}

TEST(CoreSkipAhead, SamplingGridValidation) {
  const mach::MachineConfig machine = mach::p630();
  sim::Simulation sim;
  cpu::Core core(sim, core_config(machine), sim::Rng(1));
  EXPECT_FALSE(core.has_sampling_grid());
  EXPECT_THROW(core.set_sampling_grid(0.0, 0.0, 0.0, false),
               std::invalid_argument);
  core.set_sampling_grid(0.0, 0.010, 0.0, true);
  EXPECT_TRUE(core.has_sampling_grid());
  // Re-registering the same lattice is fine; a different one throws.
  core.set_sampling_grid(0.0, 0.010, 1e-6, true);
  EXPECT_THROW(core.set_sampling_grid(0.0, 0.020, 0.0, true),
               std::logic_error);
  EXPECT_THROW(core.set_sampling_grid(0.5, 0.010, 0.0, true),
               std::logic_error);
}

// --- Whole-daemon byte-identity -------------------------------------------

void append_core_state(std::ostringstream& out, cluster::Cluster& cluster) {
  for (const auto& addr : cluster.all_procs()) {
    auto& core = cluster.core(addr);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "core %zu.%zu hz=%.17g instr=%.17g cycles=%.17g\n",
                  addr.node, addr.cpu, core.frequency_hz(),
                  core.instructions_retired(),
                  core.read_counters().cycles);
    out << buf;
  }
}

struct SmpRun {
  std::string fingerprint;   ///< Journal + telemetry + traces + core state.
  std::uint64_t advance_calls = 0;
  std::size_t events_executed = 0;
};

/// One SMP-daemon run: multiprogrammed phased workloads, a mid-run budget
/// drop (at an instant coincident with the tick lattice: 1.0 == 100 * 0.01
/// exactly in binary floating point), and a second off-lattice drop.
SmpRun run_smp(core::AdvanceMode mode, bool per_cpu_threads = false,
               double budget_drop_at = 1.0) {
  sim::Simulation sim;
  sim::Rng rng(4242);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 1, rng);
  workload::SyntheticParams params;
  params.phase1 = {100.0, 3e8};
  params.phase2 = {20.0, 1e8};
  cluster.core({0, 1}).add_workload(workload::make_synthetic(params));
  cluster.core({0, 2}).add_workload(
      workload::make_uniform_synthetic(50.0, 1e12));
  cluster.core({0, 3}).add_workload(
      workload::make_uniform_synthetic(85.0, 4e9));
  power::PowerBudget budget(560.0);
  sim.schedule_at(budget_drop_at, [&] { budget.set_limit_w(180.0); });

  sim::EventLog journal;
  core::DaemonConfig config;
  config.journal = &journal;
  config.advance_mode = mode;
  config.per_cpu_threads = per_cpu_threads;
  core::FvsstDaemon daemon(sim, cluster, machine.freq_table, budget, config);
  sim.run_for(3.0);

  std::ostringstream out;
  out << run_bytes(journal, &daemon.telemetry());
  append_core_state(out, cluster);
  SmpRun r;
  r.fingerprint = out.str();
  for (const auto& addr : cluster.all_procs()) {
    r.advance_calls += cluster.core(addr).advance_calls();
  }
  r.events_executed = sim.events_executed();
  return r;
}

TEST(EventModeSmp, ByteIdenticalToTickMode) {
  const SmpRun tick = run_smp(core::AdvanceMode::kTick);
  const SmpRun event = run_smp(core::AdvanceMode::kEvent);
  ASSERT_FALSE(tick.fingerprint.empty());
  EXPECT_EQ(tick.fingerprint, event.fingerprint);
  // The point of the refactor: materially fewer scheduler events.  The
  // cores' advance segments stay equal by construction (the sampling grid
  // subdivides exactly where the ticks did — that is what buys the byte
  // identity); the win is the n-fold drop in queue traffic.
  EXPECT_GE(tick.events_executed, 3 * event.events_executed)
      << "skip-ahead did not skip";
  EXPECT_LE(event.advance_calls, tick.advance_calls + 8);
}

TEST(EventModeSmp, ByteIdenticalWithPerCpuThreads) {
  const SmpRun tick = run_smp(core::AdvanceMode::kTick, true);
  const SmpRun event = run_smp(core::AdvanceMode::kEvent, true);
  EXPECT_EQ(tick.fingerprint, event.fingerprint);
}

TEST(EventModeSmp, ByteIdenticalWithOffLatticeBudgetDrop) {
  const SmpRun tick = run_smp(core::AdvanceMode::kTick, false, 1.0437);
  const SmpRun event = run_smp(core::AdvanceMode::kEvent, false, 1.0437);
  EXPECT_EQ(tick.fingerprint, event.fingerprint);
}

TEST(EventModeSmp, FaultPlanForcesTickFallback) {
  // With tick-granular machinery in play (actuation retries) the daemon
  // must quietly run tick-driven; both modes then take the identical path.
  sim::Simulation sim;
  sim::Rng rng(7);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 1, rng);
  cluster.core({0, 1}).add_workload(
      workload::make_uniform_synthetic(50.0, 1e12));
  power::PowerBudget budget(300.0);
  sim::FaultPlan plan(7);
  plan.add({sim::FaultKind::kActuationReject, 0.5, 1.0, 1, 0.0});
  core::DaemonConfig config;
  config.fault_plan = &plan;
  config.advance_mode = core::AdvanceMode::kEvent;
  core::FvsstDaemon daemon(sim, cluster, machine.freq_table, budget, config);
  EXPECT_FALSE(daemon.event_driven());
  sim.run_for(1.5);
  EXPECT_GT(daemon.schedules_run(), 0u);
}

// --- Cluster daemon --------------------------------------------------------

struct ClusterRun {
  std::string fingerprint;
  std::uint64_t advance_calls = 0;
  std::size_t events_executed = 0;
};

ClusterRun run_cluster(core::AdvanceMode mode, int threads,
                       double channel_loss = 0.0) {
  sim::Simulation sim;
  sim::Rng rng(23);
  const mach::MachineConfig machine = mach::p630();
  constexpr std::size_t kNodes = 4;
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, kNodes, rng);
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(90.0, 1e12));
  cluster.core({1, 0}).add_workload(
      workload::make_uniform_synthetic(60.0, 1e12));
  cluster.core({3, 2}).add_workload(
      workload::make_uniform_synthetic(25.0, 1e12));
  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  sim.schedule_at(0.9, [&] { budget.set_limit_w(peak * 0.4); });

  sim::EventLog journal;
  core::ClusterDaemonConfig cfg;
  cfg.journal = &journal;
  cfg.step_threads = threads;
  cfg.advance_mode = mode;
  cfg.channel_loss_probability = channel_loss;
  core::ClusterDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
  sim.run_for(2.5);

  std::ostringstream out;
  out << run_bytes(journal, &daemon.telemetry());
  append_core_state(out, cluster);
  ClusterRun r;
  r.fingerprint = out.str();
  for (const auto& addr : cluster.all_procs()) {
    r.advance_calls += cluster.core(addr).advance_calls();
  }
  r.events_executed = sim.events_executed();
  return r;
}

TEST(EventModeCluster, ByteIdenticalToTickMode) {
  const ClusterRun tick = run_cluster(core::AdvanceMode::kTick, 1);
  const ClusterRun event = run_cluster(core::AdvanceMode::kEvent, 1);
  ASSERT_FALSE(tick.fingerprint.empty());
  EXPECT_EQ(tick.fingerprint, event.fingerprint);
  // Channel deliveries dominate the cluster's queue either way, so the
  // saving is smaller than the SMP daemon's n-fold drop — but it must be
  // a strict saving, with no extra per-core advance work.
  EXPECT_GT(tick.events_executed, event.events_executed);
  EXPECT_LE(event.advance_calls, tick.advance_calls + 8);
}

TEST(EventModeCluster, ByteIdenticalAcrossThreadCounts) {
  const ClusterRun serial = run_cluster(core::AdvanceMode::kEvent, 1);
  for (int threads : {2, 8}) {
    const ClusterRun parallel = run_cluster(core::AdvanceMode::kEvent, threads);
    EXPECT_EQ(serial.fingerprint, parallel.fingerprint)
        << "--threads " << threads << " changed the event-driven simulation";
  }
}

TEST(EventModeCluster, ByteIdenticalUnderChannelLoss) {
  // Random channel loss draws happen per send; sends land at the same
  // instants in both modes, so the loss pattern must be identical too.
  const ClusterRun tick = run_cluster(core::AdvanceMode::kTick, 1, 0.3);
  const ClusterRun event = run_cluster(core::AdvanceMode::kEvent, 1, 0.3);
  EXPECT_EQ(tick.fingerprint, event.fingerprint);
}

TEST(EventModeCluster, FaultsAndFailoverForceTickFallback) {
  // Chaos/failover scenarios are tick-granular; kEvent must quietly take
  // the tick path and reproduce it exactly.
  auto run = [](core::AdvanceMode mode) {
    sim::Simulation sim;
    sim::Rng rng(23);
    const mach::MachineConfig machine = mach::p630();
    cluster::Cluster cluster =
        cluster::Cluster::homogeneous(sim, machine, 4, rng);
    cluster.core({0, 0}).add_workload(
        workload::make_uniform_synthetic(90.0, 1e12));
    power::PowerBudget budget(2000.0);
    sim::FaultPlan plan(5);
    plan.add({sim::FaultKind::kNodeCrash, 0.7, 1.6, 1, 0.0});
    sim::EventLog journal;
    core::ClusterDaemonConfig cfg;
    cfg.journal = &journal;
    cfg.fault_plan = &plan;
    cfg.advance_mode = mode;
    core::ClusterDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
    sim.run_for(2.0);
    std::ostringstream out;
    out << run_bytes(journal);
    append_core_state(out, cluster);
    return out.str();
  };
  EXPECT_EQ(run(core::AdvanceMode::kTick), run(core::AdvanceMode::kEvent));
}

}  // namespace
}  // namespace fvsst
