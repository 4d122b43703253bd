// Tests for the shared control-loop engine (core/control_loop.h) and the
// telemetry registry (simkit/telemetry.h): stage wiring, the sampler's
// fold against the snapshot replay it replaced, EWMA estimate smoothing,
// byte-stable telemetry, and metric export.
#include "core/control_loop.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "baselines/governor_daemon.h"
#include "baselines/policies.h"
#include "core/daemon.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "run_bytes.h"
#include "sampler_history_reference.h"
#include "simkit/event_log.h"
#include "simkit/fault_plan.h"
#include "simkit/telemetry.h"
#include "simkit/units.h"
#include "workload/synthetic.h"

namespace fvsst::core {
namespace {

using units::GHz;
using units::ms;

struct Rig {
  sim::Simulation sim;
  sim::Rng rng{42};
  mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 1, rng);
  power::PowerBudget budget{4 * 140.0};
};

IntervalSample make_sample(double instructions, double cycles,
                           double mem_accesses, double elapsed_s) {
  IntervalSample s;
  s.delta.instructions = instructions;
  s.delta.cycles = cycles;
  s.delta.l2_accesses = mem_accesses;
  s.delta.l3_accesses = mem_accesses / 2;
  s.delta.mem_accesses = mem_accesses / 4;
  s.elapsed_s = elapsed_s;
  s.measured_hz = cycles / elapsed_s;
  s.valid = true;
  return s;
}

// --- IpcEstimator ---------------------------------------------------------

TEST(IpcEstimator, ZeroSmoothingMatchesFreshEstimate) {
  const mach::MemoryLatencies lat = mach::p630().latencies;
  const IntervalSample a = make_sample(8e6, 2e7, 4e4, 0.1);
  const IntervalSample b = make_sample(5e6, 2e7, 9e4, 0.1);

  // The prototype path: each interval's estimate taken as-is.
  IpcEstimator::Options opts;
  opts.idle_signal = IdleSignal::kNone;
  IpcEstimator estimator(lat, opts);
  std::vector<ProcView> views(1);
  estimator.update({a}, views);
  estimator.update({b}, views);

  const IpcPredictor predictor(lat);
  CounterObservation obs;
  obs.delta = b.delta;
  obs.measured_hz = b.measured_hz;
  const WorkloadEstimate fresh = predictor.estimate(obs);
  ASSERT_TRUE(fresh.valid);
  ASSERT_TRUE(views[0].estimate.valid);
  EXPECT_DOUBLE_EQ(views[0].estimate.alpha_inv, fresh.alpha_inv);
  EXPECT_DOUBLE_EQ(views[0].estimate.mem_time_per_instr,
                   fresh.mem_time_per_instr);
}

TEST(IpcEstimator, SmoothingBlendsOldAndFreshEstimates) {
  const mach::MemoryLatencies lat = mach::p630().latencies;
  const IntervalSample a = make_sample(8e6, 2e7, 4e4, 0.1);
  const IntervalSample b = make_sample(5e6, 2e7, 9e4, 0.1);

  const IpcPredictor predictor(lat);
  CounterObservation obs_a, obs_b;
  obs_a.delta = a.delta;
  obs_a.measured_hz = a.measured_hz;
  obs_b.delta = b.delta;
  obs_b.measured_hz = b.measured_hz;
  const WorkloadEstimate ea = predictor.estimate(obs_a);
  const WorkloadEstimate eb = predictor.estimate(obs_b);
  ASSERT_TRUE(ea.valid && eb.valid);

  const double s = 0.7;
  IpcEstimator::Options opts;
  opts.idle_signal = IdleSignal::kNone;
  opts.smoothing = s;
  IpcEstimator estimator(lat, opts);
  std::vector<ProcView> views(1);
  estimator.update({a}, views);  // first estimate: taken as-is (no old one)
  EXPECT_DOUBLE_EQ(views[0].estimate.alpha_inv, ea.alpha_inv);
  estimator.update({b}, views);  // second: EWMA of old and fresh
  EXPECT_DOUBLE_EQ(views[0].estimate.alpha_inv,
                   s * ea.alpha_inv + (1.0 - s) * eb.alpha_inv);
  EXPECT_DOUBLE_EQ(
      views[0].estimate.mem_time_per_instr,
      s * ea.mem_time_per_instr + (1.0 - s) * eb.mem_time_per_instr);
}

TEST(IpcEstimator, InvalidIntervalKeepsLastEstimateUnlessReset) {
  const mach::MemoryLatencies lat = mach::p630().latencies;
  const IntervalSample good = make_sample(8e6, 2e7, 4e4, 0.1);
  IntervalSample bad;  // valid == false

  IpcEstimator::Options keep_opts;
  keep_opts.idle_signal = IdleSignal::kNone;
  IpcEstimator keeper(lat, keep_opts);
  std::vector<ProcView> views(1);
  keeper.update({good}, views);
  ASSERT_TRUE(views[0].estimate.valid);
  keeper.update({bad}, views);
  EXPECT_TRUE(views[0].estimate.valid);  // last good estimate retained

  IpcEstimator::Options reset_opts;
  reset_opts.idle_signal = IdleSignal::kNone;
  reset_opts.reset_on_invalid = true;
  IpcEstimator resetter(lat, reset_opts);
  std::vector<ProcView> views2(1);
  resetter.update({good}, views2);
  ASSERT_TRUE(views2[0].estimate.valid);
  resetter.update({bad}, views2);
  EXPECT_FALSE(views2[0].estimate.valid);  // stateless host behaviour
}

// --- Telemetry ------------------------------------------------------------

/// Journal and telemetry bytes of one SMP daemon run with an off-lattice
/// budget drop (a budget-triggered cycle that restarts T).
std::string smp_run_bytes() {
  Rig rig;
  rig.cluster.core({0, 1}).add_workload(
      workload::make_uniform_synthetic(50.0, 1e12));
  rig.sim.schedule_at(0.5037, [&rig] { rig.budget.set_limit_w(300.0); });
  sim::EventLog journal;
  DaemonConfig cfg;
  cfg.journal = &journal;
  FvsstDaemon daemon(rig.sim, rig.cluster, rig.machine.freq_table, rig.budget,
                     cfg);
  rig.sim.run_for(1.001);
  EXPECT_GT(daemon.schedules_run(), 10u);
  EXPECT_DOUBLE_EQ(daemon.telemetry().counter_value("loop/cycles"),
                   static_cast<double>(daemon.schedules_run()));
  return run_bytes(journal, &daemon.telemetry());
}

TEST(ControlLoopTelemetry, ByteStableAcrossRuns) {
  // Everything the engine records is simulated, so the same inputs give
  // the same bytes on every run.
  EXPECT_EQ(smp_run_bytes(), smp_run_bytes());
}

TEST(ControlLoopTelemetry, SteadyStateLoopDoesNoRegistryLookups) {
  // Regression guard for the interned-handle migration: after the first
  // scheduling cycle has lazily resolved the loop/cycles handle, the hot
  // loop must never touch the registry's hash map again — no key
  // rebuilding, no hashing, no allocation in steady state.
  Rig rig;
  rig.cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(50.0, 1e12));
  FvsstDaemon daemon(rig.sim, rig.cluster, rig.machine.freq_table, rig.budget,
                     DaemonConfig{});
  rig.sim.run_for(0.301);  // warm-up: several full cycles
  const std::uint64_t warm = daemon.telemetry().map_lookups();
  rig.sim.run_for(1.0);
  EXPECT_EQ(daemon.telemetry().map_lookups(), warm)
      << "steady-state control loop performed registry hash-map lookups";
}

// --- Engine trace registry ------------------------------------------------

TEST(ControlLoopTraces, RegistryKeysKeepLegacyDisplayNames) {
  Rig rig;
  FvsstDaemon daemon(rig.sim, rig.cluster, rig.machine.freq_table, rig.budget,
                     DaemonConfig{});
  rig.sim.run_for(0.201);

  // The accessor and the registry resolve to the same series object.
  EXPECT_EQ(&daemon.granted_freq_trace(0),
            &daemon.telemetry().at("cpu0/granted_hz"));
  // Display names stay what benches and CSV headers always used.
  EXPECT_EQ(daemon.telemetry().at("cpu0/granted_hz").name(), "granted_hz");
  EXPECT_EQ(daemon.telemetry().at("cpu3/ipc_deviation").name(),
            "ipc_deviation");
  EXPECT_GT(daemon.granted_freq_trace(0).size(), 0u);
}

TEST(ControlLoopTraces, DisabledTracesRegisterNothing) {
  Rig rig;
  DaemonConfig cfg;
  cfg.record_traces = false;
  FvsstDaemon daemon(rig.sim, rig.cluster, rig.machine.freq_table, rig.budget,
                     cfg);
  rig.sim.run_for(0.301);
  EXPECT_EQ(daemon.telemetry().series_count(), 0u);
  EXPECT_EQ(daemon.granted_freq_trace(0).size(), 0u);
  EXPECT_EQ(daemon.predicted_ipc_trace(2).size(), 0u);
  // The cycle counter is still published.
  EXPECT_GT(daemon.telemetry().counter_value("loop/cycles"), 0.0);
}

TEST(ControlLoopTraces, GovernorHonoursRecordTracesFlag) {
  // The governors used to allocate trace vectors unconditionally; with the
  // engine they only exist when asked for.
  Rig rig;
  baselines::GovernorDaemon::Config cfg;
  cfg.record_traces = false;
  baselines::GovernorDaemon off(rig.sim, rig.cluster, rig.machine.freq_table,
                                cfg);
  rig.sim.run_for(0.1);
  EXPECT_EQ(off.telemetry().series_count(), 0u);
  EXPECT_EQ(off.freq_trace(0).size(), 0u);

  Rig rig2;
  cfg.record_traces = true;
  baselines::GovernorDaemon on(rig2.sim, rig2.cluster,
                               rig2.machine.freq_table, cfg);
  rig2.sim.run_for(0.1);
  EXPECT_GT(on.freq_trace(0).size(), 0u);
  EXPECT_EQ(on.telemetry().at("gov_cpu0/granted_hz").name(), "gov_hz_cpu0");
}

// --- PolicyStageAdapter ---------------------------------------------------

TEST(PolicyStageAdapter, RunsComparatorPoliciesOnTheEngineContract) {
  const mach::FrequencyTable table = mach::p630_frequency_table();
  std::vector<const mach::FrequencyTable*> tables(3, &table);
  std::vector<ProcView> views(3);

  baselines::PolicyStageAdapter adapter(
      std::make_unique<baselines::MaxFrequencyPolicy>());
  const ScheduleResult result = adapter.decide(views, tables, 1e9);
  ASSERT_EQ(result.decisions.size(), 3u);
  for (const auto& d : result.decisions) {
    EXPECT_DOUBLE_EQ(d.hz, table.max_hz());
    EXPECT_GT(d.watts, 0.0);
  }
  EXPECT_TRUE(result.feasible);
  // No prediction contract: the engine must skip scoring entirely.
  EXPECT_LT(adapter.predict_ipc(views[0], table.max_hz()), 0.0);
}

// --- Fault-handling races -------------------------------------------------

TEST(ControlLoopFaults, BudgetChangeDuringActuationRetryStaysSafe) {
  // A budget drop lands while cpu 1 is inside a reject window (already
  // escalated to the f_min fail-safe).  The budget-triggered cycle must
  // schedule around the pinned CPU, the retry must keep aiming at the
  // fail-safe grant, and everything must recover once the fault clears.
  Rig rig;
  for (std::size_t c = 0; c < rig.cluster.cpu_count(); ++c) {
    rig.cluster.core({0, c}).add_workload(
        workload::make_uniform_synthetic(100.0, 1e12));
  }
  sim::FaultPlan plan(5);
  plan.add({sim::FaultKind::kActuationReject, 0.2, 0.55, /*target=*/1, 0.0});

  sim::EventLog journal;
  DaemonConfig cfg;
  cfg.journal = &journal;
  cfg.fault_plan = &plan;
  FvsstDaemon daemon(rig.sim, rig.cluster, rig.machine.freq_table, rig.budget,
                     cfg);

  rig.sim.run_for(0.45);
  EXPECT_GT(daemon.loop().retrying_cpu_count(), 0u);  // mid-fault
  rig.budget.set_limit_w(200.0);  // fires a budget cycle during the retry
  rig.sim.run_for(0.75);

  EXPECT_EQ(daemon.loop().degraded_cpu_count(), 0u);
  EXPECT_EQ(daemon.loop().retrying_cpu_count(), 0u);
  EXPECT_LE(rig.cluster.cpu_power_w(), rig.budget.effective_limit_w() + 1e-9);
  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());

  // The budget trigger really did interleave with the fault window.
  bool budget_cycle_in_window = false;
  for (const sim::Event& e : journal.events()) {
    if (e.type != sim::EventType::kCycleStart) continue;
    const std::string* trigger = e.find_str("trigger");
    if (trigger && *trigger == "budget" && e.t >= 0.2 && e.t < 0.55) {
      budget_cycle_in_window = true;
    }
  }
  EXPECT_TRUE(budget_cycle_in_window);
}

TEST(ControlLoopFaults, IdleExitMidIntervalRecoversFrequency) {
  // cpu 2's workload drains mid-run (idle enter), then new work arrives in
  // the middle of a sampling interval (idle exit).  The loop must pin the
  // idle CPU to the floor and lift it again after the mid-interval wakeup.
  Rig rig;
  rig.cluster.core({0, 2}).add_workload(workload::make_uniform_synthetic(
      100.0, 1e8, /*loop=*/false));  // drains in ~0.2 s

  sim::EventLog journal;
  DaemonConfig cfg;
  cfg.journal = &journal;
  FvsstDaemon daemon(rig.sim, rig.cluster, rig.machine.freq_table, rig.budget,
                     cfg);

  bool was_idle_at_floor = false;
  rig.sim.schedule_at(0.45, [&] {
    was_idle_at_floor = rig.cluster.core({0, 2}).idle() &&
                        rig.cluster.core({0, 2}).frequency_hz() ==
                            rig.machine.freq_table.min_hz();
  });
  // New work lands at 0.473 — mid-interval, off every tick boundary.
  rig.sim.schedule_at(0.473, [&] {
    rig.cluster.core({0, 2}).add_workload(
        workload::make_uniform_synthetic(100.0, 1e12));
  });
  rig.sim.run_for(1.0);

  EXPECT_TRUE(was_idle_at_floor);
  EXPECT_FALSE(rig.cluster.core({0, 2}).idle());
  EXPECT_GT(rig.cluster.core({0, 2}).frequency_hz(),
            rig.machine.freq_table.min_hz());

  // Both transitions were journalled for cpu 2, in order.
  double idle_enter_t = -1.0;
  double idle_exit_t = -1.0;
  for (const sim::Event& e : journal.events()) {
    if (e.cpu != 2) continue;
    if (e.type == sim::EventType::kIdleEnter && idle_enter_t < 0.0) {
      idle_enter_t = e.t;
    }
    if (e.type == sim::EventType::kIdleExit && idle_exit_t < 0.0) {
      idle_exit_t = e.t;
    }
  }
  ASSERT_GE(idle_enter_t, 0.0);
  ASSERT_GE(idle_exit_t, 0.0);
  EXPECT_LT(idle_enter_t, idle_exit_t);
  EXPECT_GE(idle_exit_t, 0.473);
  EXPECT_TRUE(sim::check_journal(journal).ok());
}

// --- SimCoreSampler: the core's fold vs the snapshot replay --------------

/// Two nodes of two CPUs, every core multiprogrammed (a 7 ms quantum, so
/// rotations fall between lattice instants); one core's jobs finish, so
/// it goes idle mid-run.
struct FoldWorld {
  FoldWorld() {
    for (const auto& addr : cluster.all_procs()) {
      cpu::Core& core = cluster.core(addr);
      if (addr.node == 1 && addr.cpu == 1) {
        core.add_workload(workload::make_uniform_synthetic(50.0, 2e8, false));
        core.add_workload(workload::make_uniform_synthetic(90.0, 3e8, false));
        continue;
      }
      workload::SyntheticParams params;
      params.phase1 = {100.0, 3e8};
      params.phase2 = {20.0 + 10.0 * static_cast<double>(addr.cpu), 1e8};
      core.add_workload(workload::make_synthetic(params));
      core.add_workload(workload::make_uniform_synthetic(40.0, 5e9));
    }
  }

  static cluster::Cluster build(sim::Simulation& sim) {
    mach::MachineConfig machine = mach::p630();
    machine.num_cpus = 2;
    cluster::NodeOptions opts;
    opts.quantum_s = 0.007;
    sim::Rng rng(77);
    return cluster::Cluster::homogeneous(sim, machine, 2, rng, opts);
  }

  sim::Simulation sim;
  cluster::Cluster cluster = build(sim);
};

void expect_same_samples(const std::vector<IntervalSample>& want,
                         const std::vector<IntervalSample>& got,
                         double now) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const IntervalSample& w = want[i];
    const IntervalSample& g = got[i];
    EXPECT_EQ(std::memcmp(&w.delta, &g.delta, sizeof w.delta), 0)
        << "cpu " << i << " delta at t=" << now;
    EXPECT_EQ(std::memcmp(&w.elapsed_s, &g.elapsed_s, sizeof(double)), 0)
        << "cpu " << i << " elapsed at t=" << now;
    EXPECT_EQ(std::memcmp(&w.measured_hz, &g.measured_hz, sizeof(double)), 0)
        << "cpu " << i << " measured_hz at t=" << now;
    EXPECT_EQ(w.current_hz, g.current_hz) << "cpu " << i << " at t=" << now;
    EXPECT_EQ(w.os_idle, g.os_idle) << "cpu " << i << " at t=" << now;
    EXPECT_EQ(w.valid, g.valid) << "cpu " << i << " at t=" << now;
  }
}

/// Runs one seeded script of collects, interval closes (on and off the
/// lattice, repeated at one instant, and one ahead of the simulation so
/// an elapsed interval has no cycles), off-lattice syncs, grid suspensions
/// and resumptions, and set-point changes against a gridded cluster read
/// by SimCoreSampler and a per-tick twin read by the snapshot replay.
/// Returns the number of interval closes compared.
int run_fold_differential(std::uint64_t seed,
                          SimCoreSampler::ResetPolicy reset) {
  const double t = 0.010;
  const std::vector<double> steal = {3e-6, 0.0, 1e-4, 0.0};
  const auto instant = [t](std::uint64_t k) {
    return t + static_cast<double>(k) * t;
  };
  FoldWorld fold_world;
  FoldWorld replay_world;
  const std::vector<cluster::ProcAddress> procs =
      fold_world.cluster.all_procs();
  for (std::size_t i = 0; i < procs.size(); ++i) {
    fold_world.cluster.core(procs[i]).set_sampling_grid(t, t, steal[i],
                                                        true);
  }
  SimCoreSampler fold(fold_world.cluster, procs, reset, 0.0);
  HistoryReplaySampler replay(replay_world.cluster, procs, reset, 0.0);
  TickedCores ticks(replay_world.sim, replay_world.cluster, t, t, steal);
  const mach::FrequencyTable& table =
      fold_world.cluster.node(0).machine().freq_table;

  sim::Rng script(seed);
  std::vector<char> suspended(procs.size(), 0);
  std::vector<IntervalSample> got;
  std::vector<IntervalSample> want;
  const auto close = [&](double at) {
    fold.end_interval(at, got);
    replay.end_interval(at, want);
    expect_same_samples(want, got, at);
  };
  int closes = 0;
  double now = 0.0;
  std::uint64_t k = 0;
  while (now < 3.0) {
    if (script.uniform(0.0, 1.0) < 0.6) {
      while (instant(k) <= now) ++k;
      k += static_cast<std::uint64_t>(script.uniform_int(0, 5));
      now = instant(k);
    } else {
      now += script.uniform(0.1, 3.9) * t;
    }
    fold_world.sim.run_until(now);
    ticks.run_to(now, replay);
    const double op = script.uniform(0.0, 1.0);
    const auto i = static_cast<std::size_t>(
        script.uniform_int(0, static_cast<std::int64_t>(procs.size()) - 1));
    cpu::Core& fold_core = fold_world.cluster.core(procs[i]);
    cpu::Core& replay_core = replay_world.cluster.core(procs[i]);
    if (op < 0.3) {
      fold.collect();
      replay.collect();
    } else if (op < 0.6) {
      close(now);
      ++closes;
    } else if (op < 0.65) {
      // Twice at one instant (nothing elapsed), then ahead of the
      // simulation: time elapsed but no cycles were folded.
      close(now);
      close(now);
      close(now + 0.003);
      closes += 3;
    } else if (op < 0.75) {
      fold_core.read_counters();
      replay_core.read_counters();
    } else if (op < 0.87) {
      if (suspended[i]) {
        fold_core.resume_sampling_grid(now);
        ticks.resume(i, now);
      } else {
        fold_core.read_counters();
        fold_core.suspend_sampling_grid();
        replay_core.read_counters();
        ticks.suspend(i);
      }
      suspended[i] = !suspended[i];
    } else {
      const double hz = table[static_cast<std::size_t>(script.uniform_int(
                                  0, static_cast<std::int64_t>(table.size()) -
                                         1))]
                            .hz;
      fold_core.set_frequency(hz);
      replay_core.set_frequency(hz);
    }
  }
  close(now);
  ++closes;
  for (const auto& addr : procs) {
    const cpu::PerfCounters a = fold_world.cluster.core(addr).read_counters();
    const cpu::PerfCounters b = replay_world.cluster.core(addr).read_counters();
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
        << "final counters of node " << addr.node << " cpu " << addr.cpu;
  }
  return closes;
}

TEST(SimCoreSampler, FoldMatchesSnapshotReplayOnValidIntervalReset) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    EXPECT_GT(run_fold_differential(
                  seed, SimCoreSampler::ResetPolicy::kOnValidInterval),
              20);
  }
}

TEST(SimCoreSampler, FoldMatchesSnapshotReplayOnElapsedReset) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    EXPECT_GT(
        run_fold_differential(seed, SimCoreSampler::ResetPolicy::kOnElapsed),
        20);
  }
}

// --- MetricRegistry and sinks --------------------------------------------

TEST(MetricRegistry, FindOrCreateAndCounters) {
  sim::MetricRegistry reg;
  sim::TimeSeries& s1 = reg.series("cpu0/granted_hz", "granted_hz");
  sim::TimeSeries& s2 = reg.series("cpu0/granted_hz", "ignored-second-name");
  EXPECT_EQ(&s1, &s2);
  EXPECT_EQ(s1.name(), "granted_hz");
  EXPECT_EQ(reg.series_count(), 1u);
  EXPECT_EQ(reg.find_series("nope"), nullptr);
  EXPECT_THROW(reg.at("nope"), std::out_of_range);

  reg.counter("loop/cycles") = 12.0;
  reg.counter("loop/cycles") += 1.0;
  EXPECT_DOUBLE_EQ(reg.counter_value("loop/cycles"), 13.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("absent"), 0.0);
}

TEST(MetricRegistry, JsonLinesExport) {
  sim::MetricRegistry reg;
  reg.series("cpu0/granted_hz", "granted_hz").add(0.0, 1e9);
  reg.counter("loop/cycles") = 3.0;
  std::ostringstream out;
  sim::JsonLinesSink sink(out);
  reg.export_to(sink);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"metric\":\"cpu0/granted_hz\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"granted_hz\""), std::string::npos);
  EXPECT_NE(text.find("\"metric\":\"loop/cycles\""), std::string::npos);
  EXPECT_NE(text.find("\"value\":3"), std::string::npos);
}

TEST(MetricRegistry, CsvDirectorySinkWritesPerMetricFiles) {
  sim::MetricRegistry reg;
  auto& s = reg.series("cpu0/granted_hz", "granted_hz");
  s.add(0.0, 1e9);
  s.add(0.1, 2e9);
  reg.counter("loop/cycles") = 2.0;

  char dir_template[] = "/tmp/fvsst_telemetry_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  {
    sim::CsvDirectorySink sink(dir);
    reg.export_to(sink);
    EXPECT_EQ(sink.failures(), 0u);
  }  // destructor flushes counters.csv

  std::FILE* f = std::fopen((dir + "/cpu0_granted_hz.csv").c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[64] = {0};
  ASSERT_NE(std::fgets(header, sizeof header, f), nullptr);
  std::fclose(f);
  EXPECT_NE(std::string(header).find("granted_hz"), std::string::npos);

  std::FILE* c = std::fopen((dir + "/counters.csv").c_str(), "r");
  ASSERT_NE(c, nullptr);
  std::fclose(c);
  std::remove((dir + "/cpu0_granted_hz.csv").c_str());
  std::remove((dir + "/counters.csv").c_str());
  rmdir(dir.c_str());
}

}  // namespace
}  // namespace fvsst::core
