// test_event_mode - The one time-advance path.  cpu::Core's skip-ahead
// primitives must reproduce per-tick stepping bit for bit, and whole-daemon
// runs — fault-free and under fault plans and failover — must reproduce
// golden digests of their journal, telemetry and final core state.  Every
// digest was produced by building this file's golden cases against commit
// 423b79f, where these configurations took the per-tick timer path (every
// core read at every tick); the heartbeat-loss case was recorded against
// d0b8af3, where the channels' drop callbacks still journalled losses.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/cluster_daemon.h"
#include "core/daemon.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "power/margin_controller.h"
#include "power/sensor.h"
#include "run_bytes.h"
#include "simkit/event_log.h"
#include "simkit/fault_plan.h"
#include "simkit/monitor.h"
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

void expect_bit_equal(const cpu::PerfCounters& want,
                      const cpu::PerfCounters& got, const char* what) {
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(cpu::PerfCounters)), 0) << what;
}

/// The per-tick collector's fold, done by hand on a core read at every
/// tick: `sum += counters - last; last = counters` at each read.
struct HandFold {
  void fold(const cpu::PerfCounters& counters) {
    sum += counters - last;
    last = counters;
  }
  cpu::PerfCounters last;
  cpu::PerfCounters sum;
};

/// Drives one core by per-tick reads, the other by large jumps with a
/// registered sampling grid that folds every tick's counters inside the
/// core: at each collect the grid's fold, the counters, finish times and
/// RNG consumption (every noise draw feeds the counters) must match the
/// per-tick fold bit for bit.  The per-tick core is also left unsynced
/// over two spans, as a crashed node's agent leaves its cores, while the
/// gridded core suspends its grid over them: one span is shorter than a
/// tick, the other skips ticks [60, 75) and takes an off-lattice collect.
TEST(CoreSkipAhead, GridSubdivisionMatchesPerTickStepping) {
  const mach::MachineConfig machine = mach::p630();
  const double t = 0.010;
  // Lattice convention matches sim::Simulation::schedule_every: the origin
  // IS the first instant, and tick k (1-based) lands at origin + (k-1)*t.
  const auto tick_at = [t](int k) {
    return t + static_cast<double>(k - 1) * t;
  };
  constexpr int kSkipFrom = 60, kSkipTo = 75, kLastTick = 250;
  const double off_lattice_collect = tick_at(66) + 0.37 * t;

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
  jump->set_sampling_grid(t, t, /*recurring_steal_s=*/3e-6,
                          /*record_history=*/true);
  jump->start_sample_fold();

  // The per-tick side: a read at every tick outside the skipped span, one
  // off-lattice read inside it, and a hand fold of every read.  Its sums
  // are taken at the ticks the jumping side collects at.
  HandFold hand;
  std::vector<cpu::PerfCounters> tick_sums;
  const auto collect_tick = [&] {
    hand.fold(tick->read_counters());
    tick_sums.push_back(hand.sum);
    hand.sum = cpu::PerfCounters{};
  };
  for (int k = 1; k <= kLastTick; ++k) {
    if (k >= kSkipFrom && k < kSkipTo) {
      if (k == 66) {
        sim_tick.run_until(off_lattice_collect);
        collect_tick();
      }
      continue;
    }
    sim_tick.run_until(tick_at(k));
    tick->steal_time(3e-6);
    hand.fold(tick->read_counters());
    if (k == 40 || k == kSkipFrom - 1 || k == 120 || k == kLastTick) {
      collect_tick();
    }
    // A mid-span frequency change lands on both cores at the same instant.
    if (k == 120) tick->set_frequency(machine.freq_table.min_hz());
  }

  // The jumping side: large advances, collects at the same instants.
  std::vector<cpu::PerfCounters> jump_sums;
  const auto collect_jump = [&](double at) {
    jump->advance_to(at);
    jump->collect_sample_fold();
    jump_sums.push_back(jump->sample_fold());
    jump->clear_sample_fold();
  };
  collect_jump(tick_at(40));
  jump->suspend_sampling_grid();
  jump->resume_sampling_grid(tick_at(40) + 0.4 * t);  // tick 41 is next
  collect_jump(tick_at(kSkipFrom - 1));
  jump->suspend_sampling_grid();
  collect_jump(off_lattice_collect);
  jump->resume_sampling_grid(tick_at(kSkipTo));
  collect_jump(tick_at(120));
  jump->set_frequency(machine.freq_table.min_hz());
  collect_jump(tick_at(kLastTick));

  ASSERT_EQ(jump_sums.size(), tick_sums.size());
  for (std::size_t i = 0; i < tick_sums.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bit_equal(tick_sums[i], jump_sums[i], "interval sum");
  }
  expect_bit_equal(tick->read_counters(), jump->read_counters(), "counters");
  EXPECT_EQ(tick->job_finish_time(1), jump->job_finish_time(1));
  EXPECT_EQ(tick->job_instructions_retired(0),
            jump->job_instructions_retired(0));
  // The grid subdivides the jump into the same advance segments a per-tick
  // driver produces — identical work per segment is what buys the
  // bit-identical counters.  (The advance-call savings live on the
  // grid-free skip-ahead path and in the daemon's event count; the
  // substrate bench pins both.)
  EXPECT_LE(jump->advance_calls(), tick->advance_calls() + 1);
  // The snapshot history is gone: draining it yields nothing.
  std::vector<cpu::PerfCounters> drained(1);
  jump->drain_counter_history(drained);
  EXPECT_EQ(drained.size(), 1u);
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
  EXPECT_THROW(core.set_sampling_grid(0.0, 0.0, 0.0, false),
               std::invalid_argument);
  core.set_sampling_grid(0.0, 0.010, 0.0, true);
  // Re-registering the same lattice is fine; a different one throws.
  core.set_sampling_grid(0.0, 0.010, 1e-6, true);
  EXPECT_THROW(core.set_sampling_grid(0.0, 0.020, 0.0, true),
               std::logic_error);
  EXPECT_THROW(core.set_sampling_grid(0.5, 0.010, 0.0, true),
               std::logic_error);

  // Re-registering mid-run must not rewind the lattice: no span is
  // simulated twice and no instant's steal or fold taken twice.  Both runs
  // must match a per-tick driver over exactly the 100 instants in (0, 1].
  const double steal = 1e-4;
  auto run = [&machine, steal](bool reregister) {
    sim::Simulation s;
    cpu::Core c(s, core_config(machine), sim::Rng(3));
    c.add_workload(workload::make_uniform_synthetic(60.0, 1e12));
    c.set_sampling_grid(0.01, 0.01, steal, true);
    c.start_sample_fold();
    c.advance_to(0.5);
    if (reregister) c.set_sampling_grid(0.01, 0.01, steal, true);
    c.advance_to(1.0);
    c.collect_sample_fold();
    return std::vector<cpu::PerfCounters>{c.sample_fold(), c.read_counters()};
  };
  sim::Simulation s;
  cpu::Core ticked(s, core_config(machine), sim::Rng(3));
  ticked.add_workload(workload::make_uniform_synthetic(60.0, 1e12));
  HandFold hand;
  for (int k = 0; k < 100; ++k) {
    s.run_until(0.01 + static_cast<double>(k) * 0.01);
    ticked.steal_time(steal);
    hand.fold(ticked.read_counters());
  }
  const std::vector<cpu::PerfCounters> per_tick{hand.sum,
                                                ticked.read_counters()};
  for (const bool reregister : {false, true}) {
    SCOPED_TRACE(reregister);
    const std::vector<cpu::PerfCounters> got = run(reregister);
    expect_bit_equal(per_tick[0], got[0], "fold");
    expect_bit_equal(per_tick[1], got[1], "counters");
  }

  // Without folding the grid still subdivides and steals, and a collect
  // folds only the span since the last fold point.
  sim::Simulation s2;
  cpu::Core quiet(s2, core_config(machine), sim::Rng(3));
  quiet.add_workload(workload::make_uniform_synthetic(60.0, 1e12));
  quiet.set_sampling_grid(0.01, 0.01, steal, false);
  quiet.start_sample_fold();
  quiet.advance_to(1.0);
  quiet.collect_sample_fold();
  expect_bit_equal(per_tick[1], quiet.read_counters(), "unfolded counters");
  expect_bit_equal(per_tick[1] - cpu::PerfCounters{}, quiet.sample_fold(),
                   "one-span fold");
}

// --- Golden whole-daemon runs ----------------------------------------------

using sim::FaultKind;
using Steps = std::vector<std::pair<double, double>>;  ///< (at, budget)

/// The run's bytes (journal, telemetry, then `extra`, then every core's
/// final state) checked against its FNV-1a-64 golden digest — printed on
/// a mismatch — and required to contain `marker`, proof the case
/// exercised what it is named for.
void expect_golden(const sim::EventLog& journal,
                   const sim::MetricRegistry& telemetry,
                   const std::string& extra, cluster::Cluster& cluster,
                   const char* digest, const char* marker) {
  std::string bytes = run_bytes(journal, &telemetry) + extra;
  for (const auto& addr : cluster.all_procs()) {
    auto& core = cluster.core(addr);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "core %zu.%zu hz=%.17g instr=%.17g cycles=%.17g\n",
                  addr.node, addr.cpu, core.frequency_hz(),
                  core.instructions_retired(), core.read_counters().cycles);
    bytes += buf;
  }
  EXPECT_EQ(fnv1a64_hex(bytes), digest);
  EXPECT_NE(bytes.find(marker), std::string::npos) << marker;
}

/// One SMP-daemon run on a 4-CPU P630.
struct SmpCase {
  const char* name = "";
  const char* digest = "";
  const char* marker = "\"type\":\"cycle_start\"";
  Steps budget_steps = {};  ///< (at, watts)
  std::vector<sim::FaultSpec> faults = {};
  double budget_w = 560.0;
  double t_sample_s = 0.010;
  int multiplier = 10;  ///< T = multiplier * t
  bool per_cpu_threads = false;
  /// fvsst_sim's 5 ms power sensor (faultable, journalled, its mean power
  /// in the bytes), and a margin controller reading it, built as fvsst_sim
  /// builds them under fault injection.
  bool sensor = false;
  bool margin = false;
  /// fvsst_sim --workload synth:90@0.0 --workload synth:40@0.2 instead of
  /// the multiprogrammed phased mix on CPUs 1-3.
  bool two_synth = false;
  double duration_s = 3.0;
};

void run_smp(const SmpCase& c) {
  sim::Simulation sim;
  sim::Rng rng(4242);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 1, rng);
  if (c.two_synth) {
    cluster.core({0, 0}).add_workload(
        workload::make_uniform_synthetic(90.0, 1e12));
    cluster.core({0, 2}).add_workload(
        workload::make_uniform_synthetic(40.0, 1e12));
  } else {
    workload::SyntheticParams params;
    params.phase1 = {100.0, 3e8};
    params.phase2 = {20.0, 1e8};
    cluster.core({0, 1}).add_workload(workload::make_synthetic(params));
    cluster.core({0, 2}).add_workload(
        workload::make_uniform_synthetic(50.0, 1e12));
    cluster.core({0, 3}).add_workload(
        workload::make_uniform_synthetic(85.0, 4e9));
  }
  power::PowerBudget budget(c.budget_w);
  for (const auto& [at, watts] : c.budget_steps) {
    sim.schedule_at(at, [&budget, w = watts] { budget.set_limit_w(w); });
  }
  sim::FaultPlan plan(11);
  for (const sim::FaultSpec& f : c.faults) plan.add(f);

  sim::EventLog journal;
  core::DaemonConfig config;
  config.journal = &journal;
  config.t_sample_s = c.t_sample_s;
  config.schedule_every_n_samples = c.multiplier;
  config.per_cpu_threads = c.per_cpu_threads;
  if (!plan.empty()) config.fault_plan = &plan;
  core::FvsstDaemon daemon(sim, cluster, machine.freq_table, budget, config);
  std::unique_ptr<power::PowerSensor> sensor;
  std::unique_ptr<power::MarginController> margin;
  if (c.margin) {
    margin = std::make_unique<power::MarginController>(
        sim, budget, [&sensor] { return sensor->last_sample_w(); });
  }
  if (c.sensor) {
    sensor = std::make_unique<power::PowerSensor>(
        sim, [&cluster] { return cluster.cpu_power_w(); }, 0.005);
    if (!plan.empty()) sensor->set_fault_plan(&plan, &journal);
  }
  sim.run_for(c.duration_s);

  char extra[120] = "";
  if (sensor) {
    std::snprintf(extra, sizeof extra, "sensor mean=%.17g energy=%.17g\n",
                  sensor->mean_power_w(), sensor->energy_j());
  }
  expect_golden(journal, daemon.telemetry(), extra, cluster, c.digest,
                c.marker);
}

TEST(Golden, SmpDaemon) {
  const SmpCase cases[] = {
      // 1.0 == 100 * 0.01 exactly in binary floating point: the drop lands
      // on a tick.
      {.name = "budget drop on the lattice", .digest = "e395e2a0d650a670",
       .budget_steps = {{1.0, 180.0}}},
      {.name = "per-CPU collector threads", .digest = "18d6beb942e8e1cc",
       .budget_steps = {{1.0, 180.0}}, .per_cpu_threads = true},
      {.name = "off-lattice budget drop", .digest = "aa2d5f0c57ce5a2a",
       .budget_steps = {{1.0437, 180.0}}},
      // fvsst_sim --budget 560 --budget-at 1.0437:280 --duration 2: the
      // drop restarts T mid-cycle.
      {.name = "off-lattice drop restarts the period",
       .digest = "3f065da6a9f37d8c", .budget_steps = {{1.0437, 280.0}},
       .sensor = true, .two_synth = true, .duration_s = 2.0},
      // CPU 1's writes are refused from the 0.5 s cycle on: retries back
      // off 1, 2 and 4 ticks, the fourth refusal fail-safes the CPU to
      // f_min, and the first retry after the window recovers it.
      {.name = "reject backoff into the fail-safe and recovery",
       .digest = "ddaee7dba37ab464",
       .marker = "\"reason\":\"actuation_failsafe\"",
       .faults = {{FaultKind::kActuationReject, 0.5, 0.75, 1, 0.0}},
       .budget_w = 420.0},
      // The drop lands 3.3 ms before the 1.05 s tick inside a reject
      // window, so its refused writes start a retry that tick must run;
      // the 5 ms sensor samples that tick inside a dropout window and the
      // margin controller acts on what it read.
      {.name = "reject window hit by an off-lattice drop before a tick",
       .digest = "5fc84e3ca0180f31",
       .marker = "\"kind\":\"sensor_dropout\"",
       .budget_steps = {{1.0467, 300.0}},
       .faults = {{FaultKind::kActuationReject, 1.02, 1.2, -1, 0.0},
                  {FaultKind::kSensorDropout, 1.04, 1.06, -1, 0.0}},
       .sensor = true, .margin = true},
      // One delay is exactly one tick, so delayed writes land on tick
      // instants; the other is off the lattice.
      {.name = "sticky and delayed writes", .digest = "059573525dfe1b84",
       .marker = "\"kind\":\"actuation_sticky\"",
       .budget_steps = {{0.6, 300.0}, {1.7913, 450.0}},
       .faults = {{FaultKind::kActuationSticky, 0.3, 0.9, 2, 0.0},
                  {FaultKind::kActuationDelay, 0.2, 1.5, 3, 0.01},
                  {FaultKind::kActuationDelay, 0.45, 2.2, 0, 0.0037}},
       .sensor = true, .margin = true},
      // T = 50 ms puts every cycle on a margin-controller check, which a
      // per-tick timer fires after the check; a one-tick delay inside a
      // reject window lands on the next tick, after that tick's wake.
      {.name = "margin checks on the cycle instants",
       .digest = "84765f2fdd4d2545",
       .marker = "\"kind\":\"actuation_reject\"",
       .faults = {{FaultKind::kActuationSticky, 0.4, 1.6, 1, 0.0},
                  {FaultKind::kActuationReject, 0.9, 1.3, 3, 0.0},
                  {FaultKind::kActuationDelay, 0.8, 2.0, 2, 0.01}},
       .budget_w = 300.0, .multiplier = 5, .sensor = true, .margin = true},
      // CPU 3's write recovers at 1.04 s, a tick before a cycle, and is
      // delayed by exactly one tick: it lands after the cycle tick's wake.
      {.name = "recovered write delayed onto a cycle tick",
       .digest = "ea31c92d2ffbb4fd",
       .marker = "\"kind\":\"actuation_reject\"",
       .faults = {{FaultKind::kActuationReject, 0.91, 1.03, 3, 0.0},
                  {FaultKind::kActuationDelay, 1.03, 2.0, 3, 0.01}},
       .budget_w = 300.0, .multiplier = 5, .duration_s = 1.5},
      // The margin controller's 50 ms checks land on ticks after the
      // tick timer's firing there (t = 100 ms), or tie with it (t = 50 ms,
      // built after the daemon), so the tick counts before T restarts.
      {.name = "margin checks after the tick", .digest = "26fda9e5cd304a06",
       .budget_steps = {{0.45, 50.0}},
       .faults = {{FaultKind::kActuationSticky, 0.4049, 0.4549, 1, 0.0}},
       .budget_w = 150.0, .t_sample_s = 0.1, .multiplier = 5,
       .sensor = true, .margin = true},
      {.name = "margin checks tied with the tick", .digest = "8c35d1ae39921a53",
       .faults = {{FaultKind::kActuationSticky, 0.3, 1.9, 1, 0.0}},
       .budget_w = 300.0, .t_sample_s = 0.05, .multiplier = 5,
       .sensor = true, .margin = true},
      {.name = "reject window under a steady budget",
       .digest = "c89a3c22c615e309",
       .marker = "\"kind\":\"actuation_reject\"",
       .faults = {{FaultKind::kActuationReject, 0.5, 1.0, 1, 0.0}},
       .budget_w = 300.0, .duration_s = 1.5},
  };
  for (const SmpCase& c : cases) {
    SCOPED_TRACE(c.name);
    run_smp(c);
  }
}

/// One flat-cluster run: four nodes of 1 or 4 P630 CPUs.
struct ClusterCase {
  const char* name = "";
  const char* digest_1cpu = "";
  const char* digest_4cpu = "";
  const char* marker = "\"cause\":\"node_crash\"";
  std::vector<sim::FaultSpec> faults = {};
  Steps budget_steps = {{0.9, 0.4}};  ///< (at, fraction of peak)
  double channel_loss = 0.0;
  core::FailoverConfig failover = {};
  cluster::TransportMode transport = cluster::TransportMode::kDatagram;
  bool monitor = false;
  double duration_s = 2.5;
};

void run_cluster(const ClusterCase& c, std::size_t cpus_per_node,
                 int threads) {
  sim::Simulation sim;
  sim::Rng rng(23);
  mach::MachineConfig machine = mach::p630();
  machine.num_cpus = cpus_per_node;
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 4, rng);
  const std::size_t last = cpus_per_node - 1;
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(90.0, 1e12));
  cluster.core({1, 0}).add_workload(
      workload::make_uniform_synthetic(60.0, 1e12));
  cluster.core({3, last}).add_workload(
      workload::make_uniform_synthetic(25.0, 1e12));
  cluster.core({2, last}).add_workload(
      workload::make_uniform_synthetic(75.0, 6e8));
  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  for (const auto& [at, fraction] : c.budget_steps) {
    sim.schedule_at(at, [&budget, w = peak * fraction] {
      budget.set_limit_w(w);
    });
  }
  sim::FaultPlan plan(5);
  for (const sim::FaultSpec& f : c.faults) plan.add(f);

  sim::EventLog journal;
  std::unique_ptr<sim::monitor::Monitor> monitor;
  if (c.monitor) {
    sim::monitor::Monitor::Options options;
    options.journal = &journal;
    monitor = std::make_unique<sim::monitor::Monitor>(
        sim::monitor::RuleSet::parse_string(sim::monitor::default_rule_pack()),
        options);
  }
  core::ClusterDaemonConfig cfg;
  cfg.journal = &journal;
  cfg.step_threads = threads;
  cfg.channel_loss_probability = c.channel_loss;
  if (!plan.empty()) cfg.fault_plan = &plan;
  cfg.failover = c.failover;
  cfg.transport = c.transport;
  cfg.monitor = monitor.get();
  core::ClusterDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
  sim.run_for(c.duration_s);
  expect_golden(journal, daemon.telemetry(), "", cluster,
                cpus_per_node == 1 ? c.digest_1cpu : c.digest_4cpu,
                c.marker);
}

TEST(Golden, FlatClusterDaemon) {
  const ClusterCase cases[] = {
      {.name = "budget drop", .digest_1cpu = "06c294507fd29960",
       .digest_4cpu = "c61f642377e06de5", .marker = "\"trigger\":\"budget\""},
      // Random channel loss draws happen per send, so the sends must land
      // at the per-tick instants for the loss pattern to match.
      {.name = "channel loss", .digest_1cpu = "2720742a36e78a3f",
       .digest_4cpu = "768e6e094c095b80", .marker = "\"cause\":\"channel\"",
       .channel_loss = 0.3},
      // No tick falls inside the window, but the 0.5 s round's settings
      // land in it and are lost.
      {.name = "crash shorter than a tick", .digest_1cpu = "d1c6f9ad73fed962",
       .digest_4cpu = "7d1a9d4e9aee75c1",
       .faults = {{FaultKind::kNodeCrash, 0.5003, 0.5009, 1, 0.0}}},
      // The crashed ticks do not count, so node 2's summaries shift off
      // the every-n instants after the restart.
      {.name = "crash spanning a summary tick",
       .digest_1cpu = "4fc4adc1c1163a17", .digest_4cpu = "f62c5931bb8418ef",
       .faults = {{FaultKind::kNodeCrash, 0.93, 1.27, 2, 0.0}}},
      {.name = "overlapping and wildcard crashes",
       .digest_1cpu = "b513e2c0cb3de627", .digest_4cpu = "776e32bc09e5c9ed",
       .faults = {{FaultKind::kNodeCrash, 0.3, 0.6, 1, 0.0},
                  {FaultKind::kNodeCrash, 0.45, 0.8, 1, 0.0},
                  {FaultKind::kNodeCrash, 1.5, 1.56, -1, 0.0}}},
      // Node 3's settings land just before the crash starts (0.70067 s)
      // and just after it ends (1.10070 s), syncing its cores off the
      // lattice on both sides.
      {.name = "settings around a crash", .digest_1cpu = "f16ceac9af57478f",
       .digest_4cpu = "9f4bb1fcb4efc1d2",
       .faults = {{FaultKind::kNodeCrash, 0.7007, 1.1006, 3, 0.0}}},
      // No standby: the nodes fail-safe after 2 silent periods, track a
      // budget change while in it, and leave it when the restarted
      // coordinator's settings arrive.
      {.name = "coordinator crash into the node fail-safe",
       .digest_1cpu = "f12e23026c8b3880", .digest_4cpu = "907c7773cbf0bad6",
       .marker = "\"reason\":\"coordinator_silent\"",
       .faults = {{FaultKind::kCoordinatorCrash, 0.55, 1.45, 0, 0.0}},
       .budget_steps = {{1.0, 0.5}},
       .failover = {.node_failsafe_factor = 2.0}},
      {.name = "takeover and partition under reliable chaos",
       .digest_1cpu = "e4c1b00db03a957d", .digest_4cpu = "a17158b8adbe4047",
       .marker = "\"type\":\"message_retransmit\"",
       .faults = {{FaultKind::kCoordinatorCrash, 0.6, 1.4, 0, 0.0},
                  {FaultKind::kPartition, 1.9, 2.3, 1, 0.0},
                  {FaultKind::kChannelLoss, 0.4, 1.2, 1, 0.5},
                  {FaultKind::kChannelReorder, 0.3, 1.7, -1, 0.3},
                  {FaultKind::kChannelDuplicate, 0.6, 1.8, -1, 0.2},
                  {FaultKind::kChannelDelaySpike, 0.7, 1.1, 2, 0.004},
                  {FaultKind::kChannelCorrupt, 1.0, 1.6, -1, 0.2},
                  {FaultKind::kStaleSummaries, 0.4, 1.3, 3, 0.0},
                  {FaultKind::kNodeCrash, 1.15, 1.62, 2, 0.0}},
       .budget_steps = {{0.8, 0.5}, {1.37, 0.3}},
       .failover = {.standby = true, .node_failsafe_factor = 4.0},
       .transport = cluster::TransportMode::kReliable, .monitor = true,
       .duration_s = 3.0},
      {.name = "node crash under a steady budget",
       .digest_1cpu = "30631b8d148ab920", .digest_4cpu = "f60954f37630acbd",
       .faults = {{FaultKind::kNodeCrash, 0.7, 1.6, 1, 0.0}},
       .budget_steps = {}, .duration_s = 2.0},
      // Standby heartbeats cross the lossy down channel: a dropped one is
      // journalled against the broadcast node -1, and the standby claims
      // the crashed leader's epoch on the survivors.
      {.name = "heartbeat loss", .digest_1cpu = "ff7c070522962187",
       .digest_4cpu = "fd311cb15092e7cd",
       .marker = "\"node\":-1,\"direction\":\"down\",\"cause\":\"channel\"",
       .faults = {{FaultKind::kCoordinatorCrash, 0.6, 1.3, 0, 0.0}},
       .channel_loss = 0.3, .failover = {.standby = true}},
  };
  // Every thread count must give the per-tick bytes.
  for (const ClusterCase& c : cases) {
    for (const std::size_t cpus : {std::size_t{1}, std::size_t{4}}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(c.name) + ", cpus/node " +
                     std::to_string(cpus) + ", threads " +
                     std::to_string(threads));
        run_cluster(c, cpus, threads);
      }
    }
  }
}

}  // namespace
}  // namespace fvsst
