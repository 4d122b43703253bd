// Property-based chaos harness: seeded random fault scenarios against the
// SMP daemon and the cluster daemon, asserting the invariants the
// inspector checks plus recovery once every fault window has closed.
//
// Each scenario derives everything — workload mix, budget, and the fault
// plan itself — from one seed, so a CI failure reproduces locally with
//   FVSST_CHAOS_SEED=<seed> ./tests/test_chaos
// (see tests/proptest.h; FVSST_CHAOS_ITERATIONS dials the sweep width).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/optimal.h"
#include "baselines/policies.h"
#include "cluster/cluster.h"
#include "core/cluster_daemon.h"
#include "core/daemon.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "power/sensor.h"
#include "proptest.h"
#include "simkit/event_log.h"
#include "simkit/fault_plan.h"
#include "simkit/units.h"
#include "workload/synthetic.h"

namespace fvsst {
namespace {

using units::ms;

std::size_t count_type(const sim::EventLog& log, sim::EventType type) {
  std::size_t n = 0;
  for (const sim::Event& e : log.events()) n += e.type == type;
  return n;
}

/// A PolicyStageFactory running the named comparator policy through the
/// live engine (fvsst_sim --policy's wiring, minus the CLI).
core::PolicyStageFactory chaos_policy_factory(const std::string& name) {
  return [name](const mach::FrequencyTable&, const mach::MemoryLatencies&,
                const core::FrequencyScheduler::Options& opts)
             -> std::unique_ptr<core::PolicyStage> {
    return std::make_unique<baselines::PolicyStageAdapter>(
        baselines::make_policy(name, opts));
  };
}

/// Seed-based rotation through the decision stages under test: the paper's
/// scheduler plus the two optimization baselines.  The retry/fail-safe
/// machinery lives in the engine, so every stage must survive the same
/// faults with the same invariants.
core::PolicyStageFactory rotated_policy_factory(std::uint64_t seed) {
  switch (seed % 3) {
    case 1: return chaos_policy_factory("two-freq-split");
    case 2: return chaos_policy_factory("lp-optimal");
    default: return {};  // the default SchedulerPolicyStage
  }
}

// --- Random SMP scenarios -------------------------------------------------

// One seeded SMP scenario: random workloads and budget, a random fault
// plan mixing sensor and actuation faults, run long enough that every
// fault window closes with headroom for recovery.
void run_smp_scenario(std::uint64_t seed) {
  constexpr double kDuration = 1.2;
  sim::Simulation simulation;
  sim::Rng rng(seed);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(simulation, machine, 1, rng);
  for (std::size_t c = 0; c < cluster.cpu_count(); ++c) {
    if (rng.bernoulli(0.8)) {
      cluster.core({0, c}).add_workload(
          workload::make_uniform_synthetic(rng.uniform(5.0, 100.0), 1e12));
    }
  }

  sim::RandomPlanOptions plan_opts;
  plan_opts.cpus = cluster.cpu_count();
  plan_opts.duration_s = kDuration;
  // The transport-level channel kinds are inert on an SMP daemon (there is
  // no cluster channel to fault), but they must rotate through the pool
  // without perturbing any invariant.
  plan_opts.transport_faults = true;
  const sim::FaultPlan plan = sim::FaultPlan::random(seed, plan_opts);
  ASSERT_FALSE(plan.empty());
  // random() keeps every window inside the recovery fraction, so the tail
  // of the run observes the recovered system.
  ASSERT_LE(plan.last_end_s(), plan_opts.recovery_fraction * kDuration + 1e-9);

  // Always feasible: 4 CPUs at the table floor cost 36 W.
  power::PowerBudget budget(rng.uniform(45.0, 560.0));
  sim::EventLog journal;
  core::DaemonConfig config;
  config.journal = &journal;
  config.fault_plan = &plan;
  config.policy_factory = rotated_policy_factory(seed);
  core::FvsstDaemon daemon(simulation, cluster, machine.freq_table, budget,
                           config);
  power::PowerSensor sensor(simulation, [&] { return cluster.cpu_power_w(); },
                            5 * ms);
  sensor.set_fault_plan(&plan, &journal);
  simulation.run_for(kDuration);

  // The inspector's invariants hold on the faulted journal: power claimed
  // compliant is compliant, grants are table points at table-minimum
  // voltage (degraded pins included), T restarts on budget triggers.
  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_GT(report.checks_run, 0u);

  // Recovery: all fault windows closed >= 0.4 * duration ago, so no CPU is
  // still degraded or mid-retry and actual power obeys the budget again.
  EXPECT_EQ(daemon.loop().degraded_cpu_count(), 0u);
  EXPECT_EQ(daemon.loop().retrying_cpu_count(), 0u);
  if (daemon.last_result().feasible) {
    EXPECT_LE(cluster.cpu_power_w(), budget.effective_limit_w() + 1e-9);
  }

  // The faulted sensor never produced a physically impossible reading.
  EXPECT_GE(sensor.last_sample_w(), 0.0);
  EXPECT_TRUE(std::isfinite(sensor.mean_power_w()));
  EXPECT_GE(sensor.mean_power_w(), 0.0);
}

TEST(ChaosSmp, SeededScenariosKeepInvariantsAndRecover) {
  proptest::run_seeded(9000, 32,
                       "./tests/test_chaos "
                       "--gtest_filter=ChaosSmp.*",
                       run_smp_scenario);
}

// --- Random cluster scenarios ---------------------------------------------

// One seeded cluster scenario: channel-loss bursts, node crash/restart and
// stale summaries against the distributed daemon.
void run_cluster_scenario(std::uint64_t seed) {
  constexpr double kDuration = 1.5;
  sim::Simulation simulation;
  sim::Rng rng(seed);
  const mach::MachineConfig machine = mach::p630();
  const std::size_t nodes = 2 + static_cast<std::size_t>(rng.uniform_int(0, 1));
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(simulation, machine, nodes, rng);
  for (std::size_t n = 0; n < nodes; ++n) {
    for (std::size_t c = 0; c < cluster.node(n).cpu_count(); ++c) {
      if (rng.bernoulli(0.7)) {
        cluster.core({n, c}).add_workload(
            workload::make_uniform_synthetic(rng.uniform(5.0, 100.0), 1e12));
      }
    }
  }

  sim::RandomPlanOptions plan_opts;
  plan_opts.cpus = cluster.cpu_count();
  plan_opts.nodes = nodes;
  plan_opts.duration_s = kDuration;
  plan_opts.sensor_faults = false;
  plan_opts.actuation_faults = false;
  plan_opts.cluster_faults = true;
  plan_opts.transport_faults = true;
  const sim::FaultPlan plan = sim::FaultPlan::random(seed, plan_opts);
  ASSERT_FALSE(plan.empty());
  ASSERT_LE(plan.last_end_s(), plan_opts.recovery_fraction * kDuration + 1e-9);

  power::PowerBudget budget(
      rng.uniform(static_cast<double>(nodes) * 60.0,
                  static_cast<double>(nodes) * 560.0));
  sim::EventLog journal;
  core::ClusterDaemonConfig config;
  config.journal = &journal;
  config.fault_plan = &plan;
  config.policy_factory = rotated_policy_factory(seed);
  // Both transport modes must survive the same adversarial channels: the
  // reliable session layer by repair, the datagram path by the next
  // round's natural retry.
  config.transport = seed % 2 == 0 ? cluster::TransportMode::kReliable
                                   : cluster::TransportMode::kDatagram;
  core::ClusterDaemon daemon(simulation, cluster, machine.freq_table, budget,
                             config);
  simulation.run_for(kDuration);

  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());

  // Recovery: crashed nodes restarted and resumed summaries long enough
  // ago that silent-node accounting has stood down everywhere.
  EXPECT_EQ(daemon.stale_node_count(), 0u);

  // Every lost message was journalled, and vice versa (the configured
  // channel loss probability is zero, so only faults lose messages).
  EXPECT_EQ(count_type(journal, sim::EventType::kMessageLost),
            daemon.messages_lost());
}

TEST(ChaosCluster, SeededScenariosKeepInvariantsAndRecover) {
  proptest::run_seeded(7000, 20,
                       "./tests/test_chaos "
                       "--gtest_filter=ChaosCluster.*",
                       run_cluster_scenario);
}

// --- Random failover scenarios --------------------------------------------

// One seeded failover scenario: coordinator crashes and partitions (on top
// of the cluster kinds) against a daemon with the full protection stack —
// standby election, epoch fencing and the node-local fail-safe.
void run_failover_scenario(std::uint64_t seed) {
  constexpr double kDuration = 2.5;
  sim::Simulation simulation;
  sim::Rng rng(seed);
  const mach::MachineConfig machine = mach::p630();
  const std::size_t nodes = 2 + static_cast<std::size_t>(rng.uniform_int(0, 1));
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(simulation, machine, nodes, rng);
  for (std::size_t n = 0; n < nodes; ++n) {
    for (std::size_t c = 0; c < cluster.node(n).cpu_count(); ++c) {
      if (rng.bernoulli(0.7)) {
        cluster.core({n, c}).add_workload(
            workload::make_uniform_synthetic(rng.uniform(5.0, 100.0), 1e12));
      }
    }
  }

  sim::RandomPlanOptions plan_opts;
  plan_opts.cpus = cluster.cpu_count();
  plan_opts.nodes = nodes;
  plan_opts.duration_s = kDuration;
  plan_opts.sensor_faults = false;
  plan_opts.actuation_faults = false;
  plan_opts.cluster_faults = true;
  plan_opts.coordinator_faults = true;
  plan_opts.transport_faults = true;
  const sim::FaultPlan plan = sim::FaultPlan::random(seed, plan_opts);
  ASSERT_FALSE(plan.empty());

  power::PowerBudget budget(
      rng.uniform(static_cast<double>(nodes) * 60.0,
                  static_cast<double>(nodes) * 560.0));
  sim::EventLog journal;
  core::ClusterDaemonConfig config;
  config.journal = &journal;
  config.fault_plan = &plan;
  config.policy_factory = rotated_policy_factory(seed);
  config.failover.standby = true;
  config.failover.node_failsafe_factor = 2.0;
  // Rotate the session layer through coordinator failover: retransmit
  // queues must drain across epochs without resurrecting a deposed
  // leader's settings.
  config.transport = seed % 2 == 0 ? cluster::TransportMode::kReliable
                                   : cluster::TransportMode::kDatagram;
  core::ClusterDaemon daemon(simulation, cluster, machine.freq_table, budget,
                             config);
  simulation.run_for(kDuration);

  // Every invariant check, epoch fencing and failover-window compliance
  // included, holds no matter how the coordinators died.
  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());

  // Recovery: silent-node accounting and the node fail-safe have both
  // stood down, and every crashed coordinator restarted.
  EXPECT_EQ(daemon.stale_node_count(), 0u);
  EXPECT_EQ(daemon.failsafe_node_count(), 0u);
  EXPECT_FALSE(daemon.primary().crashed());
  EXPECT_EQ(count_type(journal, sim::EventType::kMessageLost),
            daemon.messages_lost());
  EXPECT_EQ(count_type(journal, sim::EventType::kSettingsRejected),
            daemon.settings_rejected());
}

TEST(ChaosFailover, SeededScenariosKeepInvariantsAndRecover) {
  proptest::run_seeded(11000, 20,
                       "./tests/test_chaos "
                       "--gtest_filter=ChaosFailover.*",
                       run_failover_scenario);
}

// --- Deterministic acceptance: the actuation fail-safe --------------------

// A CPU whose frequency writes are rejected must be retried with backoff,
// escalated to an f_min fail-safe grant, kept inside the power budget the
// whole time, and recovered within about one scheduling period T of the
// fault clearing.
TEST(ChaosFailSafe, RejectedWritesEscalateToFminAndRecover) {
  constexpr double kFaultStart = 0.25;
  constexpr double kFaultEnd = 0.62;
  sim::Simulation simulation;
  sim::Rng rng(11);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(simulation, machine, 1, rng);
  for (std::size_t c = 0; c < cluster.cpu_count(); ++c) {
    cluster.core({0, c}).add_workload(
        workload::make_uniform_synthetic(100.0, 1e12));
  }
  sim::FaultPlan plan(1);
  plan.add({sim::FaultKind::kActuationReject, kFaultStart, kFaultEnd,
            /*target=*/1, 0.0});

  power::PowerBudget budget(500.0);
  sim::EventLog journal;
  core::DaemonConfig config;
  config.journal = &journal;
  config.fault_plan = &plan;
  core::FvsstDaemon daemon(simulation, cluster, machine.freq_table, budget,
                           config);

  // Aggregate power compliance at every probe instant after the first
  // scheduling round — through the fault, the fail-safe, and recovery.
  simulation.run_for(0.101);
  double worst_over = 0.0;
  simulation.schedule_every(7 * ms, [&] {
    worst_over = std::max(
        worst_over, cluster.cpu_power_w() - budget.effective_limit_w());
  });
  simulation.run_for(1.2 - 0.101);

  EXPECT_LE(worst_over, 1e-9);
  EXPECT_EQ(daemon.loop().degraded_cpu_count(), 0u);
  EXPECT_EQ(daemon.loop().retrying_cpu_count(), 0u);
  EXPECT_TRUE(sim::check_journal(journal).ok());

  // Journal sequence for cpu 1: reject attempts counting up, then the
  // degraded-mode f_min fail-safe, then exit + recovery once the fault
  // window closes.
  double last_attempt = 0.0;
  bool saw_failsafe_enter = false;
  bool saw_failsafe_exit = false;
  double recovered_at = -1.0;
  const double f_min = machine.freq_table.min_hz();
  for (const sim::Event& e : journal.events()) {
    if (e.cpu != 1) continue;
    if (e.type == sim::EventType::kFault) {
      const std::string* kind = e.find_str("kind");
      if (!kind || *kind != "actuation_reject") continue;
      const std::string* state = e.find_str("state");
      if (state && *state == "exit") {
        recovered_at = e.t;
        EXPECT_TRUE(e.has_num("recovered_hz"));
      } else {
        // Attempts never go backwards.  A scheduling cycle whose own write
        // is rejected re-journals the in-flight attempt count, so equal
        // neighbours are legitimate; only timer retries increment.
        EXPECT_GE(e.num_or("attempt"), last_attempt);
        last_attempt = e.num_or("attempt");
        EXPECT_GE(e.t, kFaultStart);
        EXPECT_LT(e.t, kFaultEnd);
      }
    } else if (e.type == sim::EventType::kDegradedMode) {
      const std::string* state = e.find_str("state");
      ASSERT_NE(state, nullptr);
      ASSERT_NE(e.find_str("reason"), nullptr);
      EXPECT_EQ(*e.find_str("reason"), "actuation_failsafe");
      if (*state == "enter") {
        saw_failsafe_enter = true;
        // The fail-safe grant is the table minimum frequency.
        EXPECT_DOUBLE_EQ(e.num_or("hz"), f_min);
      } else {
        saw_failsafe_exit = true;
      }
    }
  }
  // The retry budget (3) was exhausted before escalation.
  EXPECT_GE(last_attempt, 4.0);
  EXPECT_TRUE(saw_failsafe_enter);
  EXPECT_TRUE(saw_failsafe_exit);
  // Recovery within about one scheduling period T (100 ms) of the window
  // closing.
  ASSERT_GE(recovered_at, kFaultEnd);
  EXPECT_LE(recovered_at, kFaultEnd + 0.1 + 1e-9);
}

// The fail-safe is engine machinery, not scheduler machinery: with either
// optimization baseline driving the decisions, a CPU whose writes are
// rejected must still escalate to the f_min pin, stay budget-compliant
// throughout, and recover once the window closes.
TEST(ChaosFailSafe, OptimizationPoliciesStillPinFmin) {
  for (const std::string policy : {"two-freq-split", "lp-optimal"}) {
    SCOPED_TRACE(policy);
    constexpr double kFaultStart = 0.25;
    constexpr double kFaultEnd = 0.62;
    sim::Simulation simulation;
    sim::Rng rng(11);
    const mach::MachineConfig machine = mach::p630();
    cluster::Cluster cluster =
        cluster::Cluster::homogeneous(simulation, machine, 1, rng);
    for (std::size_t c = 0; c < cluster.cpu_count(); ++c) {
      cluster.core({0, c}).add_workload(
          workload::make_uniform_synthetic(100.0, 1e12));
    }
    sim::FaultPlan plan(1);
    plan.add({sim::FaultKind::kActuationReject, kFaultStart, kFaultEnd,
              /*target=*/1, 0.0});

    power::PowerBudget budget(500.0);
    sim::EventLog journal;
    core::DaemonConfig config;
    config.journal = &journal;
    config.fault_plan = &plan;
    config.policy_factory = chaos_policy_factory(policy);
    core::FvsstDaemon daemon(simulation, cluster, machine.freq_table, budget,
                             config);

    simulation.run_for(0.101);
    double worst_over = 0.0;
    simulation.schedule_every(7 * ms, [&] {
      worst_over = std::max(
          worst_over, cluster.cpu_power_w() - budget.effective_limit_w());
    });
    simulation.run_for(1.2 - 0.101);

    EXPECT_LE(worst_over, 1e-9);
    EXPECT_EQ(daemon.loop().degraded_cpu_count(), 0u);
    EXPECT_EQ(daemon.loop().retrying_cpu_count(), 0u);
    EXPECT_TRUE(sim::check_journal(journal).ok());

    bool saw_failsafe_enter = false;
    bool saw_failsafe_exit = false;
    const double f_min = machine.freq_table.min_hz();
    for (const sim::Event& e : journal.events()) {
      if (e.cpu != 1 || e.type != sim::EventType::kDegradedMode) continue;
      const std::string* state = e.find_str("state");
      ASSERT_NE(state, nullptr);
      EXPECT_EQ(*e.find_str("reason"), "actuation_failsafe");
      if (*state == "enter") {
        saw_failsafe_enter = true;
        EXPECT_DOUBLE_EQ(e.num_or("hz"), f_min);
      } else {
        saw_failsafe_exit = true;
      }
    }
    EXPECT_TRUE(saw_failsafe_enter);
    EXPECT_TRUE(saw_failsafe_exit);
  }
}

// --- Deterministic acceptance: sensor hold-last-known-good ----------------

TEST(ChaosSensor, DropoutHoldsLastKnownGoodReading) {
  sim::Simulation simulation;
  double watts = 120.0;
  sim::FaultPlan plan(2);
  plan.add({sim::FaultKind::kSensorDropout, 0.3, 0.6, /*target=*/0, 0.0});

  sim::EventLog journal;
  power::PowerSensor sensor(simulation, [&] { return watts; }, 10 * ms);
  sensor.set_fault_plan(&plan, &journal);

  // The underlying power moves inside the dropout window; the sensor must
  // hold 120 W (its last known-good reading) until the window closes.
  simulation.schedule_at(0.4, [&] { watts = 300.0; });
  simulation.run_for(0.5);
  EXPECT_DOUBLE_EQ(sensor.last_sample_w(), 120.0);
  EXPECT_GT(sensor.faulted_samples(), 0u);

  simulation.run_for(0.2);  // past the window: live readings again
  EXPECT_DOUBLE_EQ(sensor.last_sample_w(), 300.0);

  // The fault window was journalled as an enter/exit pair.
  ASSERT_EQ(count_type(journal, sim::EventType::kFault), 2u);
  const sim::Event& enter = journal.events()[0];
  ASSERT_NE(enter.find_str("kind"), nullptr);
  EXPECT_EQ(*enter.find_str("kind"), "sensor_dropout");
  ASSERT_NE(enter.find_str("state"), nullptr);
  EXPECT_EQ(*enter.find_str("state"), "enter");
}

// --- Deterministic acceptance: silent cluster node ------------------------

TEST(ChaosClusterCrash, SilentNodeAccountedAtFmaxUntilRestart) {
  constexpr double kCrashStart = 0.2;
  constexpr double kCrashEnd = 0.7;
  sim::Simulation simulation;
  sim::Rng rng(21);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(simulation, machine, 2, rng);
  for (std::size_t n = 0; n < 2; ++n) {
    cluster.core({n, 0}).add_workload(
        workload::make_uniform_synthetic(80.0, 1e12));
  }
  sim::FaultPlan plan(3);
  plan.add({sim::FaultKind::kNodeCrash, kCrashStart, kCrashEnd, /*target=*/1,
            0.0});

  power::PowerBudget budget(800.0);
  sim::EventLog journal;
  core::ClusterDaemonConfig config;
  config.journal = &journal;
  config.fault_plan = &plan;
  core::ClusterDaemon daemon(simulation, cluster, machine.freq_table, budget,
                             config);

  // Silent-node detection trips after 3 * T = 300 ms without a summary, so
  // node 1 is stale by 0.65 and recovered well before the run ends.
  std::size_t stale_mid_crash = 0;
  simulation.schedule_at(0.65, [&] { stale_mid_crash = daemon.stale_node_count(); });
  simulation.run_for(1.3);

  EXPECT_EQ(stale_mid_crash, 1u);
  EXPECT_EQ(daemon.stale_node_count(), 0u);
  EXPECT_TRUE(sim::check_journal(journal).ok());

  // Settings fanned out during the crash were lost and journalled as such.
  bool saw_crash_loss = false;
  for (const sim::Event& e : journal.events()) {
    if (e.type != sim::EventType::kMessageLost) continue;
    const std::string* cause = e.find_str("cause");
    if (cause && *cause == "node_crash") saw_crash_loss = true;
  }
  EXPECT_TRUE(saw_crash_loss);
  EXPECT_GT(daemon.messages_lost(), 0u);

  // The node's silence entered and exited degraded mode in the journal.
  bool saw_silent_enter = false;
  bool saw_silent_exit = false;
  for (const sim::Event& e : journal.events()) {
    if (e.type != sim::EventType::kDegradedMode) continue;
    const std::string* reason = e.find_str("reason");
    if (!reason || *reason != "node_silent") continue;
    const std::string* state = e.find_str("state");
    ASSERT_NE(state, nullptr);
    if (*state == "enter") saw_silent_enter = true;
    if (*state == "exit") saw_silent_exit = true;
  }
  EXPECT_TRUE(saw_silent_enter);
  EXPECT_TRUE(saw_silent_exit);
}

// --- The fault plan's index against a linear scan -------------------------

// The scan FaultPlan::active ran before it was indexed, kept as the oracle:
// the first spec in plan order of `kind` whose window holds `now` and whose
// target matches (-1 on either side matches anything).
const sim::FaultSpec* scan_active(const sim::FaultPlan& plan,
                                  sim::FaultKind kind, int target,
                                  double now) {
  for (const sim::FaultSpec& spec : plan.specs()) {
    if (spec.kind != kind) continue;
    if (spec.target != -1 && target != -1 && spec.target != target) continue;
    if (now >= spec.start_s && now < spec.end_s) return &spec;
  }
  return nullptr;
}

// Every kind, every target in {-1, 0..max_target + 1}, and instants at
// each window's start and end and one ulp either side of both: active()
// must return the very spec the scan does.
void expect_index_matches_scan(const sim::FaultPlan& plan, int max_target,
                               const std::string& label) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> times = {-1.0, 0.0, plan.last_end_s() + 1.0};
  for (const sim::FaultSpec& spec : plan.specs()) {
    for (const double edge : {spec.start_s, spec.end_s}) {
      times.insert(times.end(), {edge, std::nextafter(edge, -kInf),
                                 std::nextafter(edge, kInf)});
    }
  }
  std::size_t hits = 0;
  for (int k = 0; k <= static_cast<int>(sim::FaultKind::kChannelCorrupt);
       ++k) {
    const auto kind = static_cast<sim::FaultKind>(k);
    for (int target = -1; target <= max_target + 1; ++target) {
      for (const double now : times) {
        const sim::FaultSpec* expected = scan_active(plan, kind, target, now);
        ASSERT_EQ(plan.active(kind, target, now), expected)
            << label << ": kind " << sim::fault_kind_name(kind) << " target "
            << target << " now " << now;
        hits += expected != nullptr;
      }
    }
  }
  if (!plan.empty()) {
    EXPECT_GT(hits, 0u) << label;
  }
}

TEST(FaultPlanIndex, RandomPlansWithEveryKindMatchTheScan) {
  sim::RandomPlanOptions opts;
  opts.cpus = 8;
  opts.nodes = 6;
  opts.duration_s = 4.0;
  opts.max_faults = 24;
  opts.cluster_faults = true;
  opts.coordinator_faults = true;
  opts.transport_faults = true;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const sim::FaultPlan plan = sim::FaultPlan::random(seed, opts);
    expect_index_matches_scan(plan, 8, "random seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

TEST(FaultPlanIndex, MixedWildcardAndTargetedSpecsMatchTheScan) {
  // One kind's wildcard and targeted specs interleaved in plan order with
  // overlapping windows (including an empty one), other kinds between
  // them, the same target repeated and a wildcard opening inside a
  // targeted window.
  sim::FaultPlan added(11);
  using K = sim::FaultKind;
  added.add({K::kNodeCrash, 1.0, 3.0, 2, 0.0});
  added.add({K::kChannelLoss, 0.0, 5.0, -1, 0.5});
  added.add({K::kNodeCrash, 0.5, 2.0, -1, 0.0});
  added.add({K::kNodeCrash, 1.5, 4.0, 2, 0.0});
  added.add({K::kNodeCrash, 2.0, 2.0, 3, 0.0});
  added.add({K::kChannelLoss, 1.0, 2.0, 4, 0.9});
  added.add({K::kNodeCrash, 0.0, 10.0, 0, 0.0});
  added.add({K::kNodeCrash, 2.5, 6.0, -1, 0.0});
  added.add({K::kCoordinatorCrash, 1.0, 1.5, 1, 0.0});
  added.add({K::kNodeCrash, 0.25, 0.75, 2, 0.0});
  expect_index_matches_scan(added, 5, "added");

  std::istringstream text(
      "seed 4\n"
      "channel_corrupt 0.5 1.5 node=1 p=0.5\n"
      "channel_corrupt 0.0 1.0 p=0.2\n"
      "actuation_reject 0.2 0.9 cpu=3\n"
      "channel_corrupt 1.0 2.0 node=1 p=0.7\n"
      "channel_corrupt 0.75 1.25 p=0.1\n"
      "channel_corrupt 0.1 0.3 node=0 p=0.9\n"
      "actuation_reject 0.0 0.5\n"
      "actuation_reject 0.4 0.6 cpu=3\n");
  const sim::FaultPlan parsed = sim::FaultPlan::parse(text);
  ASSERT_EQ(parsed.size(), 8u);
  expect_index_matches_scan(parsed, 4, "parsed");
}

TEST(FaultPlanIndex, CopiesOutliveTheOriginal) {
  // The index holds positions, not pointers: a copy answers from its own
  // specs after the original is gone (ASan catches a dangling index).
  sim::FaultPlan copy;
  {
    sim::FaultPlan original(5);
    original.add({sim::FaultKind::kNodeCrash, 0.0, 1.0, 3, 0.0});
    original.add({sim::FaultKind::kNodeCrash, 0.0, 1.0, -1, 0.0});
    copy = original;
  }
  const sim::FaultSpec* hit = copy.active(sim::FaultKind::kNodeCrash, 3, 0.5);
  ASSERT_EQ(hit, &copy.specs()[0]);
  EXPECT_EQ(copy.active(sim::FaultKind::kNodeCrash, 7, 0.5), &copy.specs()[1]);
  expect_index_matches_scan(copy, 4, "copy");
}

TEST(FaultPlanParser, RejectsTargetBelowMinusOneWithLineNumber) {
  std::istringstream ok("node_crash 0.1 0.2 node=-1\nnode_crash 0 1 node=0\n");
  EXPECT_EQ(sim::FaultPlan::parse(ok).size(), 2u);
  std::istringstream bad("seed 1\nnode_crash 0.1 0.2 node=-3\n");
  try {
    sim::FaultPlan::parse(bad);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("-3"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fvsst
