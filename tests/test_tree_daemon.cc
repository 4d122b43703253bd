// test_tree_daemon - The hierarchical coordinator tree: the headline
// guarantee that shard count and thread count are invisible
// (bit-identical journals and final core state), under clean runs and
// under chaos; golden digests of whole runs; plus failover, fail-safe,
// monitor-input and validation behavior.
#include "core/tree_daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "run_bytes.h"
#include "simkit/event_log.h"
#include "simkit/fault_plan.h"
#include "simkit/monitor.h"
#include "workload/synthetic.h"

namespace fvsst {
namespace {

struct Scenario {
  const char* name;
  bool standby = false;
  double failsafe_factor = 0.0;
  cluster::TransportMode transport = cluster::TransportMode::kDatagram;
  std::vector<sim::FaultSpec> faults = {};
};

struct RunShape {
  std::size_t shards;
  int threads;
};

struct RunResult {
  std::string digest;     ///< Journal + final core state + counters.
  std::size_t rounds = 0;
  cluster::Epoch epoch = 1;
  std::size_t failsafe_shards = 0;
  /// (CPU power, effective budget) in W at each requested probe time.
  std::vector<std::pair<double, double>> probes;
};

/// Runs the 12-node scenario for `duration` s; the budget drops to 35% of
/// peak at 0.9 s.  After the events due at each of `probe_times`, records
/// the cluster's CPU power and the budget.
RunResult run_tree(const Scenario& sc, const RunShape& shape,
                   double duration = 2.5,
                   const std::vector<double>& probe_times = {}) {
  sim::Simulation sim;
  sim::Rng rng(23);
  const mach::MachineConfig machine = mach::p630();
  constexpr std::size_t kNodes = 12;
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, kNodes, rng);
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(90.0, 1e12));
  cluster.core({5, 1}).add_workload(
      workload::make_uniform_synthetic(60.0, 1e12));
  cluster.core({11, 0}).add_workload(
      workload::make_uniform_synthetic(25.0, 1e12));

  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  sim.schedule_at(0.9, [&] { budget.set_limit_w(peak * 0.35); });

  sim::FaultPlan plan(5);
  for (const sim::FaultSpec& f : sc.faults) plan.add(f);

  sim::EventLog journal;
  core::TreeDaemonConfig cfg;
  cfg.shards = shape.shards;
  cfg.step_threads = shape.threads;
  cfg.journal = &journal;
  if (!plan.empty()) cfg.fault_plan = &plan;
  cfg.standby_root = sc.standby;
  cfg.failsafe_factor = sc.failsafe_factor;
  cfg.transport = sc.transport;
  core::TreeDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
  RunResult out;
  for (const double t : probe_times) {
    sim.run_until(t);
    out.probes.emplace_back(cluster.cpu_power_w(), budget.effective_limit_w());
  }
  sim.run_until(duration);

  out.rounds = daemon.rounds();
  out.epoch = daemon.epoch();
  out.failsafe_shards = daemon.failsafe_shard_count();

  std::ostringstream digest;
  sim::write_jsonl(digest, journal);
  for (const auto& addr : cluster.all_procs()) {
    auto& core = cluster.core(addr);
    char buf[160];
    std::snprintf(buf, sizeof buf, "core %zu.%zu hz=%.17g instr=%.17g\n",
                  addr.node, addr.cpu, core.frequency_hz(),
                  core.instructions_retired());
    digest << buf;
  }
  // Note: summaries_sent() is *not* part of the digest — more shards send
  // more (identical-sum) summaries per round by design.
  digest << "rounds=" << daemon.rounds() << " epoch=" << daemon.epoch()
         << '\n';
  out.digest = digest.str();
  return out;
}

// --- Shard/thread invariance ----------------------------------------------

/// Scenarios whose default journal is shard-invariant: faults (if any)
/// target node indices or root coordinators 0/1, never a specific shard's
/// leaf coordinator or a transport channel keyed by shard id.
class TreeInvariance : public ::testing::TestWithParam<Scenario> {};

TEST_P(TreeInvariance, ShardAndThreadAreInvisible) {
  const Scenario& sc = GetParam();
  const RunResult ref = run_tree(sc, {1, 1});
  ASSERT_FALSE(ref.digest.empty());
  ASSERT_GT(ref.rounds, 0u);
  const RunShape shapes[] = {{4, 1}, {4, 4}, {16, 8}, {16, 2}};
  for (const RunShape& shape : shapes) {
    const RunResult got = run_tree(sc, shape);
    EXPECT_EQ(ref.digest, got.digest)
        << sc.name << ": shards=" << shape.shards
        << " threads=" << shape.threads << " changed the simulation";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, TreeInvariance,
    ::testing::Values(
        Scenario{"budget_step"},
        Scenario{"node_crash",
                 false,
                 0.0,
                 cluster::TransportMode::kDatagram,
                 {{sim::FaultKind::kNodeCrash, 0.55, 1.45, 3, 0.0}}},
        Scenario{"root_crash_failsafe",
                 false,
                 2.0,
                 cluster::TransportMode::kDatagram,
                 {{sim::FaultKind::kCoordinatorCrash, 0.55, 1.45, 0, 0.0}}},
        // The budget drops while every shard is in the fail-safe.
        Scenario{"root_outage_budget_drop_failsafe",
                 false,
                 2.0,
                 cluster::TransportMode::kDatagram,
                 {{sim::FaultKind::kCoordinatorCrash, 0.55, 2.6, 0, 0.0}}},
        Scenario{"root_partition_standby",
                 true,
                 0.0,
                 cluster::TransportMode::kDatagram,
                 {{sim::FaultKind::kPartition, 0.55, 1.75, 0, 0.0}}}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

// --- Fixed-shard chaos ----------------------------------------------------

/// Faults keyed by shard-dependent ids (leaf coordinators, per-child
/// transport draws) change the default journal when the shard count
/// changes — but threads must stay invisible at any fixed shard count.
class TreeFixedShardChaos : public ::testing::TestWithParam<Scenario> {};

TEST_P(TreeFixedShardChaos, ThreadsAreInvisibleAtFixedShards) {
  const Scenario& sc = GetParam();
  const RunResult ref = run_tree(sc, {4, 1});
  ASSERT_GT(ref.rounds, 0u);
  for (const RunShape& shape : {RunShape{4, 2}, RunShape{4, 8}}) {
    const RunResult got = run_tree(sc, shape);
    EXPECT_EQ(ref.digest, got.digest)
        << sc.name << ": threads=" << shape.threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, TreeFixedShardChaos,
    ::testing::Values(
        Scenario{"leaf_coordinator_crash",
                 false,
                 2.0,
                 cluster::TransportMode::kDatagram,
                 // Target 2 + s: shard 1's leaf coordinator.
                 {{sim::FaultKind::kCoordinatorCrash, 0.55, 1.45, 3, 0.0}}},
        Scenario{"reliable_corrupt_channel",
                 false,
                 0.0,
                 cluster::TransportMode::kReliable,
                 {{sim::FaultKind::kChannelCorrupt, 0.35, 1.35, -1, 0.4}}},
        Scenario{"standby_plus_node_crash",
                 true,
                 2.0,
                 cluster::TransportMode::kDatagram,
                 {{sim::FaultKind::kCoordinatorCrash, 0.55, 2.6, 0, 0.0},
                  {sim::FaultKind::kNodeCrash, 0.8, 1.3, 7, 0.0}}}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

TEST(TreeDaemon, LeafOutageLossesNameTheirCause) {
  // A grant reaching a downed leaf coordinator is lost to the protocol,
  // not the channel: the journal names the crash or the partition (crash
  // first, as the flat daemon checks), never the fault shim's "fault".
  // Targets 2 + s are shard s's leaf coordinator.
  const Scenario sc{"leaf_outages",
                    false,
                    0.0,
                    cluster::TransportMode::kDatagram,
                    {{sim::FaultKind::kCoordinatorCrash, 0.35, 0.75, 3, 0.0},
                     {sim::FaultKind::kPartition, 0.35, 0.75, 3, 0.0},
                     {sim::FaultKind::kPartition, 1.15, 1.55, 4, 0.0}}};
  const std::string journal = run_tree(sc, {4, 1}).digest;
  const auto count = [&journal](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = journal.find(needle); at != std::string::npos;
         at = journal.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"type\":\"message_lost\",\"node\":1,\"direction\":"
                  "\"down\",\"cause\":\"coordinator_crash\""),
            4u);
  EXPECT_EQ(count("\"type\":\"message_lost\",\"node\":2,\"direction\":"
                  "\"down\",\"cause\":\"partition\""),
            4u);
  EXPECT_EQ(count("\"type\":\"message_lost\""), 8u);
}

// --- Golden whole-daemon runs ----------------------------------------------

/// One 12-node, 4-shard tree run whose journal, telemetry and final core
/// state must reproduce a digest recorded by building these cases against
/// commit d0b8af3, where each daemon journalled its transports' events
/// through its own callbacks.  The two "reliable protocol chaos" digests
/// were re-recorded when a grant reaching a downed leaf coordinator began
/// naming its cause (coordinator_crash) instead of "fault": their bytes
/// are the earlier ones with the 4 message_lost causes of shard 1's
/// 1.6-1.9 s crash substituted, nothing else.
struct GoldenCase {
  const char* name = "";
  const char* digest = "";
  const char* marker = "";  ///< Proof the case exercised what it names.
  cluster::TransportMode transport = cluster::TransportMode::kDatagram;
  bool standby = false;
  double failsafe_factor = 0.0;
  bool journal_topology = false;
  std::vector<sim::FaultSpec> faults = {};
};

void run_golden(const GoldenCase& c, int threads) {
  sim::Simulation sim;
  sim::Rng rng(23);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 12, rng);
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(90.0, 1e12));
  cluster.core({5, 1}).add_workload(
      workload::make_uniform_synthetic(60.0, 1e12));
  cluster.core({9, 3}).add_workload(
      workload::make_uniform_synthetic(75.0, 6e8));
  cluster.core({11, 0}).add_workload(
      workload::make_uniform_synthetic(25.0, 1e12));
  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  sim.schedule_at(0.9, [&] { budget.set_limit_w(peak * 0.35); });
  sim.schedule_at(1.7037, [&] { budget.set_limit_w(peak * 0.5); });
  sim::FaultPlan plan(5);
  for (const sim::FaultSpec& f : c.faults) plan.add(f);

  sim::EventLog journal;
  core::TreeDaemonConfig cfg;
  cfg.shards = 4;
  cfg.step_threads = threads;
  cfg.journal = &journal;
  if (!plan.empty()) cfg.fault_plan = &plan;
  cfg.transport = c.transport;
  cfg.standby_root = c.standby;
  cfg.failsafe_factor = c.failsafe_factor;
  cfg.journal_topology = c.journal_topology;
  core::TreeDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
  sim.run_for(2.5);

  std::string bytes = run_bytes(journal, &daemon.telemetry());
  for (const auto& addr : cluster.all_procs()) {
    auto& core = cluster.core(addr);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "core %zu.%zu hz=%.17g instr=%.17g cycles=%.17g\n",
                  addr.node, addr.cpu, core.frequency_hz(),
                  core.instructions_retired(), core.read_counters().cycles);
    bytes += buf;
  }
  EXPECT_EQ(fnv1a64_hex(bytes), c.digest);
  EXPECT_NE(bytes.find(c.marker), std::string::npos) << c.marker;
}

/// Every transport-level channel fault, hitting every hop.
std::vector<sim::FaultSpec> channel_chaos() {
  using sim::FaultKind;
  return {{FaultKind::kChannelLoss, 0.3, 1.2, -1, 0.3},
          {FaultKind::kChannelReorder, 0.4, 1.7, -1, 0.3},
          {FaultKind::kChannelDuplicate, 0.6, 1.8, -1, 0.2},
          {FaultKind::kChannelDelaySpike, 0.7, 1.1, 2, 0.004},
          {FaultKind::kChannelCorrupt, 1.0, 1.6, -1, 0.2}};
}

/// channel_chaos() plus a primary-root crash (the standby takes over), a
/// crash of shard 1's leaf coordinator (target 2 + 1) and a node crash.
std::vector<sim::FaultSpec> protocol_chaos() {
  using sim::FaultKind;
  std::vector<sim::FaultSpec> faults = channel_chaos();
  faults.push_back({FaultKind::kCoordinatorCrash, 0.55, 1.45, 0, 0.0});
  faults.push_back({FaultKind::kCoordinatorCrash, 1.6, 1.9, 3, 0.0});
  faults.push_back({FaultKind::kNodeCrash, 0.8, 1.3, 7, 0.0});
  return faults;
}

TEST(Golden, TreeDaemon) {
  using cluster::TransportMode;
  const GoldenCase cases[] = {
      {.name = "fault-free budget drop", .digest = "dd2d519ace7ad310",
       .marker = "\"trigger\":\"budget\""},
      {.name = "datagram channel chaos", .digest = "fe47153506a59fdf",
       .marker = "\"type\":\"message_corrupt\"",
       .faults = channel_chaos()},
      {.name = "reliable protocol chaos", .digest = "648000437d24dd1c",
       .marker = "\"type\":\"message_retransmit\"",
       .transport = TransportMode::kReliable, .standby = true,
       .failsafe_factor = 3.0, .faults = protocol_chaos()},
      {.name = "reliable protocol chaos, topology journal",
       .digest = "f76cf28121969e46",
       .marker = "\"stage\":\"shard_apply\"",
       .transport = TransportMode::kReliable, .standby = true,
       .failsafe_factor = 3.0, .journal_topology = true,
       .faults = protocol_chaos()},
  };
  for (const GoldenCase& c : cases) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.name) + ", threads " +
                   std::to_string(threads));
      run_golden(c, threads);
    }
  }
}

// --- Monitor inputs ---------------------------------------------------------

/// Alert transitions of one monitored 12-node tree run under the default
/// rule pack.
struct MonitoredRun {
  /// (time, "raised" | "cleared") per transition of the named rule.
  std::vector<std::pair<double, std::string>> transitions(
      const std::string& rule) const {
    std::vector<std::pair<double, std::string>> out;
    for (const sim::Event& e : journal.events()) {
      const bool raised = e.type == sim::EventType::kAlertRaised;
      if (!raised && e.type != sim::EventType::kAlertCleared) continue;
      const std::string* name = e.find_str("rule");
      if (name && *name == rule) {
        out.emplace_back(e.t, raised ? "raised" : "cleared");
      }
    }
    return out;
  }

  sim::EventLog journal;
  std::unique_ptr<sim::monitor::Monitor> monitor;
};

std::unique_ptr<MonitoredRun> run_monitored(
    const std::vector<sim::FaultSpec>& faults,
    cluster::TransportMode transport = cluster::TransportMode::kDatagram) {
  auto run = std::make_unique<MonitoredRun>();
  sim::monitor::Monitor::Options options;
  options.journal = &run->journal;
  run->monitor = std::make_unique<sim::monitor::Monitor>(
      sim::monitor::RuleSet::parse_string(sim::monitor::default_rule_pack()),
      options);
  sim::Simulation sim;
  sim::Rng rng(23);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 12, rng);
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(90.0, 1e12));
  cluster.core({5, 1}).add_workload(
      workload::make_uniform_synthetic(60.0, 1e12));
  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  // Off the summary lattice: the budget-triggered round decides 43.7 ms
  // after the summaries it reuses.
  sim.schedule_at(0.9437, [&] { budget.set_limit_w(peak * 0.35); });
  sim::FaultPlan plan(5);
  for (const sim::FaultSpec& f : faults) plan.add(f);
  core::TreeDaemonConfig cfg;
  cfg.shards = 4;
  cfg.journal = &run->journal;
  cfg.monitor = run->monitor.get();
  cfg.transport = transport;
  if (!plan.empty()) cfg.fault_plan = &plan;
  core::TreeDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
  sim.run_for(3.0);
  return run;
}

TEST(TreeMonitor, FaultFreeRunRaisesNoAggregationLag) {
  // A grant lands 4 link hops (0.4 ms) after the summary instant it
  // answers, and a budget-triggered one 2 hops after the budget change,
  // far under the rule's 5 ms.
  const auto run = run_monitored({});
  EXPECT_TRUE(run->transitions("aggregation_lag").empty());
  EXPECT_EQ(run->monitor->alerts_raised(), 0u);
}

TEST(TreeMonitor, DelaySpikeRaisesAggregationLagAndClearsAfter) {
  // A 20 ms spike on every hop delays each grant by 40 ms on its way
  // down: the lag alert must raise inside the window and clear after it.
  const auto run = run_monitored(
      {{sim::FaultKind::kChannelDelaySpike, 1.0, 1.5, -1, 0.020}});
  const auto lag = run->transitions("aggregation_lag");
  ASSERT_EQ(lag.size(), 2u);
  EXPECT_EQ(lag[0].second, "raised");
  EXPECT_GT(lag[0].first, 1.0);
  EXPECT_LT(lag[0].first, 1.5);
  EXPECT_EQ(lag[1].second, "cleared");
  EXPECT_GT(lag[1].first, 1.5);
}

TEST(TreeMonitor, ChannelLossRaisesMessageLossAndRetransmitStorm) {
  // The same plan makes the flat daemon raise both rules; the tree feeds
  // the same inputs from its four hops' transports.
  const auto run =
      run_monitored({{sim::FaultKind::kChannelLoss, 0.3, 2.5, -1, 0.3}},
                    cluster::TransportMode::kReliable);
  const auto loss = run->transitions("message_loss");
  ASSERT_FALSE(loss.empty());
  EXPECT_EQ(loss.front().second, "raised");
  EXPECT_FALSE(run->transitions("retransmit_storm").empty());
}

TEST(TreeMonitor, OverBudgetInputIsNeverNegative) {
  // over_budget_w is max(0, draw - limit): a cluster well under its
  // budget reads 0, so every quantile the --metrics-out snapshot exposes
  // is non-negative.
  const auto run = run_monitored({});
  const sim::monitor::InputId id = run->monitor->input("over_budget_w");
  ASSERT_GT(run->monitor->input_count(id), 0u);
  for (std::size_t k = 0; k < run->monitor->sketch_quantiles().size(); ++k) {
    EXPECT_GE(run->monitor->input_quantile(id, k), 0.0) << "quantile " << k;
  }
}

// --- Protocol behavior ----------------------------------------------------

TEST(TreeDaemon, StandbyTakesOverAfterRootCrash) {
  Scenario sc{"takeover"};
  sc.standby = true;
  sc.faults = {{sim::FaultKind::kCoordinatorCrash, 0.55, 2.6, 0, 0.0}};
  const RunResult r = run_tree(sc, {4, 1});
  // The standby claimed a higher epoch and kept rounds flowing through
  // the outage (the crash window covers the rest of the run).
  EXPECT_GT(r.epoch, 1u);
  EXPECT_GT(r.rounds, 15u);
}

TEST(TreeDaemon, ShardsDropToFailsafeWhenRootSilent) {
  Scenario sc{"failsafe"};
  sc.failsafe_factor = 2.0;
  sc.faults = {{sim::FaultKind::kCoordinatorCrash, 0.55, 2.6, 0, 0.0}};
  const RunResult r = run_tree(sc, {4, 1});
  // No standby: every shard should be running its autonomous fail-safe
  // frequency at the end of the run.
  EXPECT_EQ(r.failsafe_shards, 4u);
}

TEST(TreeDaemon, FailsafeShardsFollowABudgetDropDuringARootOutage) {
  // The root is down from 0.55 s to past the end, so every shard enters
  // the fail-safe at 0.8 s with the pre-drop share (the table maximum).
  // The budget drop at 0.9 s reaches the shards as a broadcast, not a
  // grant: from the next summary instant on, the cluster must draw no
  // more than the new budget (the fail-safe used to keep the old share).
  Scenario sc{"failsafe_budget_drop"};
  sc.failsafe_factor = 2.0;
  sc.faults = {{sim::FaultKind::kCoordinatorCrash, 0.55, 2.6, 0, 0.0}};
  std::vector<double> probe_times;
  for (int k = 10; k <= 25; ++k) probe_times.push_back(0.1 * k);
  for (const RunShape shape :
       {RunShape{1, 1}, RunShape{4, 1}, RunShape{16, 4}}) {
    SCOPED_TRACE(std::to_string(shape.shards) + " shards");
    const RunResult r = run_tree(sc, shape, 2.5, probe_times);
    EXPECT_EQ(r.failsafe_shards, std::min<std::size_t>(shape.shards, 12));
    ASSERT_EQ(r.probes.size(), probe_times.size());
    for (std::size_t i = 0; i < probe_times.size(); ++i) {
      const auto [power_w, budget_w] = r.probes[i];
      EXPECT_DOUBLE_EQ(budget_w, 2352.0);
      EXPECT_LE(power_w, budget_w) << "at t=" << probe_times[i];
    }
  }
}

TEST(TreeDaemon, RecoversFromFailsafeWhenRootReturns) {
  Scenario sc{"failsafe_recovery"};
  sc.failsafe_factor = 2.0;
  sc.faults = {{sim::FaultKind::kCoordinatorCrash, 0.55, 1.45, 0, 0.0}};
  const RunResult r = run_tree(sc, {4, 1});
  EXPECT_EQ(r.failsafe_shards, 0u);
  EXPECT_GT(r.rounds, 10u);
}

TEST(TreeDaemon, RejectsHeterogeneousClusters) {
  sim::Simulation sim;
  sim::Rng rng(7);
  const mach::MachineConfig machine = mach::p630();
  std::vector<mach::MachineConfig> configs(3, machine);
  configs[2] = mach::derated(machine, 600e6);
  cluster::Cluster cluster =
      cluster::Cluster::heterogeneous(sim, configs, rng);
  power::PowerBudget budget(1000.0);
  core::TreeDaemonConfig cfg;
  EXPECT_THROW(core::TreeDaemon(sim, cluster, machine.freq_table, budget,
                                cfg),
               std::invalid_argument);
}

TEST(TreeDaemon, CapsClusterUnderBudgetWithinOneRound) {
  Scenario sc{"caps"};
  const RunResult r = run_tree(sc, {4, 1});
  EXPECT_GT(r.rounds, 20u);
  EXPECT_EQ(r.epoch, 1u);

  // Re-run and inspect the cluster state directly: the post-step budget
  // (35% of peak) must be respected by the granted frequencies.
  sim::Simulation sim;
  sim::Rng rng(23);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 12, rng);
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(90.0, 1e12));
  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  sim.schedule_at(0.9, [&] { budget.set_limit_w(peak * 0.35); });
  core::TreeDaemonConfig cfg;
  cfg.shards = 4;
  core::TreeDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
  sim.run_for(2.5);
  double power = 0.0;
  for (const auto& addr : cluster.all_procs()) {
    power += machine.freq_table.power(cluster.core(addr).frequency_hz());
  }
  EXPECT_LE(power, budget.effective_limit_w() + 1e-6);
}

}  // namespace
}  // namespace fvsst
