// test_journal_checker - sim::JournalChecker against the map-based checker
// it replaced (journal_checker_reference.h): the same report, field by
// field, on journals from all three daemons, on a crafted violation of
// each of the six checks, on seeded random journals, and on the journal
// shapes the array-indexed state has to get right (duplicate table
// points, a decision before any table, cpu -1, ids far outside the dense
// range).  Plus the rules only the new checker has: a node_apply whose
// node is not an integer in [-1, 2^31 - 1] is reported, not merged, and so
// is a run_meta whose nodes is not an integer in [0, 2^31 - 1]; and the
// JSONL reader refuses a cpu that is not an integer in [-1, 2^31 - 1].
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/cluster_daemon.h"
#include "core/daemon.h"
#include "core/tree_daemon.h"
#include "journal_checker_reference.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "simkit/event_log.h"
#include "simkit/fault_plan.h"
#include "simkit/rng.h"
#include "workload/synthetic.h"

namespace fvsst {
namespace {

using sim::EventType;
using sim::FaultKind;

sim::JournalCheckReport check_new(const sim::EventLog& log) {
  sim::JournalChecker checker;
  for (const sim::Event& e : log.events()) checker.observe(e);
  return checker.finish();
}

sim::JournalCheckReport check_reference(const sim::EventLog& log) {
  sim::ReferenceJournalChecker checker;
  for (const sim::Event& e : log.events()) checker.observe(e);
  return checker.finish();
}

/// Both checkers' reports on `log`, field by field; returns the report so
/// callers can require that the journal exercised what it is named for.
sim::JournalCheckReport expect_same_report(const sim::EventLog& log) {
  const sim::JournalCheckReport want = check_reference(log);
  const sim::JournalCheckReport got = check_new(log);
  EXPECT_EQ(got.checks_run, want.checks_run);
  EXPECT_EQ(got.skipped, want.skipped);
  EXPECT_EQ(got.violations, want.violations);
  return want;
}

// --- Daemon journals ---------------------------------------------------------

std::vector<sim::FaultSpec> channel_chaos() {
  return {{FaultKind::kChannelLoss, 0.3, 1.2, -1, 0.3},
          {FaultKind::kChannelReorder, 0.4, 1.7, -1, 0.3},
          {FaultKind::kChannelDuplicate, 0.6, 1.8, -1, 0.2},
          {FaultKind::kChannelDelaySpike, 0.7, 1.1, 2, 0.004},
          {FaultKind::kChannelCorrupt, 1.0, 1.6, -1, 0.2}};
}

TEST(JournalCheckerDifferential, SmpExplainJournals) {
  for (const double budget_w : {560.0, 300.0}) {
    sim::Simulation sim;
    sim::Rng rng(4242);
    const mach::MachineConfig machine = mach::p630();
    cluster::Cluster cluster =
        cluster::Cluster::homogeneous(sim, machine, 1, rng);
    cluster.core({0, 0}).add_workload(
        workload::make_uniform_synthetic(100.0, 1e12));
    cluster.core({0, 2}).add_workload(
        workload::make_uniform_synthetic(40.0, 1e12));
    power::PowerBudget budget(budget_w);
    sim.schedule_at(1.0123, [&] { budget.set_limit_w(budget_w * 0.5); });
    sim::FaultPlan plan(11);
    plan.add({FaultKind::kActuationReject, 0.5, 0.8, 1, 0.0});
    sim::EventLog journal;
    core::DaemonConfig config;
    config.journal = &journal;
    config.scheduler.explain = true;
    config.fault_plan = &plan;
    core::FvsstDaemon daemon(sim, cluster, machine.freq_table, budget,
                             config);
    sim.run_for(2.0);
    SCOPED_TRACE(budget_w);
    const auto report = expect_same_report(journal);
    EXPECT_GT(report.checks_run, 100u);
  }
}

/// A 6-node flat run; `chaos` adds the standby, the node fail-safe, the
/// reliable transport and a plan of channel faults, a primary crash and a
/// node crash, so checks 4-6 all run.
sim::EventLog flat_journal(bool chaos, double channel_loss) {
  sim::Simulation sim;
  sim::Rng rng(23);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 6, rng);
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(90.0, 1e12));
  cluster.core({3, 1}).add_workload(
      workload::make_uniform_synthetic(60.0, 1e12));
  cluster.core({5, 3}).add_workload(
      workload::make_uniform_synthetic(75.0, 6e8));
  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  sim.schedule_at(0.9, [&] { budget.set_limit_w(peak * 0.35); });
  sim.schedule_at(1.7037, [&] { budget.set_limit_w(peak * 0.5); });
  sim::FaultPlan plan(5);
  core::ClusterDaemonConfig cfg;
  sim::EventLog journal;
  cfg.journal = &journal;
  cfg.channel_loss_probability = channel_loss;
  if (chaos) {
    for (const sim::FaultSpec& f : channel_chaos()) plan.add(f);
    plan.add({FaultKind::kCoordinatorCrash, 0.55, 1.45, 0, 0.0});
    plan.add({FaultKind::kNodeCrash, 0.8, 1.3, 4, 0.0});
    cfg.fault_plan = &plan;
    cfg.failover.standby = true;
    cfg.failover.node_failsafe_factor = 3.0;
    cfg.transport = cluster::TransportMode::kReliable;
  }
  core::ClusterDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
  sim.run_for(3.0);
  return journal;
}

TEST(JournalCheckerDifferential, FlatJournals) {
  {
    SCOPED_TRACE("standby, fail-safe, reliable chaos");
    const sim::EventLog journal = flat_journal(true, 0.0);
    const auto report = expect_same_report(journal);
    EXPECT_GT(report.checks_run, 100u);
    // Every check that needs run_meta declarations ran.
    for (const std::string& s : report.skipped) {
      EXPECT_EQ(s.find("epoch-fence"), std::string::npos) << s;
      EXPECT_EQ(s.find("failover-window check: journal does not"),
                std::string::npos)
          << s;
      EXPECT_EQ(s.find("transport-convergence check: journal does not"),
                std::string::npos)
          << s;
    }
  }
  {
    SCOPED_TRACE("datagram, channel loss");
    expect_same_report(flat_journal(false, 0.3));
  }
}

TEST(JournalCheckerDifferential, TreeTopologyJournal) {
  sim::Simulation sim;
  sim::Rng rng(23);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 12, rng);
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(90.0, 1e12));
  cluster.core({9, 3}).add_workload(
      workload::make_uniform_synthetic(75.0, 6e8));
  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  sim.schedule_at(0.9, [&] { budget.set_limit_w(peak * 0.35); });
  sim::FaultPlan plan(5);
  for (const sim::FaultSpec& f : channel_chaos()) plan.add(f);
  plan.add({FaultKind::kCoordinatorCrash, 0.55, 1.45, 0, 0.0});
  plan.add({FaultKind::kCoordinatorCrash, 1.6, 1.9, 3, 0.0});
  sim::EventLog journal;
  core::TreeDaemonConfig cfg;
  cfg.shards = 4;
  cfg.journal = &journal;
  cfg.fault_plan = &plan;
  cfg.transport = cluster::TransportMode::kReliable;
  cfg.standby_root = true;
  cfg.failsafe_factor = 3.0;
  cfg.journal_topology = true;
  core::TreeDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
  sim.run_for(2.5);
  const auto report = expect_same_report(journal);
  EXPECT_GT(report.checks_run, 0u);
}

// --- Crafted journals --------------------------------------------------------

void table_point(sim::EventLog& log, int cpu, double hz, double volts) {
  log.append(0.0, EventType::kTablePoint, cpu).set("hz", hz).set("volts",
                                                                  volts);
}

void node_apply(sim::EventLog& log, double t, double node, double epoch,
                double seq, double cluster_power_w) {
  log.append(t, EventType::kActuation)
      .set("node", node)
      .set("cluster_power_w", cluster_power_w)
      .set("epoch", epoch)
      .set("seq", seq)
      .set("stage", std::string("node_apply"));
}

TEST(JournalCheckerDifferential, CraftedViolationOfEachCheck) {
  sim::EventLog log;
  log.append(0.0, EventType::kRunMeta)
      .set("t_sample_s", 0.01)
      .set("multiplier", 10.0)
      .set("t_restarts", 1.0)
      .set("failover_window_s", 0.2)
      .set("convergence_window_s", 0.3)
      .set("nodes", 3.0);
  table_point(log, 0, 1e9, 1.3);
  table_point(log, 0, 5e8, 1.1);
  // 1. A feasible actuation over its budget.
  log.append(0.1, EventType::kActuation)
      .set("total_power_w", 180.0)
      .set("budget_w", 140.0)
      .set("feasible", 1.0);
  // 2. Off the table's voltage, and off its frequency grid.
  log.append(0.1, EventType::kDecision, 0)
      .set("granted_hz", 5e8)
      .set("volts", 1.3);
  log.append(0.1, EventType::kDecision, 0)
      .set("granted_hz", 7e8)
      .set("volts", 1.2);
  // 3. A timer cycle too soon after a budget cycle.
  log.append(0.15, EventType::kCycleStart).set("trigger", std::string("budget"));
  log.append(0.2, EventType::kCycleStart).set("trigger", std::string("timer"));
  // 4. A regressing announcement, a deposed apply, an unannounced one.
  log.append(0.2, EventType::kEpochChange).set("epoch", 2.0).set("coordinator", 0.0);
  log.append(0.25, EventType::kEpochChange).set("epoch", 1.0).set("coordinator", 1.0);
  node_apply(log, 0.3, 0, 2.0, 1.0, 900.0);
  node_apply(log, 0.31, 0, 1.0, 2.0, 900.0);
  node_apply(log, 0.32, 1, 5.0, 1.0, 900.0);
  // 5. A budget drop whose window closes with the cluster still over.
  log.append(0.4, EventType::kBudgetChange).set("budget_w", 1000.0);
  log.append(0.5, EventType::kBudgetChange).set("budget_w", 500.0);
  node_apply(log, 0.8, 1, 5.0, 2.0, 900.0);
  // 6. A duplicate apply, then a disturbance node 2 never recovers from.
  node_apply(log, 0.9, 1, 5.0, 2.0, 400.0);
  log.append(1.0, EventType::kMessageLost).set("node", 2.0);
  node_apply(log, 1.1, 0, 2.0, 3.0, 400.0);
  node_apply(log, 1.2, 1, 5.0, 3.0, 400.0);
  log.append(2.0, EventType::kCycleStart).set("trigger", std::string("timer"));
  const auto report = expect_same_report(log);
  for (const char* needle :
       {"exceeds budget", "not the table minimum", "not an operating point",
        "T did not restart", "epoch regressed", "deposed epoch",
        "unannounced epoch", "failover window missed",
        "duplicate or stale apply", "bounded convergence missed"}) {
    bool found = false;
    for (const std::string& v : report.violations) {
      found = found || v.find(needle) != std::string::npos;
    }
    EXPECT_TRUE(found) << needle;
  }
}

TEST(JournalCheckerDifferential, TableShapes) {
  sim::EventLog log;
  // A decision before any table is skipped by check 2.
  log.append(0.0, EventType::kDecision, 0).set("granted_hz", 1e9).set("volts", 1.3);
  // Duplicate points: the last volts for an hz wins.  Points arrive out of
  // order, and tables live at cpu -1 (global), at a negative cpu and at
  // cpus far past the dense range.
  for (const int cpu : {0, -1, -7, 3, 5000000}) {
    table_point(log, cpu, 1e9, 1.2);
    table_point(log, cpu, 5e8, 1.1);
    table_point(log, cpu, 1e9, 1.3);
    table_point(log, cpu, 7.5e8, 1.15);
  }
  for (const int cpu : {0, -1, -7, 3, 5000000, 4}) {
    for (const double hz : {5e8, 7.5e8, 1e9, 6e8}) {
      for (const double volts : {1.1, 1.15, 1.2, 1.3}) {
        log.append(0.1, EventType::kDecision, cpu)
            .set("granted_hz", hz)
            .set("volts", volts);
      }
    }
  }
  // A decision missing its fields reads 0 Hz and 0 V.
  log.append(0.2, EventType::kDecision, 0);
  const auto report = expect_same_report(log);
  EXPECT_FALSE(report.violations.empty());
}

TEST(JournalCheckerDifferential, NodeIdsOutsideTheDenseRange) {
  sim::EventLog log;
  log.append(0.0, EventType::kRunMeta)
      .set("convergence_window_s", 0.3)
      .set("nodes", 3.0);
  for (const double node : {-1.0, 0.0, 2.0, 2000000.0, 2147483647.0}) {
    node_apply(log, 0.1, node, 1.0, 1.0, 100.0);
    node_apply(log, 0.2, node, 1.0, 1.0, 100.0);  // duplicate
    node_apply(log, 0.3, node, 0.0, 4.0, 100.0);  // deposed
  }
  // No node field: node -1.
  log.append(0.4, EventType::kActuation)
      .set("epoch", 1.0)
      .set("seq", 1.0)
      .set("stage", std::string("node_apply"));
  log.append(0.5, EventType::kMessageCorrupt).set("node", 0.0);
  node_apply(log, 0.6, 2000000.0, 1.0, 9.0, 100.0);
  node_apply(log, 0.7, 1.0, 1.0, 9.0, 100.0);
  log.append(1.5, EventType::kCycleStart).set("trigger", std::string("timer"));
  const auto report = expect_same_report(log);
  EXPECT_FALSE(report.violations.empty());
}

/// A random but well-formed journal: integer node ids, a few CPUs and
/// operating points, every event kind the checker reads, and payloads
/// that sometimes repeat a key (the first occurrence counts) or omit one.
sim::EventLog random_journal(std::uint64_t seed) {
  sim::Rng rng(seed);
  sim::EventLog log;
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return static_cast<double>(rng.uniform_int(lo, hi));
  };
  if (rng.bernoulli(0.9)) {
    auto& meta = log.append(0.0, EventType::kRunMeta);
    if (rng.bernoulli(0.7)) meta.set("t_sample_s", 0.01);
    if (rng.bernoulli(0.7)) meta.set("multiplier", pick(1, 10));
    if (rng.bernoulli(0.5)) meta.set("t_restarts", pick(0, 1));
    if (rng.bernoulli(0.6)) meta.set("failover_window_s", 0.1 * pick(0, 4));
    if (rng.bernoulli(0.6)) meta.set("convergence_window_s", 0.1 * pick(0, 5));
    if (rng.bernoulli(0.8)) meta.set("nodes", pick(0, 6));
  }
  double t = 0.0;
  const int events = static_cast<int>(rng.uniform_int(20, 300));
  for (int i = 0; i < events; ++i) {
    if (rng.bernoulli(0.5)) t += 0.01 * pick(0, 5);
    const int cpu = static_cast<int>(pick(-1, 4));
    switch (rng.uniform_int(0, 10)) {
      case 0:
        table_point(log, cpu, 2.5e8 * pick(1, 4), 1.0 + 0.1 * pick(0, 3));
        break;
      case 1:
      case 2: {
        auto& e = log.append(t, EventType::kDecision, cpu);
        if (rng.bernoulli(0.95)) e.set("granted_hz", 2.5e8 * pick(0, 5));
        if (rng.bernoulli(0.95)) e.set("volts", 1.0 + 0.1 * pick(0, 3));
        if (rng.bernoulli(0.1)) e.set("granted_hz", 1e9);
        break;
      }
      case 3:
        log.append(t, EventType::kCycleStart)
            .set("trigger", std::string(rng.bernoulli(0.5) ? "timer"
                                                            : "budget"));
        break;
      case 4:
        log.append(t, EventType::kEpochChange)
            .set("epoch", pick(0, 4))
            .set("coordinator", pick(0, 1));
        break;
      case 5:
        log.append(t, EventType::kBudgetChange).set("budget_w", 100.0 * pick(1, 9));
        break;
      case 6:
        log.append(t, rng.bernoulli(0.5) ? EventType::kMessageLost
                                         : EventType::kMessageExpired)
            .set("node", pick(-1, 6));
        break;
      case 7: {
        auto& e = log.append(t, EventType::kActuation);
        e.set("total_power_w", 100.0 * pick(1, 9));
        if (rng.bernoulli(0.8)) e.set("budget_w", 100.0 * pick(1, 9));
        if (rng.bernoulli(0.5)) e.set("feasible", pick(0, 1));
        break;
      }
      default: {
        auto& e = log.append(t, EventType::kActuation);
        if (rng.bernoulli(0.95)) e.set("node", pick(-1, 7));
        if (rng.bernoulli(0.9)) e.set("epoch", pick(0, 4));
        if (rng.bernoulli(0.8)) e.set("seq", pick(0, 6));
        if (rng.bernoulli(0.9)) e.set("cluster_power_w", 100.0 * pick(1, 9));
        if (rng.bernoulli(0.1)) e.set("epoch", pick(0, 4));
        if (rng.bernoulli(0.1)) e.set("node", pick(0, 7));
        e.set("stage", std::string(rng.bernoulli(0.9) ? "node_apply"
                                                       : "shard_apply"));
        break;
      }
    }
  }
  return log;
}

TEST(JournalCheckerDifferential, RandomJournals) {
  std::size_t violations = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    violations += expect_same_report(random_journal(seed)).violations.size();
  }
  EXPECT_GT(violations, 300u);
}

// --- The node-id rule ----------------------------------------------------------

TEST(JournalChecker, MalformedNodeIdsAreReportedNotMerged) {
  // Each of these nodes is out of int range or not an integer.  The
  // replaced checker cast them to int, merging the first three into one
  // node and reporting two bogus duplicate applies, and truncating 0.5
  // into node 0, whose own apply then read as a third.
  const std::string jsonl =
      "{\"t\":0,\"type\":\"run_meta\",\"convergence_window_s\":0.3,"
      "\"nodes\":1}\n"
      "{\"t\":0,\"type\":\"epoch_change\",\"epoch\":1,\"coordinator\":0}\n"
      "{\"t\":0.1,\"type\":\"actuation\",\"node\":1e300,\"epoch\":1,"
      "\"seq\":1,\"stage\":\"node_apply\"}\n"
      "{\"t\":0.2,\"type\":\"actuation\",\"node\":-1e300,\"epoch\":1,"
      "\"seq\":1,\"stage\":\"node_apply\"}\n"
      "{\"t\":0.3,\"type\":\"actuation\",\"node\":2147483648,\"epoch\":1,"
      "\"seq\":1,\"stage\":\"node_apply\"}\n"
      "{\"t\":0.4,\"type\":\"actuation\",\"node\":0.5,\"epoch\":1,"
      "\"seq\":1,\"stage\":\"node_apply\"}\n"
      "{\"t\":0.5,\"type\":\"actuation\",\"node\":0,\"epoch\":1,"
      "\"seq\":1,\"stage\":\"node_apply\"}\n";
  std::istringstream in(jsonl);
  sim::JournalChecker checker;
  std::size_t events = 0;
  sim::for_each_jsonl(in, [&](sim::Event&& e) {
    checker.observe(e);
    ++events;
  });
  ASSERT_EQ(events, 7u);
  const sim::JournalCheckReport report = checker.finish();
  EXPECT_EQ(report.violations,
            (std::vector<std::string>{
                "node_apply at t=0.1s names node 1e+300, not an integer "
                "node id in [-1, 2147483647]",
                "node_apply at t=0.2s names node -1e+300, not an integer "
                "node id in [-1, 2147483647]",
                "node_apply at t=0.3s names node 2147483648, not an integer "
                "node id in [-1, 2147483647]",
                "node_apply at t=0.4s names node 0.5, not an integer node "
                "id in [-1, 2147483647]"}));
  // Only node 0's apply joined any node's state: one epoch check and one
  // sequence check.
  EXPECT_EQ(report.checks_run, 3u);
}

/// fvsst_inspect --check's streaming path: read `jsonl` strictly, check it.
sim::JournalCheckReport check_jsonl(const std::string& jsonl) {
  std::istringstream in(jsonl);
  sim::JournalChecker checker;
  sim::for_each_jsonl(in, [&](sim::Event&& e) { checker.observe(e); });
  return checker.finish();
}

TEST(JournalChecker, MalformedNodeCountIsReportedNotCast) {
  // A channel disturbance and a later event with no node re-applying: a
  // run of 3 nodes misses bounded convergence at every node.  The replaced
  // cast turned nodes 3e9 into a count the loop never entered, so the same
  // journal read "OK: 0 check(s) run".
  const auto journal = [](const std::string& nodes) {
    return "{\"t\":0,\"type\":\"run_meta\",\"convergence_window_s\":0.3,"
           "\"nodes\":" + nodes + "}\n"
           "{\"t\":0.1,\"type\":\"message_lost\",\"node\":0}\n"
           "{\"t\":1,\"type\":\"cycle_start\",\"trigger\":\"timer\"}\n";
  };
  const sim::JournalCheckReport three = check_jsonl(journal("3"));
  EXPECT_EQ(three.violations.size(), 3u);
  EXPECT_EQ(three.checks_run, 3u);

  for (const char* bad : {"3e9", "2147483648", "-1", "2.5", "1e300"}) {
    SCOPED_TRACE(bad);
    const sim::JournalCheckReport report = check_jsonl(journal(bad));
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].rfind("run_meta at t=0s declares nodes ", 0),
              0u)
        << report.violations[0];
    EXPECT_NE(report.violations[0].find(
                  ", not an integer node count in [0, 2147483647]"),
              std::string::npos);
    EXPECT_EQ(report.checks_run, 0u);
  }
  EXPECT_EQ(check_jsonl(journal("3e9")).violations[0],
            "run_meta at t=0s declares nodes 3e+09, not an integer "
            "node count in [0, 2147483647]");
  // A run of no nodes has no node to miss convergence.
  EXPECT_TRUE(check_jsonl(journal("0")).ok());
}

TEST(JournalChecker, ConvergenceReportNamesSixteenMissesAndCountsTheRest) {
  // After one channel disturbance, 3 of the declared nodes re-apply in
  // time.  The report names the first 16 nodes that did not and counts
  // the others in one line, and still runs one check per declared node.
  // The replaced loop wrote one line per missed node (200,019 lines here)
  // and walked every declared id.
  const auto journal = [](const std::string& nodes) {
    return "{\"t\":0,\"type\":\"run_meta\",\"convergence_window_s\":0.3,"
           "\"nodes\":" + nodes + "}\n"
           "{\"t\":0.1,\"type\":\"message_lost\",\"node\":0}\n"
           "{\"t\":0.2,\"type\":\"actuation\",\"node\":7,"
           "\"stage\":\"node_apply\"}\n"
           "{\"t\":0.2,\"type\":\"actuation\",\"node\":2,"
           "\"stage\":\"node_apply\"}\n"
           "{\"t\":0.2,\"type\":\"actuation\",\"node\":199999,"
           "\"stage\":\"node_apply\"}\n"
           "{\"t\":1,\"type\":\"cycle_start\",\"trigger\":\"timer\"}\n";
  };
  const std::string missed =
      " did not re-apply settings within 0.300000s of the last channel "
      "disturbance at t=0.1s (bounded convergence missed)";
  const sim::JournalCheckReport report = check_jsonl(journal("200000"));
  EXPECT_EQ(report.checks_run, 200000u);
  ASSERT_EQ(report.violations.size(), 17u);
  std::vector<std::string> want;
  for (int n : {0, 1, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}) {
    want.push_back("node" + std::to_string(n) + missed);
  }
  want.push_back("... and 199981 more nodes" + missed);
  EXPECT_EQ(report.violations, want);

  // The largest valid count costs no more: 2^31 - 1 declared nodes finish
  // with the same 17 lines.
  const sim::JournalCheckReport huge = check_jsonl(journal("2147483647"));
  EXPECT_EQ(huge.checks_run, 2147483647u);
  ASSERT_EQ(huge.violations.size(), 17u);
  EXPECT_EQ(huge.violations.back(), "... and 2147483628 more nodes" + missed);

  // Up to 16 misses are all named, with no count line.
  const sim::JournalCheckReport few = check_jsonl(journal("18"));
  EXPECT_EQ(few.checks_run, 18u);
  want.pop_back();
  EXPECT_EQ(few.violations, want);
}

TEST(JournalReader, RejectsCpuOutsideIntRange) {
  // The replaced cast read cpu 1e300 and cpu 4294967296 as one cpu, so the
  // decision below was judged against the other line's table.
  const std::string jsonl =
      "{\"t\":0,\"type\":\"run_meta\",\"t_sample_s\":0.01}\n"
      "{\"t\":0,\"type\":\"table_point\",\"cpu\":1e300,\"hz\":1e9,"
      "\"volts\":1.3}\n"
      "{\"t\":0.1,\"type\":\"decision\",\"cpu\":4294967296,"
      "\"granted_hz\":1e9,\"volts\":1.3}\n";
  try {
    check_jsonl(jsonl);
    ADD_FAILURE() << "cpu 1e300 was accepted";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(),
                 "journal line 2: cpu 1e300 is not an integer in "
                 "[-1, 2147483647]");
  }
  for (const char* cpu : {"4294967296", "2147483648", "-2", "0.5", "-1e300"}) {
    SCOPED_TRACE(cpu);
    std::istringstream in(std::string("{\"t\":0,\"type\":\"decision\","
                                      "\"cpu\":") +
                          cpu + "}\n");
    EXPECT_THROW(sim::read_jsonl(in), std::runtime_error);
  }
  for (const int cpu : {-1, 0, 2147483647}) {
    std::istringstream in("{\"t\":0,\"type\":\"decision\",\"cpu\":" +
                          std::to_string(cpu) + "}\n");
    const sim::EventLog log = sim::read_jsonl(in);
    ASSERT_EQ(log.events().size(), 1u);
    EXPECT_EQ(log.events()[0].cpu, cpu);
  }
}

}  // namespace
}  // namespace fvsst
