// Tests for coordinator failover: standby election with epoch fencing,
// crash-safe recovery from the stable store, and the node-local fail-safe
// (core/coordinator.h, cluster/election.h, the failover half of
// core/cluster_daemon.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cluster/election.h"
#include "core/cluster_daemon.h"
#include "core/coordinator.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "run_bytes.h"
#include "simkit/event_log.h"
#include "simkit/fault_plan.h"
#include "simkit/units.h"
#include "workload/synthetic.h"

namespace fvsst::core {
namespace {

using units::ms;
using units::us;

std::size_t count_type(const sim::EventLog& log, sim::EventType type) {
  std::size_t n = 0;
  for (const sim::Event& e : log.events()) n += e.type == type;
  return n;
}

struct ClusterRig {
  explicit ClusterRig(std::size_t nodes)
      : cluster(cluster::Cluster::homogeneous(sim, mach::p630(), nodes, rng)),
        budget(static_cast<double>(nodes) * 4 * 140.0) {}

  void load_all() {
    for (const auto& addr : cluster.all_procs()) {
      cluster.core(addr).add_workload(
          workload::make_uniform_synthetic(100.0, 1e12));
    }
  }

  sim::Simulation sim;
  sim::Rng rng{7};
  cluster::Cluster cluster;
  power::PowerBudget budget;
};

ClusterDaemonConfig default_config() {
  ClusterDaemonConfig cfg;
  cfg.t_sample_s = 10 * ms;
  cfg.schedule_every_n_samples = 10;
  cfg.channel_latency_s = 200 * us;
  cfg.channel_jitter_s = 50 * us;
  return cfg;
}

// --- Election primitives ---------------------------------------------------

TEST(Election, FenceAdmitsForwardRejectsBackward) {
  cluster::EpochFence fence;
  EXPECT_TRUE(fence.admit(1));
  EXPECT_TRUE(fence.admit(1));  // Same epoch stays admitted.
  EXPECT_TRUE(fence.admit(4));
  EXPECT_FALSE(fence.admit(3));  // Deposed coordinator.
  EXPECT_EQ(fence.current(), 4u);
}

TEST(Election, ClaimsAreUniqueAndAboveEverythingSeen) {
  // Two coordinators claiming from the same max_seen never collide, and
  // both claims beat the old epoch.
  const cluster::Epoch a = cluster::claim_epoch(5, 0);
  const cluster::Epoch b = cluster::claim_epoch(5, 1);
  EXPECT_NE(a, b);
  EXPECT_GT(a, 5u);
  EXPECT_GT(b, 5u);
}

TEST(Election, TakeoverJitterIsDeterministicAndBounded) {
  const double j1 = cluster::takeover_jitter_s(42, 1, 3, 0.05);
  const double j2 = cluster::takeover_jitter_s(42, 1, 3, 0.05);
  EXPECT_DOUBLE_EQ(j1, j2);
  EXPECT_GE(j1, 0.0);
  EXPECT_LT(j1, 0.05);
  // Different coordinators spread apart.
  EXPECT_NE(cluster::takeover_jitter_s(42, 0, 2, 0.05), j1);
  EXPECT_DOUBLE_EQ(cluster::takeover_jitter_s(42, 1, 3, 0.0), 0.0);
}

// --- StableStore & snapshots -----------------------------------------------

TEST(StableStore, SnapshotRoundTripsThroughChecksum) {
  CoordinatorSnapshot snap;
  snap.epoch = 7;
  snap.round = 42;
  snap.taken_at = 1.25;
  snap.budget_w = 512.5;
  snap.grants_hz = {1.1e9, 0.85e9, 0.25e9};
  snap.last_summary_at = {1.19, 1.21};

  const auto decoded = CoordinatorSnapshot::decode(snap.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->epoch, 7u);
  EXPECT_EQ(decoded->round, 42u);
  EXPECT_DOUBLE_EQ(decoded->taken_at, 1.25);
  EXPECT_DOUBLE_EQ(decoded->budget_w, 512.5);
  EXPECT_EQ(decoded->grants_hz, snap.grants_hz);
  EXPECT_EQ(decoded->last_summary_at, snap.last_summary_at);
}

TEST(StableStore, CorruptSnapshotIsRejectedNotHalfApplied) {
  CoordinatorSnapshot snap;
  snap.epoch = 3;
  snap.grants_hz = {1.0e9};
  std::string blob = snap.encode();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    EXPECT_FALSE(CoordinatorSnapshot::decode(bad).has_value()) << "byte " << i;
  }
  EXPECT_FALSE(CoordinatorSnapshot::decode("").has_value());
  EXPECT_FALSE(CoordinatorSnapshot::decode("short").has_value());
}

TEST(StableStore, RecoverySurvivesCorruptSnapshotViaGrantLog) {
  StableStore store;
  CoordinatorSnapshot snap;
  snap.epoch = 2;
  snap.round = 8;
  snap.budget_w = 300.0;
  snap.grants_hz = {1.0e9, 1.0e9};
  store.save_snapshot(snap);
  store.append_grant({0.9, 2, 280.0, 9, {0.9e9, 0.9e9}});
  store.append_grant({1.0, 2, 250.0, 10, {0.8e9, 0.85e9}});

  // Clean recovery: snapshot plus the two replayed records.
  StableStore::Recovery rec = store.recover();
  EXPECT_TRUE(rec.had_snapshot);
  EXPECT_TRUE(rec.checksum_ok);
  EXPECT_EQ(rec.replayed, 2u);
  EXPECT_EQ(rec.state.round, 10u);
  EXPECT_DOUBLE_EQ(rec.state.budget_w, 250.0);
  EXPECT_DOUBLE_EQ(rec.state.grants_hz[1], 0.85e9);

  // A bit-rotted snapshot is discarded; the write-ahead grant log alone
  // still reconstructs the latest operating point.
  store.corrupt_snapshot_for_test(4);
  rec = store.recover();
  EXPECT_TRUE(rec.had_snapshot);
  EXPECT_FALSE(rec.checksum_ok);
  EXPECT_EQ(rec.replayed, 2u);
  EXPECT_EQ(rec.state.round, 10u);
  EXPECT_DOUBLE_EQ(rec.state.grants_hz[0], 0.8e9);

  // Saving a snapshot folds the log in (truncation).
  store.save_snapshot(snap);
  EXPECT_EQ(store.grant_log_size(), 0u);
}

// --- The acceptance scenario: coordinator crash right after a budget drop --

TEST(Failover, StandbyTakesOverAfterCrashFollowingBudgetDrop) {
  ClusterRig rig(2);
  rig.load_all();

  sim::FaultPlan plan(1);
  // The coordinator dies at the very instant the supply fails (the budget
  // drop at t = 1.0123 triggers a round the primary never gets to run).
  plan.add({sim::FaultKind::kCoordinatorCrash, 1.0123, 2.0, /*target=*/0, 0.0});

  sim::EventLog journal;
  ClusterDaemonConfig cfg = default_config();
  cfg.journal = &journal;
  cfg.fault_plan = &plan;
  cfg.failover.standby = true;
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, cfg);

  rig.sim.run_for(1.0);
  EXPECT_DOUBLE_EQ(rig.cluster.cpu_power_w(), 8 * 140.0);
  rig.sim.schedule_at(1.0123, [&] { rig.budget.set_limit_w(500.0); });

  // The standby's election deadline: takeover_factor (3) + jitter (<= 0.5)
  // periods of silence, plus one period of slack for heartbeat cadence and
  // message flight.  The cluster must be back under budget by then.
  const double period = cfg.t_sample_s * cfg.schedule_every_n_samples;
  const double deadline =
      1.0123 + (cfg.failover.takeover_factor +
                core::kTakeoverJitterFactor + 1.0) *
                   period;
  double power_at_deadline = -1.0;
  rig.sim.schedule_at(deadline,
                      [&] { power_at_deadline = rig.cluster.cpu_power_w(); });
  rig.sim.run_for(1.5);  // to t = 2.5: crash window closed at 2.0

  // The standby took over with a higher epoch and the cluster complied
  // inside the failover window, long before the crashed primary returned.
  EXPECT_LE(power_at_deadline, 500.0);
  ASSERT_NE(daemon.standby(), nullptr);
  EXPECT_TRUE(daemon.standby()->leader());
  EXPECT_FALSE(daemon.primary().leader());
  EXPECT_GT(daemon.epoch(), 1u);
  EXPECT_EQ(daemon.primary().restarts(), 1u);
  EXPECT_LE(rig.cluster.cpu_power_w(), 500.0);

  // Journal: a boot and a takeover announcement, monotone epochs, no
  // settings applied from a deposed coordinator, compliance in-window.
  EXPECT_GE(count_type(journal, sim::EventType::kEpochChange), 2u);
  cluster::Epoch last_announced = 0;
  for (const sim::Event& e : journal.events()) {
    if (e.type != sim::EventType::kEpochChange) continue;
    const auto epoch = static_cast<cluster::Epoch>(e.num_or("epoch"));
    EXPECT_GE(epoch, last_announced);
    last_announced = epoch;
  }
  EXPECT_EQ(last_announced, daemon.epoch());
  // The restart recovered through the stable store and journalled it.
  bool saw_recover = false;
  for (const sim::Event& e : journal.events()) {
    if (e.type != sim::EventType::kSnapshot) continue;
    const std::string* op = e.find_str("op");
    if (op && *op == "recover") {
      saw_recover = true;
      EXPECT_DOUBLE_EQ(e.num_or("checksum_ok"), 1.0);
    }
  }
  EXPECT_TRUE(saw_recover);

  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());
}

// --- Node-local fail-safe: budget honoured with no coordinator at all ------

TEST(Failover, NodeFailsafeCoversTotalCoordinatorLoss) {
  ClusterRig rig(2);
  rig.load_all();

  sim::FaultPlan plan(1);
  plan.add({sim::FaultKind::kCoordinatorCrash, 1.0123, 2.0, /*target=*/0, 0.0});

  sim::EventLog journal;
  ClusterDaemonConfig cfg = default_config();
  cfg.journal = &journal;
  cfg.fault_plan = &plan;
  // No standby: the only protection is each node's autonomous budget/N
  // drop after 2 T of coordinator silence.
  cfg.failover.node_failsafe_factor = 2.0;
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, cfg);

  rig.sim.run_for(1.0);
  rig.sim.schedule_at(1.0123, [&] { rig.budget.set_limit_w(500.0); });

  const double period = cfg.t_sample_s * cfg.schedule_every_n_samples;
  const double deadline =
      1.0123 + cfg.failover.node_failsafe_factor * period +
      2.0 * cfg.t_sample_s;
  double power_at_deadline = -1.0;
  std::size_t failsafe_at_deadline = 0;
  rig.sim.schedule_at(deadline, [&] {
    power_at_deadline = rig.cluster.cpu_power_w();
    failsafe_at_deadline = daemon.failsafe_node_count();
  });
  rig.sim.run_for(1.5);

  // Inside the window every node dropped itself to its budget/N point.
  EXPECT_EQ(failsafe_at_deadline, 2u);
  EXPECT_LE(power_at_deadline, 500.0);

  // After the primary restarted and resumed rounds, coordinated settings
  // took back over and the fail-safe stood down.
  EXPECT_EQ(daemon.failsafe_node_count(), 0u);
  EXPECT_TRUE(daemon.primary().leader());
  EXPECT_EQ(daemon.primary().restarts(), 1u);
  EXPECT_LE(rig.cluster.cpu_power_w(), 500.0);

  // Both degraded-mode transitions are journalled, and the inspector's
  // failover-window check passes on the autonomous recovery.
  std::size_t enters = 0;
  std::size_t exits = 0;
  for (const sim::Event& e : journal.events()) {
    if (e.type != sim::EventType::kDegradedMode) continue;
    const std::string* reason = e.find_str("reason");
    if (!reason || *reason != "coordinator_silent") continue;
    const std::string* state = e.find_str("state");
    enters += state && *state == "enter";
    exits += state && *state == "exit";
  }
  EXPECT_EQ(enters, 2u);
  EXPECT_EQ(exits, 2u);

  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());
}

// --- Split brain: a partitioned standby elects itself; fencing contains it -

TEST(Failover, PartitionedStandbyIsFencedOffAfterHeal) {
  ClusterRig rig(2);
  rig.load_all();

  sim::FaultPlan plan(1);
  // The standby is cut off long enough to depose the (healthy) primary in
  // its own view and elect itself: classic split brain.
  plan.add({sim::FaultKind::kPartition, 0.8, 1.6, /*target=*/1, 0.0});

  sim::EventLog journal;
  ClusterDaemonConfig cfg = default_config();
  cfg.journal = &journal;
  cfg.fault_plan = &plan;
  cfg.failover.standby = true;
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, cfg);

  // While partitioned, the standby's claim cannot reach anyone.
  rig.sim.run_for(1.5);
  ASSERT_NE(daemon.standby(), nullptr);
  EXPECT_TRUE(daemon.standby()->leader());
  EXPECT_TRUE(daemon.primary().leader());  // Two leaders: the dangerous state.
  EXPECT_GT(daemon.standby()->epoch(), daemon.primary().epoch());

  // A budget move lands while both believe they lead — both fan out, with
  // different epochs.  The fences guarantee no node ever applies the
  // deposed epoch after the newer one.
  rig.sim.schedule_at(1.6543, [&] { rig.budget.set_limit_w(500.0); });
  rig.sim.run_for(1.0);

  // Healed: the old primary heard the higher epoch and stepped down.
  EXPECT_FALSE(daemon.primary().leader());
  EXPECT_TRUE(daemon.standby()->leader());
  EXPECT_EQ(daemon.epoch(), daemon.standby()->epoch());
  EXPECT_LE(rig.cluster.cpu_power_w(), 500.0);

  // The stepdown was announced, and the inspector confirms the fencing
  // invariant (per-node applied epochs never regress).
  bool saw_stepdown = false;
  for (const sim::Event& e : journal.events()) {
    if (e.type != sim::EventType::kEpochChange) continue;
    const std::string* reason = e.find_str("reason");
    saw_stepdown = saw_stepdown || (reason && *reason == "stepdown");
  }
  EXPECT_TRUE(saw_stepdown);
  EXPECT_EQ(count_type(journal, sim::EventType::kSettingsRejected),
            daemon.settings_rejected());

  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());
}

// --- Crash-safe recovery without a standby ---------------------------------

TEST(Failover, RestartResumesFromStoreWithoutColdStartSpike) {
  ClusterRig rig(2);
  rig.load_all();

  sim::FaultPlan plan(1);
  plan.add({sim::FaultKind::kCoordinatorCrash, 1.05, 1.35, /*target=*/0, 0.0});

  sim::EventLog journal;
  ClusterDaemonConfig cfg = default_config();
  cfg.journal = &journal;
  cfg.fault_plan = &plan;
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, cfg);

  // Steady state under a tight budget before the crash.
  rig.budget.set_limit_w(500.0);
  rig.sim.run_for(1.0);
  EXPECT_LE(rig.cluster.cpu_power_w(), 500.0);
  const std::size_t rounds_before = daemon.rounds();

  rig.sim.run_for(1.5);  // crash at 1.05, restart detected after 1.35

  // The restarted coordinator waited out its warm-up (no round scheduled
  // from a cold mailbox) and resumed — and because its first post-restart
  // round saw a fully repopulated mailbox, the cluster never left the
  // budget: the maximum power over the whole faulted stretch stays
  // compliant (no cold-start spike to f_max).
  EXPECT_GT(daemon.rounds(), rounds_before);
  EXPECT_EQ(daemon.primary().restarts(), 1u);
  EXPECT_TRUE(daemon.primary().leader());
  // Tolerance: per-node applies land staggered, so the believed aggregate
  // briefly mixes one node's new grants with the other's old ones (a ~1-2%
  // excursion that exists in steady state too).  A cold start would spike
  // toward all-CPUs-at-f-max (1120 W here) — that must never appear.
  EXPECT_LE(daemon.scheduled_power_trace().max(0.5, 10.0), 500.0 * 1.05);

  // The recovery journalled a clean checksum and replayed grant records.
  bool saw_recover = false;
  for (const sim::Event& e : journal.events()) {
    if (e.type != sim::EventType::kSnapshot) continue;
    const std::string* op = e.find_str("op");
    if (op && *op == "recover") {
      saw_recover = true;
      EXPECT_DOUBLE_EQ(e.num_or("checksum_ok"), 1.0);
      EXPECT_GE(e.num_or("epoch"), 1.0);
    }
  }
  EXPECT_TRUE(saw_recover);

  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());
}

// --- Satellite: response-latency accounting survives a lost trigger apply --

TEST(Failover, DroppedTriggerSettingsAreClosedByRepairRound) {
  ClusterRig rig(2);
  rig.load_all();

  // Node 1 loses every message in a window that covers exactly the
  // budget-triggered settings send, then clears before the next periodic
  // round — the repair round's apply must close the latency measurement.
  sim::FaultPlan plan(1);
  plan.add({sim::FaultKind::kChannelLoss, 1.01, 1.05, /*target=*/1,
            /*p=*/1.0});

  ClusterDaemonConfig cfg = default_config();
  cfg.fault_plan = &plan;
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, cfg);

  rig.sim.run_for(1.0);
  rig.sim.schedule_at(1.0123, [&] { rig.budget.set_limit_w(500.0); });
  rig.sim.run_for(0.05);  // trigger fires; node 1's settings are dropped

  EXPECT_GE(daemon.last_budget_trigger_time(), 1.0123);
  EXPECT_LT(daemon.last_trigger_applied_time(), 0.0)
      << "measurement closed although one node never applied";

  rig.sim.run_for(0.2);  // next periodic round repairs node 1
  ASSERT_GT(daemon.last_trigger_applied_time(), 0.0);
  const double latency =
      daemon.last_trigger_applied_time() - daemon.last_budget_trigger_time();
  // Closed by the repair round: roughly one period later, not wedged open.
  const double period = cfg.t_sample_s * cfg.schedule_every_n_samples;
  EXPECT_GT(latency, 0.05);
  EXPECT_LE(latency, 1.5 * period);
  EXPECT_LE(rig.cluster.cpu_power_w(), 500.0);
}

// --- Satellite: silent-node rejoin stands down within one round -------------

TEST(Failover, CrashedNodeRejoinClearsStalePinningWithinOneRound) {
  ClusterRig rig(2);
  rig.load_all();

  sim::FaultPlan plan(1);
  plan.add({sim::FaultKind::kNodeCrash, 0.3, 0.8, /*target=*/0, 0.0});

  ClusterDaemonConfig cfg = default_config();
  cfg.fault_plan = &plan;
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, cfg);

  const double period = cfg.t_sample_s * cfg.schedule_every_n_samples;
  std::size_t stale_during = 0;
  bool pinned_during = false;
  rig.sim.schedule_at(0.79, [&] {
    stale_during = daemon.stale_node_count();
    pinned_during = daemon.loop().pinned(0);
  });
  // One summary interval after the restart (plus flight time), the node
  // has reported in and the conservative f_max accounting must be gone.
  std::size_t stale_after = 99;
  bool pinned_after = true;
  rig.sim.schedule_at(0.8 + period + 0.01, [&] {
    stale_after = daemon.stale_node_count();
    pinned_after = daemon.loop().pinned(0);
  });
  rig.sim.run_for(1.2);

  EXPECT_EQ(stale_during, 1u);
  EXPECT_TRUE(pinned_during);
  EXPECT_EQ(stale_after, 0u);
  EXPECT_FALSE(pinned_after);
  EXPECT_EQ(daemon.stale_node_count(), 0u);
}

// --- Determinism ------------------------------------------------------------

sim::EventLog run_default_journal(const sim::FaultPlan* plan,
                                  bool standby = false) {
  ClusterRig rig(2);
  rig.load_all();
  sim::EventLog journal;
  ClusterDaemonConfig cfg = default_config();
  cfg.journal = &journal;
  cfg.fault_plan = plan;
  cfg.failover.standby = standby;
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, cfg);
  rig.sim.run_for(0.6);
  rig.budget.set_limit_w(500.0);
  rig.sim.run_for(0.6);
  return journal;
}

TEST(FailoverDeterminism, DisabledProtocolIsBitForBitInert) {
  // An empty plan with the standby off must not change a single event:
  // no extra messages, no extra randomness, no new journal fields.
  const sim::FaultPlan empty_plan(123456);
  ASSERT_TRUE(empty_plan.empty());
  const sim::EventLog bare = run_default_journal(nullptr);
  const sim::EventLog wired = run_default_journal(&empty_plan);
  EXPECT_EQ(run_bytes(bare), run_bytes(wired));
  // And the default journal carries none of the protocol's vocabulary.
  EXPECT_EQ(count_type(bare, sim::EventType::kEpochChange), 0u);
  EXPECT_EQ(count_type(bare, sim::EventType::kSnapshot), 0u);
  EXPECT_FALSE(bare.events().front().has_num("failover_window_s"));
}

TEST(FailoverDeterminism, ElectionRerunsIdentically) {
  // The same seed elects the same coordinator at the same instant: two
  // crash-failover runs produce identical journals, epochs included.
  auto run = [] {
    ClusterRig rig(2);
    rig.load_all();
    sim::FaultPlan plan(1);
    plan.add(
        {sim::FaultKind::kCoordinatorCrash, 1.0123, 2.0, /*target=*/0, 0.0});
    sim::EventLog journal;
    ClusterDaemonConfig cfg = default_config();
    cfg.journal = &journal;
    cfg.fault_plan = &plan;
    cfg.failover.standby = true;
    ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                         rig.budget, cfg);
    rig.sim.run_for(1.0);
    rig.sim.schedule_at(1.0123, [&] { rig.budget.set_limit_w(500.0); });
    rig.sim.run_for(1.5);
    return journal;
  };
  const sim::EventLog a = run();
  const sim::EventLog b = run();
  EXPECT_EQ(run_bytes(a), run_bytes(b));
  EXPECT_GT(count_type(a, sim::EventType::kEpochChange), 1u);
}

}  // namespace
}  // namespace fvsst::core
