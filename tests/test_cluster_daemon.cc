// Tests for the distributed cluster scheduler (core/cluster_daemon.h).
#include "core/cluster_daemon.h"

#include <gtest/gtest.h>

#include "mach/machine_config.h"
#include "power/budget.h"
#include "simkit/fault_plan.h"
#include "simkit/rng.h"
#include "simkit/units.h"
#include "workload/mixes.h"
#include "workload/synthetic.h"

namespace fvsst::core {
namespace {

using units::GHz;
using units::MHz;
using units::ms;
using units::us;

struct ClusterRig {
  explicit ClusterRig(std::size_t nodes)
      : cluster(cluster::Cluster::homogeneous(sim, mach::p630(), nodes, rng)),
        budget(static_cast<double>(nodes) * 4 * 140.0) {}
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

TEST(ClusterDaemon, RunsPeriodicGlobalRounds) {
  ClusterRig rig(2);
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, default_config());
  rig.sim.run_for(1.05);
  EXPECT_GE(daemon.rounds(), 9u);
  EXPECT_LE(daemon.rounds(), 11u);
}

TEST(ClusterDaemon, IdleClusterDropsToFloor) {
  ClusterRig rig(2);
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, default_config());
  rig.sim.run_for(0.5);
  for (const auto& addr : rig.cluster.all_procs()) {
    EXPECT_DOUBLE_EQ(rig.cluster.core(addr).frequency_hz(), 250 * MHz);
  }
}

TEST(ClusterDaemon, EnforcesGlobalBudgetAcrossNodes) {
  ClusterRig rig(2);
  for (const auto& addr : rig.cluster.all_procs()) {
    rig.cluster.core(addr).add_workload(
        workload::make_uniform_synthetic(100.0, 1e12));
  }
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, default_config());
  rig.sim.run_for(1.0);
  EXPECT_DOUBLE_EQ(rig.cluster.cpu_power_w(), 8 * 140.0);

  rig.budget.set_limit_w(500.0);
  rig.sim.run_for(0.2);
  EXPECT_LE(rig.cluster.cpu_power_w(), 500.0);
}

TEST(ClusterDaemon, BudgetTriggerAppliesWithinChannelLatency) {
  ClusterRig rig(4);
  for (const auto& addr : rig.cluster.all_procs()) {
    rig.cluster.core(addr).add_workload(
        workload::make_uniform_synthetic(100.0, 1e12));
  }
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, default_config());
  rig.sim.run_for(1.0);
  rig.sim.schedule_at(1.003, [&] { rig.budget.set_limit_w(800.0); });
  rig.sim.run_for(0.1);
  EXPECT_GE(daemon.last_budget_trigger_time(), 1.003);
  ASSERT_GT(daemon.last_trigger_applied_time(), 0.0);
  const double latency =
      daemon.last_trigger_applied_time() - daemon.last_budget_trigger_time();
  // One-way settings message: latency + jitter bound.
  EXPECT_LE(latency, 300 * us);
  EXPECT_LE(rig.cluster.cpu_power_w(), 800.0);
}

TEST(ClusterDaemon, ToleratesMessageLoss) {
  // With 30% of all summary and settings messages dropped, the periodic
  // global rounds still converge the cluster onto the budget — a lost
  // settings vector is repaired by the next round.
  ClusterRig rig(2);
  for (const auto& addr : rig.cluster.all_procs()) {
    rig.cluster.core(addr).add_workload(
        workload::make_uniform_synthetic(100.0, 1e12));
  }
  core::ClusterDaemonConfig cfg = default_config();
  cfg.channel_loss_probability = 0.30;
  core::ClusterDaemon daemon(rig.sim, rig.cluster,
                             mach::p630_frequency_table(), rig.budget, cfg);
  rig.sim.run_for(1.0);
  rig.budget.set_limit_w(500.0);
  rig.sim.run_for(1.0);  // several rounds despite losses
  EXPECT_LE(rig.cluster.cpu_power_w(), 500.0);
  EXPECT_GE(daemon.rounds(), 10u);
}

TEST(ClusterDaemon, LostSettingsAreRepairedByLaterRounds) {
  // Drop half of all messages.  Nodes that miss a settings vector keep
  // running on stale frequencies, so the cluster may transiently exceed a
  // tightened budget — but every periodic round re-sends the full settings
  // vector, so once messages get through the whole cluster complies.
  ClusterRig rig(4);
  for (const auto& addr : rig.cluster.all_procs()) {
    rig.cluster.core(addr).add_workload(
        workload::make_uniform_synthetic(100.0, 1e12));
  }
  ClusterDaemonConfig cfg = default_config();
  cfg.channel_loss_probability = 0.50;
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, cfg);
  rig.sim.run_for(1.0);
  rig.budget.set_limit_w(1200.0);
  rig.sim.run_for(2.0);

  // The loss actually happened on both channels; this is not a quiet run.
  EXPECT_GT(daemon.summaries_dropped(), 0u);
  EXPECT_GT(daemon.settings_dropped(), 0u);
  // Repair: despite every individual settings message being a coin flip,
  // the periodic rounds converged the cluster onto the budget.
  EXPECT_LE(rig.cluster.cpu_power_w(), 1200.0);
  // All nodes ended on the same settings (homogeneous cluster, identical
  // load): nobody is left behind on a stale vector.
  const double hz0 = rig.cluster.core({0, 0}).frequency_hz();
  for (const auto& addr : rig.cluster.all_procs()) {
    EXPECT_DOUBLE_EQ(rig.cluster.core(addr).frequency_hz(), hz0);
  }
}

TEST(ClusterDaemon, DiverseTiersGetDiverseFrequencies) {
  ClusterRig rig(4);
  sim::Rng wl_rng(11);
  const auto assignment =
      workload::tiered_cluster_assignment(4, 4, wl_rng);
  for (std::size_t n = 0; n < 4; ++n) {
    for (std::size_t c = 0; c < 4; ++c) {
      rig.cluster.core({n, c}).add_workload(assignment[n][c]);
    }
  }
  ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                       rig.budget, default_config());
  rig.sim.run_for(2.0);
  // Web/app tiers (nodes 0-2) should run faster than the db tier (node 3).
  double web_mean = 0.0, db_mean = 0.0;
  for (std::size_t c = 0; c < 4; ++c) {
    web_mean += rig.cluster.core({0, c}).frequency_hz() / 4.0;
    db_mean += rig.cluster.core({3, c}).frequency_hz() / 4.0;
  }
  EXPECT_GT(web_mean, db_mean);
  EXPECT_GT(daemon.scheduled_power_trace().size(), 10u);
}

TEST(ClusterDaemon, CrashedSetMatchesThePerNodeQueryAtEveryTick) {
  // The daemon skips its per-node crash scan at a tick when no node is
  // flagged and no crash window of any target is open.  At every tick the
  // flags must still equal the fault plan's answer for each node, under
  // seeded plans mixing targeted and wildcard windows, windows shorter
  // than a tick (some containing a tick instant, some between two) and
  // overlapping ones.
  constexpr std::size_t kNodes = 6;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    ClusterRig rig(kNodes);
    for (std::size_t n = 0; n < kNodes; ++n) {
      rig.cluster.core({n, 0}).add_workload(
          workload::make_uniform_synthetic(30.0 + 10.0 * n, 1e12));
    }
    sim::FaultPlan plan(seed);
    plan.add({sim::FaultKind::kNodeCrash, 0.2995, 0.3005, 2, 0.0});
    plan.add({sim::FaultKind::kNodeCrash, 0.3052, 0.3078, -1, 0.0});
    sim::Rng draw(seed);
    for (int i = 0; i < 10; ++i) {
      const double start = draw.uniform(0.05, 1.8);
      const double length = draw.bernoulli(0.4) ? draw.uniform(5e-4, 9e-3)
                                                : draw.uniform(0.01, 0.3);
      const int target =
          draw.bernoulli(0.3)
              ? -1
              : static_cast<int>(draw.uniform_int(0, kNodes - 1));
      plan.add({sim::FaultKind::kNodeCrash, start, start + length, target,
                0.0});
    }
    ClusterDaemonConfig cfg = default_config();
    cfg.fault_plan = &plan;
    ClusterDaemon daemon(rig.sim, rig.cluster, mach::p630_frequency_table(),
                         rig.budget, cfg);
    // Armed after the daemon's clock on the same lattice, so at each
    // instant it runs right after the daemon's tick.
    std::size_t ticks = 0;
    std::size_t crashed = 0;
    rig.sim.schedule_every(cfg.t_sample_s, [&] {
      ++ticks;
      for (std::size_t n = 0; n < kNodes; ++n) {
        const bool want = plan.active(sim::FaultKind::kNodeCrash,
                                      static_cast<int>(n),
                                      rig.sim.now()) != nullptr;
        EXPECT_EQ(daemon.node_crashed(n), want)
            << "node " << n << " at t=" << rig.sim.now();
        crashed += want ? 1 : 0;
      }
    });
    rig.sim.run_until(2.0);
    EXPECT_GE(ticks, 199u);
    EXPECT_GT(crashed, 0u);
    EXPECT_LT(crashed, ticks * kNodes);
  }
}

}  // namespace
}  // namespace fvsst::core
