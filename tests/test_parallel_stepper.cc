// test_parallel_stepper - The deterministic parallel node stepper: the
// StepPool's fixed-partition contract, and the headline guarantee that
// step_threads is invisible to the simulation — identical journals,
// telemetry and final core state at any thread count, including under
// fault plans, coordinator failover and network partitions.
#include "cluster/parallel_stepper.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "core/cluster_daemon.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "run_bytes.h"
#include "simkit/event_log.h"
#include "simkit/fault_plan.h"
#include "simkit/telemetry.h"
#include "workload/synthetic.h"

namespace fvsst {
namespace {

// --- StepPool contract ----------------------------------------------------

TEST(StepPool, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 8}) {
    cluster::StepPool pool(threads);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                          std::size_t{8}, std::size_t{100}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.run(n, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " with n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(StepPool, PartitionIsFixedByIndexModulus) {
  // The worker that processes index i is determined by i % threads alone:
  // same residue, same thread — across indices and across run() calls.
  constexpr int kThreads = 4;
  constexpr std::size_t kN = 64;
  cluster::StepPool pool(kThreads);
  std::vector<std::thread::id> owner_a(kN), owner_b(kN);
  pool.run(kN, [&](std::size_t i) { owner_a[i] = std::this_thread::get_id(); });
  pool.run(kN, [&](std::size_t i) { owner_b[i] = std::this_thread::get_id(); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(owner_a[i], owner_a[i % kThreads])
        << "index " << i << " not on its residue's thread";
    EXPECT_EQ(owner_a[i], owner_b[i]) << "partition moved between runs";
  }
  // The caller itself is worker 0.
  EXPECT_EQ(owner_a[0], std::this_thread::get_id());
}

TEST(StepPool, ReusableAcrossGenerations) {
  cluster::StepPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.run(7, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 200 * 7);
}

TEST(StepPool, SingleThreadRunsInline) {
  cluster::StepPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::thread::id caller = std::this_thread::get_id();
  pool.run(5, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

// --- Serial-vs-parallel equivalence ---------------------------------------

struct Scenario {
  const char* name;
  bool standby = false;
  double failsafe_factor = 0.0;
  std::vector<sim::FaultSpec> faults;
};

/// One cluster run at the given thread count; returns everything the
/// simulation can observe: the journal, the telemetry export, and the
/// final per-core state.
std::string run_scenario(const Scenario& sc, int threads) {
  sim::Simulation sim;
  sim::Rng rng(23);
  const mach::MachineConfig machine = mach::p630();
  constexpr std::size_t kNodes = 6;
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, kNodes, rng);
  // Mixed load: two busy nodes, one light, the rest idle.
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(90.0, 1e12));
  cluster.core({1, 0}).add_workload(
      workload::make_uniform_synthetic(60.0, 1e12));
  cluster.core({4, 2}).add_workload(
      workload::make_uniform_synthetic(25.0, 1e12));

  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  sim.schedule_at(0.9, [&] { budget.set_limit_w(peak * 0.4); });

  sim::FaultPlan plan(5);
  for (const sim::FaultSpec& f : sc.faults) plan.add(f);

  sim::EventLog journal;
  core::ClusterDaemonConfig cfg;
  cfg.journal = &journal;
  cfg.step_threads = threads;
  if (!plan.empty()) cfg.fault_plan = &plan;
  cfg.failover.standby = sc.standby;
  cfg.failover.node_failsafe_factor = sc.failsafe_factor;
  core::ClusterDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
  sim.run_for(2.5);

  std::ostringstream out;
  out << run_bytes(journal, &daemon.telemetry());
  for (const auto& addr : cluster.all_procs()) {
    auto& core = cluster.core(addr);
    char buf[160];
    std::snprintf(buf, sizeof buf, "core %zu.%zu hz=%.17g instr=%.17g\n",
                  addr.node, addr.cpu, core.frequency_hz(),
                  core.instructions_retired());
    out << buf;
  }
  return out.str();
}

class ParallelEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(ParallelEquivalence, ThreadCountIsInvisible) {
  const Scenario& sc = GetParam();
  const std::string serial = run_scenario(sc, 1);
  ASSERT_FALSE(serial.empty());
  for (int threads : {2, 8}) {
    const std::string parallel = run_scenario(sc, threads);
    EXPECT_EQ(serial, parallel)
        << sc.name << ": --threads " << threads
        << " changed the simulation";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ParallelEquivalence,
    ::testing::Values(
        Scenario{"budget_drop", false, 0.0, {}},
        Scenario{"node_crash",
                 false,
                 0.0,
                 {{sim::FaultKind::kNodeCrash, 0.7, 1.6, 1, 0.0}}},
        Scenario{"channel_loss_stale",
                 false,
                 0.0,
                 {{sim::FaultKind::kChannelLoss, 0.4, 1.4, 0, 0.6},
                  {sim::FaultKind::kStaleSummaries, 1.0, 1.8, 4, 0.0}}},
        Scenario{"coordinator_crash_failover",
                 true,
                 2.0,
                 {{sim::FaultKind::kCoordinatorCrash, 0.85, 1.9, 0, 0.0}}},
        Scenario{"partition",
                 true,
                 0.0,
                 {{sim::FaultKind::kPartition, 0.8, 1.7, 0, 0.0}}}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

// Crashed nodes must not be pre-synced by the worker pool: syncing a core
// at a time the serial run would not introduces extra RNG chunk
// boundaries and changes the bits.  This scenario crashes a node over a
// window that is not aligned to any tick and checks the recovery path too.
TEST(ParallelStepperFaults, CrashWindowUnalignedToTicks) {
  Scenario sc{"unaligned_crash",
              false,
              0.0,
              {{sim::FaultKind::kNodeCrash, 0.7037, 1.6113, 0, 0.0}}};
  EXPECT_EQ(run_scenario(sc, 1), run_scenario(sc, 8));
}

}  // namespace
}  // namespace fvsst
