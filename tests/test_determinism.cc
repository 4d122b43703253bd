// Reproducibility and system-level safety properties.
//
// Determinism matters for a simulator: every bench number in
// EXPERIMENTS.md must be reproducible bit-for-bit from its seed.  The
// budget property is the system's core safety claim: once the daemon has
// one scheduling round behind it, aggregate CPU power never exceeds the
// budget at any instant, for any workload mix.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/daemon.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "run_bytes.h"
#include "simkit/event_log.h"
#include "simkit/fault_plan.h"
#include "simkit/units.h"
#include "workload/synthetic.h"

namespace fvsst {
namespace {

using units::ms;

std::vector<double> run_trace(std::uint64_t seed,
                              sim::EventLog* journal = nullptr,
                              bool explain = false,
                              const sim::FaultPlan* fault_plan = nullptr) {
  sim::Simulation sim;
  sim::Rng rng(seed);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 1, rng);
  workload::SyntheticParams params;
  params.phase1 = {100.0, 3e8};
  params.phase2 = {20.0, 1e8};
  cluster.core({0, 1}).add_workload(workload::make_synthetic(params));
  cluster.core({0, 2}).add_workload(
      workload::make_uniform_synthetic(50.0, 1e12));
  power::PowerBudget budget(300.0);
  core::DaemonConfig config;
  config.journal = journal;
  config.scheduler.explain = explain;
  config.fault_plan = fault_plan;
  core::FvsstDaemon daemon(sim, cluster, machine.freq_table, budget, config);
  sim.run_for(3.0);
  std::vector<double> out;
  for (const auto& s : daemon.granted_freq_trace(1).samples()) {
    out.push_back(s.t);
    out.push_back(s.value);
  }
  for (const auto& s : daemon.measured_ipc_trace(2).samples()) {
    out.push_back(s.value);
  }
  return out;
}

TEST(Determinism, SameSeedBitIdenticalTraces) {
  const auto a = run_trace(12345);
  const auto b = run_trace(12345);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i], b[i]) << i;
  }
}

TEST(Determinism, JournalIsPurelyObservational) {
  // Recording (even with explain-mode rationale) must not perturb the run:
  // the granted/measured traces stay bit-for-bit identical with the
  // journal off, on, and on-with-explain.
  const auto off = run_trace(777);
  sim::EventLog journal;
  const auto on = run_trace(777, &journal);
  sim::EventLog explained;
  const auto on_explained = run_trace(777, &explained, /*explain=*/true);
  EXPECT_FALSE(journal.empty());
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    ASSERT_DOUBLE_EQ(off[i], on[i]) << i;
  }
  ASSERT_EQ(off.size(), on_explained.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    ASSERT_DOUBLE_EQ(off[i], on_explained[i]) << i;
  }
  // And the two recorded runs made identical decisions.
  EXPECT_TRUE(sim::diff_journals(journal, explained).identical_decisions());
}

TEST(Determinism, EmptyFaultPlanIsBitForBitInert) {
  // Wiring an empty plan (even a seeded one) must leave every trace sample
  // and every journal event identical to an unwired run: fault queries are
  // stateless hashes and an empty plan is never consulted.
  const sim::FaultPlan empty_plan(987654321);
  ASSERT_TRUE(empty_plan.empty());

  const auto bare = run_trace(9001);
  const auto wired = run_trace(9001, nullptr, false, &empty_plan);
  ASSERT_EQ(bare.size(), wired.size());
  for (std::size_t i = 0; i < bare.size(); ++i) {
    ASSERT_DOUBLE_EQ(bare[i], wired[i]) << i;
  }

  sim::EventLog bare_journal;
  run_trace(9001, &bare_journal);
  sim::EventLog wired_journal;
  run_trace(9001, &wired_journal, false, &empty_plan);
  EXPECT_EQ(run_bytes(bare_journal), run_bytes(wired_journal));
}

TEST(Determinism, FaultedRunsAreReproducible) {
  // Fault injection must not cost determinism: the same plan against the
  // same seed gives bit-identical traces and identical journals.  The plan
  // exercises both engine fault paths: rejected writes (retry + fail-safe)
  // and sim-scheduled delayed writes.
  sim::FaultPlan plan(7);
  plan.add({sim::FaultKind::kActuationReject, 0.5, 1.0, /*target=*/1, 0.0});
  plan.add({sim::FaultKind::kActuationDelay, 1.2, 1.8, /*target=*/2, 0.004});

  const auto a = run_trace(555, nullptr, false, &plan);
  const auto b = run_trace(555, nullptr, false, &plan);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i], b[i]) << i;
  }

  sim::EventLog ja;
  run_trace(555, &ja, false, &plan);
  sim::EventLog jb;
  run_trace(555, &jb, false, &plan);
  EXPECT_EQ(run_bytes(ja), run_bytes(jb));
  // And faults actually fired, so the inertness above is not vacuous.
  bool saw_fault = false;
  for (const sim::Event& e : ja.events()) {
    saw_fault = saw_fault || e.type == sim::EventType::kFault;
  }
  EXPECT_TRUE(saw_fault);
}

TEST(Determinism, DifferentSeedsDiffer) {
  const auto a = run_trace(1);
  const auto b = run_trace(2);
  // Noise differs, so the measured-IPC tail almost surely differs.
  EXPECT_NE(a, b);
}

// Safety property: power compliance at every sensor sample after the first
// scheduling round, across random workload mixes and budgets.
class BudgetCompliance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BudgetCompliance, NeverExceedsBudgetAfterFirstRound) {
  sim::Simulation sim;
  sim::Rng rng(GetParam());
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 1, rng);
  for (std::size_t c = 0; c < 4; ++c) {
    if (rng.bernoulli(0.75)) {
      cluster.core({0, c}).add_workload(workload::make_uniform_synthetic(
          rng.uniform(0.0, 100.0), 1e12));
    }
  }
  // Feasible budget: at least the 4-CPU floor.
  power::PowerBudget budget(rng.uniform(40.0, 560.0));
  core::FvsstDaemon daemon(sim, cluster, machine.freq_table, budget,
                           core::DaemonConfig{});
  sim.run_for(0.101);  // one full scheduling round (T = 100 ms)

  double worst_over = 0.0;
  sim.schedule_every(7 * ms, [&] {
    worst_over = std::max(
        worst_over, cluster.cpu_power_w() - budget.effective_limit_w());
  });
  // Mid-run budget drop must also hold after its trigger fires.
  const double drop = rng.uniform(40.0, budget.limit_w());
  sim.schedule_at(1.0, [&, drop] {
    worst_over = 0.0;  // reset; the drop takes one trigger to apply
    budget.set_limit_w(drop);
  });
  sim.schedule_at(1.0005, [&] { worst_over = 0.0; });  // after the trigger
  sim.run_for(2.0);
  EXPECT_LE(worst_over, 1e-9) << "budget " << budget.effective_limit_w();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetCompliance,
                         ::testing::Range<std::uint64_t>(1000, 1016));

}  // namespace
}  // namespace fvsst
