// Tests for nodes, clusters and the message channel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/channel.h"
#include "cluster/cluster.h"
#include "mach/machine_config.h"
#include "simkit/units.h"
#include "workload/synthetic.h"

namespace fvsst::cluster {
namespace {

using units::GHz;
using units::MHz;

TEST(Node, BuildsCoresFromMachineConfig) {
  sim::Simulation sim;
  sim::Rng rng(1);
  Node node(sim, "n0", mach::p630(), rng);
  EXPECT_EQ(node.cpu_count(), 4u);
  EXPECT_EQ(node.core(0).name(), "n0/cpu0");
  EXPECT_DOUBLE_EQ(node.core(3).frequency_hz(), 1 * GHz);
}

TEST(Node, PowerIsTablePowerAtRequestedPoints) {
  sim::Simulation sim;
  sim::Rng rng(1);
  Node node(sim, "n0", mach::p630(), rng);
  EXPECT_DOUBLE_EQ(node.cpu_power_w(), 4 * 140.0);
  node.core(0).set_frequency(250 * MHz);
  node.core(1).set_frequency(600 * MHz);
  EXPECT_DOUBLE_EQ(node.cpu_power_w(), 9.0 + 48.0 + 140.0 + 140.0);
}

TEST(Node, TotalPowerIncludesOverhead) {
  sim::Simulation sim;
  sim::Rng rng(1);
  Node node(sim, "n0", mach::p630_motivating_example(), rng);
  EXPECT_DOUBLE_EQ(node.total_power_w(), 746.0);
}

TEST(Node, ResetToMaxFrequency) {
  sim::Simulation sim;
  sim::Rng rng(1);
  Node node(sim, "n0", mach::p630(), rng);
  node.core(2).set_frequency(250 * MHz);
  node.reset_to_max_frequency();
  EXPECT_DOUBLE_EQ(node.core(2).frequency_hz(), 1 * GHz);
}

TEST(Cluster, RejectsEmpty) {
  EXPECT_THROW(Cluster({}), std::invalid_argument);
}

TEST(Cluster, HomogeneousFlattening) {
  sim::Simulation sim;
  sim::Rng rng(1);
  Cluster c = Cluster::homogeneous(sim, mach::p630(), 3, rng);
  EXPECT_EQ(c.node_count(), 3u);
  EXPECT_EQ(c.cpu_count(), 12u);
  const auto procs = c.all_procs();
  ASSERT_EQ(procs.size(), 12u);
  EXPECT_EQ(procs[0].node, 0u);
  EXPECT_EQ(procs[0].cpu, 0u);
  EXPECT_EQ(procs[11].node, 2u);
  EXPECT_EQ(procs[11].cpu, 3u);
}

TEST(Cluster, HomogeneousNodesShareOneMachineConfig) {
  sim::Simulation sim;
  sim::Rng rng(1);
  mach::MachineConfig machine = mach::p630();
  Cluster c = Cluster::homogeneous(sim, machine, 3, rng);
  // One copy for the whole cluster, not the caller's and not per node.
  const mach::MachineConfig* shared = &c.node(0).machine();
  EXPECT_NE(shared, &machine);
  for (std::size_t n = 1; n < c.node_count(); ++n) {
    EXPECT_EQ(&c.node(n).machine(), shared);
    EXPECT_EQ(&c.node(n).machine().freq_table, &shared->freq_table);
  }
  // The copy was taken at construction: later edits of the caller's
  // description reach no node.
  machine.non_cpu_power_w += 50.0;
  EXPECT_EQ(shared->non_cpu_power_w, mach::p630().non_cpu_power_w);
  EXPECT_EQ(shared->freq_table.points().size(),
            mach::p630().freq_table.points().size());
}

TEST(Cluster, HeterogeneousNodesKeepTheirOwnTables) {
  sim::Simulation sim;
  sim::Rng rng(1);
  const mach::MachineConfig base = mach::p630();
  // Two identical descriptions among them: still one copy each.
  Cluster c = Cluster::heterogeneous(
      sim, {base, mach::derated(base, 800 * MHz, 0.9), base}, rng);
  ASSERT_EQ(c.node_count(), 3u);
  EXPECT_NE(&c.node(0).machine(), &c.node(1).machine());
  EXPECT_NE(&c.node(0).machine(), &c.node(2).machine());
  EXPECT_NE(&c.node(0).machine().freq_table, &c.node(2).machine().freq_table);
  EXPECT_EQ(c.node(0).machine().freq_table.max_hz(), 1 * GHz);
  EXPECT_EQ(c.node(1).machine().freq_table.max_hz(), 800 * MHz);
  EXPECT_EQ(c.node(2).machine().freq_table.max_hz(), 1 * GHz);
  // Each node's cores draw their own table's power.
  EXPECT_DOUBLE_EQ(c.node(1).cpu_power_w(),
                   4 * c.node(1).machine().freq_table.max_point().watts);
  EXPECT_DOUBLE_EQ(c.cpu_power_w(),
                   8 * 140.0 + c.node(1).cpu_power_w());
}

TEST(Cluster, AggregatePower) {
  sim::Simulation sim;
  sim::Rng rng(1);
  Cluster c = Cluster::homogeneous(sim, mach::p630(), 2, rng);
  EXPECT_DOUBLE_EQ(c.cpu_power_w(), 8 * 140.0);
  c.core({1, 2}).set_frequency(500 * MHz);
  EXPECT_DOUBLE_EQ(c.cpu_power_w(), 7 * 140.0 + 35.0);
}

TEST(Cluster, CoresRunIndependently) {
  sim::Simulation sim;
  sim::Rng rng(1);
  Cluster c = Cluster::homogeneous(sim, mach::p630(), 2, rng);
  c.core({0, 0}).add_workload(workload::make_uniform_synthetic(100.0, 1e12));
  c.core({1, 3}).add_workload(workload::make_uniform_synthetic(100.0, 1e12));
  c.core({1, 3}).set_frequency(500 * MHz);
  sim.run_for(0.1);
  EXPECT_GT(c.core({0, 0}).instructions_retired(),
            1.9 * c.core({1, 3}).instructions_retired());
  EXPECT_DOUBLE_EQ(c.core({0, 1}).instructions_retired(), 0.0);
}

// --- The cluster power ledger ---------------------------------------------

// The walk Cluster::cpu_power_w() must reproduce bit for bit: each node's
// own sum, added node by node into 0.0.
double nested_power_w(const Cluster& c) {
  double total = 0.0;
  for (std::size_t n = 0; n < c.node_count(); ++n) {
    total += c.node(n).cpu_power_w();
  }
  return total;
}

// The same watts added one CPU at a time: what a ledger that lost the node
// nesting would return.
double flat_power_w(const Cluster& c) {
  double total = 0.0;
  for (std::size_t n = 0; n < c.node_count(); ++n) {
    const auto& table = c.node(n).machine().freq_table;
    for (std::size_t cpu = 0; cpu < c.node(n).cpu_count(); ++cpu) {
      total += table.power(c.node(n).core(cpu).frequency_hz());
    }
  }
  return total;
}

// ~10k seeded set-point changes through Cluster::core, Node::core and
// Node::reset_to_max_frequency, one in ~40 of them to an off-table
// frequency (333 MHz lies between P630 points) that a later change
// returns from.  After every change the cached total must equal the nested
// walk bit for bit, or throw while some core is off-table.  Returns how
// many on-table states a flat CPU-by-CPU sum got wrong.
std::size_t sweep_against_nested_walk(Cluster& c, std::uint64_t seed) {
  sim::Rng pick(seed);
  const auto draw = [&](std::size_t count) {
    return static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };
  std::vector<std::vector<char>> off_table(c.node_count());
  for (std::size_t n = 0; n < c.node_count(); ++n) {
    off_table[n].assign(c.node(n).cpu_count(), 0);
  }
  std::size_t off_cores = 0;
  std::size_t order_sensitive = 0;
  for (int step = 0; step < 10000 && !::testing::Test::HasFailure();
       ++step) {
    const std::size_t n = draw(c.node_count());
    Node& node = c.node(n);
    const auto& table = node.machine().freq_table;
    const std::size_t cpu = draw(node.cpu_count());
    const bool off = draw(40) == 0;
    const double hz = off ? 333 * MHz : table[draw(table.size())].hz;
    const std::size_t path = draw(3);
    if (path == 2 && draw(4) == 0) {
      node.reset_to_max_frequency();
      for (char& was_off : off_table[n]) {
        if (was_off) --off_cores;
        was_off = 0;
      }
    } else {
      cpu::Core& core = path == 0 ? c.core({n, cpu}) : node.core(cpu);
      core.set_frequency(hz);
      if (off_table[n][cpu]) --off_cores;
      if (off) ++off_cores;
      off_table[n][cpu] = off ? 1 : 0;
    }
    if (off_cores > 0) {
      EXPECT_THROW(c.cpu_power_w(), std::out_of_range) << "step " << step;
      continue;
    }
    const double cached = c.cpu_power_w();
    EXPECT_EQ(cached, nested_power_w(c)) << "step " << step;
    EXPECT_EQ(c.cpu_power_w(), cached) << "step " << step;
    if (flat_power_w(c) != cached) ++order_sensitive;
  }
  return order_sensitive;
}

TEST(ClusterPowerLedger, MatchesNestedWalkBitForBit) {
  sim::Simulation sim;
  sim::Rng rng(1);
  const mach::MachineConfig p630 = mach::p630();
  mach::MachineConfig derated = mach::derated(p630, 800 * MHz, 0.913);
  derated.num_cpus = 3;
  std::vector<mach::MachineConfig> configs;
  for (int i = 0; i < 8; ++i) configs.push_back(i % 3 == 1 ? derated : p630);
  Cluster c = Cluster::heterogeneous(sim, configs, rng);
  // The x0.913 watts are not integers: every query after a change re-sums.
  EXPECT_FALSE(c.power_ledger().exact());
  // The sweep visits states where summation order shows in the last bit,
  // so only the nested order passes it.
  EXPECT_GT(sweep_against_nested_walk(c, 2024), 0u);
}

TEST(ClusterPowerLedger, IntegerWattsTakeTheIncrementalPath) {
  sim::Simulation sim;
  sim::Rng rng(1);
  // P630 Table 1 only, nodes of 4, 2 and 1 CPUs.
  std::vector<mach::MachineConfig> configs;
  for (int i = 0; i < 9; ++i) {
    mach::MachineConfig mc = mach::p630();
    mc.num_cpus = i % 3 == 0 ? 4 : i % 3 == 1 ? 2 : 1;
    configs.push_back(mc);
  }
  Cluster c = Cluster::heterogeneous(sim, configs, rng);
  ASSERT_TRUE(c.power_ledger().exact());
  // Integer sums are exact in any order, so the flat sum agrees too.
  EXPECT_EQ(sweep_against_nested_walk(c, 7), 0u);
  EXPECT_TRUE(c.power_ledger().exact());
}

TEST(ClusterPowerLedger, IntegerWattsPastTwoToThe53FallBackToResum) {
  sim::Simulation sim;
  sim::Rng rng(1);
  // P630's points with odd integer watts near 2^51: 4 CPUs per node sum
  // past 2^53, where doubles stop holding every integer.
  mach::MachineConfig huge = mach::p630();
  std::vector<mach::OperatingPoint> points = huge.freq_table.points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].watts = 0x1p51 + static_cast<double>(2 * i + 1);
  }
  huge.freq_table = mach::FrequencyTable(std::move(points));
  Cluster c = Cluster::homogeneous(sim, huge, 8, rng);
  EXPECT_FALSE(c.power_ledger().exact());
  // Rounding shows: a flat sum (or a running difference) would drift.
  EXPECT_GT(sweep_against_nested_walk(c, 99), 0u);
}

TEST(ClusterPowerLedger, RepeatedQueriesAndUnchangedSetPointsKeepTheValue) {
  sim::Simulation sim;
  sim::Rng rng(1);
  Cluster c = Cluster::homogeneous(sim, mach::p630(), 3, rng);
  const double first = c.cpu_power_w();
  EXPECT_EQ(c.cpu_power_w(), first);
  c.core({1, 1}).set_frequency(c.core({1, 1}).frequency_hz());
  EXPECT_EQ(c.cpu_power_w(), first);
  c.core({1, 1}).set_frequency(500 * MHz);
  EXPECT_EQ(c.cpu_power_w(), 11 * 140.0 + 35.0);
  EXPECT_EQ(c.cpu_power_w(), 11 * 140.0 + 35.0);
}

TEST(ClusterPowerLedger, MovedClusterTracksLaterChanges) {
  sim::Simulation sim;
  sim::Rng rng(1);
  Cluster built = Cluster::homogeneous(sim, mach::p630(), 2, rng);
  Cluster moved = std::move(built);
  moved.core({1, 3}).set_frequency(250 * MHz);
  EXPECT_EQ(moved.cpu_power_w(), 7 * 140.0 + 9.0);
  Cluster assigned = Cluster::homogeneous(sim, mach::p630(), 1, rng);
  assigned = std::move(moved);
  assigned.node(0).core(0).set_frequency(500 * MHz);
  EXPECT_EQ(assigned.cpu_power_w(), 6 * 140.0 + 9.0 + 35.0);
  EXPECT_EQ(assigned.cpu_power_w(), nested_power_w(assigned));
}

TEST(ClusterPowerLedger, OffTableFrequencyThrowsUntilATablePointReturns) {
  sim::Simulation sim;
  sim::Rng rng(1);
  Cluster c = Cluster::homogeneous(sim, mach::p630(), 2, rng);
  const double full = c.cpu_power_w();
  // 333 MHz is in the core's range but not an operating point.
  EXPECT_NO_THROW(c.core({1, 0}).set_frequency(333 * MHz));
  EXPECT_THROW(c.cpu_power_w(), std::out_of_range);
  EXPECT_THROW(c.node(1).cpu_power_w(), std::out_of_range);
  EXPECT_NO_THROW(c.core({0, 2}).set_frequency(777 * MHz));
  c.core({1, 0}).set_frequency(1 * GHz);
  EXPECT_THROW(c.cpu_power_w(), std::out_of_range);  // {0, 2} still off
  c.core({0, 2}).set_frequency(333 * MHz);
  EXPECT_THROW(c.cpu_power_w(), std::out_of_range);
  c.core({0, 2}).set_frequency(1 * GHz);
  EXPECT_EQ(c.cpu_power_w(), full);
  c.node(0).core(2).set_frequency(333 * MHz);
  c.node(0).reset_to_max_frequency();
  EXPECT_EQ(c.cpu_power_w(), full);
}

TEST(Channel, RejectsNegativeLatency) {
  EXPECT_THROW(Channel(-1.0), std::invalid_argument);
  EXPECT_THROW(Channel(0.1, -1.0), std::invalid_argument);
}

TEST(Channel, DeliversAfterLatency) {
  Channel ch(0.5);
  EXPECT_EQ(ch.transit(), std::optional<double>(0.5));
  EXPECT_EQ(ch.delivered(), 0u);  // counted when the delivery runs
  ch.arrived();
  EXPECT_EQ(ch.delivered(), 1u);
}

TEST(Channel, JitterStaysWithinBound) {
  Channel ch(0.1, 0.05, sim::Rng(3));
  std::vector<double> delays;
  for (int i = 0; i < 50; ++i) delays.push_back(ch.transit().value());
  for (double d : delays) {
    EXPECT_GE(d, 0.1);
    EXPECT_LT(d, 0.15);
  }
  EXPECT_NE(delays.front(), delays.back());
}

TEST(Channel, LossDropsExpectedFraction) {
  Channel ch(0.001, 0.0, sim::Rng(11));
  ch.set_loss_probability(0.25);
  int delivered = 0;
  for (int i = 0; i < 4000; ++i) {
    if (ch.transit()) {
      ch.arrived();
      ++delivered;
    }
  }
  EXPECT_NEAR(static_cast<double>(delivered) / 4000.0, 0.75, 0.03);
  EXPECT_EQ(ch.dropped(), 4000u - static_cast<std::size_t>(delivered));
  EXPECT_EQ(ch.delivered() + ch.dropped(), 4000u);
}

TEST(Channel, LossProbabilityValidated) {
  Channel ch(0.001);
  EXPECT_THROW(ch.set_loss_probability(-0.1), std::invalid_argument);
  EXPECT_THROW(ch.set_loss_probability(1.0), std::invalid_argument);
  EXPECT_NO_THROW(ch.set_loss_probability(0.0));
  // NaN fails every range comparison, so an unguarded implementation would
  // accept it and silently disable loss; it must be rejected instead.
  EXPECT_THROW(ch.set_loss_probability(std::nan("")),
               std::invalid_argument);
  EXPECT_THROW(ch.set_loss_probability(
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Channel, TransitAddsExtraDelay) {
  Channel ch(0.1);
  EXPECT_EQ(ch.transit(), std::optional<double>(0.1));
  EXPECT_EQ(ch.transit(0.25), std::optional<double>(0.25 + 0.1));
  EXPECT_THROW(ch.transit(-0.01), std::invalid_argument);
}

TEST(Channel, ExtraDelayDrawsNoRandomness) {
  // An extra delay must consume no randomness, so interleaving extra
  // delays leaves every later loss and jitter draw unchanged.  Two
  // channels seeded identically, one given an extra delay on every other
  // message, must drop the same messages and jitter the rest alike.
  Channel plain(0.01, 0.02, sim::Rng(77));
  Channel shimmed(0.01, 0.02, sim::Rng(77));
  plain.set_loss_probability(0.3);
  shimmed.set_loss_probability(0.3);
  for (int i = 0; i < 200; ++i) {
    const double extra = i % 2 ? 0.004 : 0.0;
    const std::optional<double> a = plain.transit();
    const std::optional<double> b = shimmed.transit(extra);
    ASSERT_EQ(a.has_value(), b.has_value()) << i;
    if (a) {
      EXPECT_DOUBLE_EQ(*b, *a + extra) << i;
    }
  }
  EXPECT_GT(plain.dropped(), 0u);
  EXPECT_EQ(plain.dropped(), shimmed.dropped());
}

}  // namespace
}  // namespace fvsst::cluster
