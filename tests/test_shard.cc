// test_shard - The locality-aware shard partition and the slab advance:
// slabs are contiguous and balanced, and a shard sweep is equivalent to
// advancing each core on its own.
#include "cluster/shard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "mach/machine_config.h"
#include "simkit/event_queue.h"
#include "simkit/rng.h"
#include "workload/synthetic.h"

namespace fvsst {
namespace {

cluster::Cluster make_cluster(sim::Simulation& sim, sim::Rng& rng,
                              std::size_t nodes) {
  cluster::Cluster c =
      cluster::Cluster::homogeneous(sim, mach::p630(), nodes, rng);
  // A few busy cores so advancing actually moves state.
  c.core({0, 0}).add_workload(workload::make_uniform_synthetic(90.0, 1e12));
  c.core({nodes / 2, 1})
      .add_workload(workload::make_uniform_synthetic(45.0, 1e12));
  c.core({nodes - 1, 0})
      .add_workload(workload::make_uniform_synthetic(70.0, 1e12));
  return c;
}

// --- ShardMap -------------------------------------------------------------

TEST(ShardMap, SlabsAreContiguousAndCoverEveryNodeOnce) {
  sim::Simulation sim;
  sim::Rng rng(9);
  cluster::Cluster c = make_cluster(sim, rng, 13);
  for (std::size_t shards : {1u, 2u, 5u, 13u, 40u}) {
    const cluster::ShardMap map(c, shards);
    EXPECT_LE(map.size(), c.node_count());
    EXPECT_GE(map.size(), 1u);
    std::size_t next_node = 0, next_cpu = 0;
    for (std::size_t s = 0; s < map.size(); ++s) {
      const cluster::ShardSpan& span = map.span(s);
      EXPECT_EQ(span.first_node, next_node) << "gap before shard " << s;
      EXPECT_EQ(span.first_cpu, next_cpu);
      EXPECT_GE(span.node_count, 1u);
      next_node = span.end_node();
      next_cpu += span.cpu_count;
    }
    EXPECT_EQ(next_node, c.node_count());
    EXPECT_EQ(next_cpu, c.cpu_count());
    EXPECT_EQ(map.total_cpus(), c.cpu_count());
    // Each shard holds its span's cores, in node-major order.
    const std::vector<cluster::ProcAddress> procs = c.all_procs();
    std::vector<cluster::Shard> shards = cluster::make_shards(c, map);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const cluster::ShardSpan& span = map.span(s);
      ASSERT_EQ(shards[s].core_count(), span.cpu_count);
      for (std::size_t i = 0; i < shards[s].core_count(); ++i) {
        const cluster::ProcAddress& addr = procs[span.first_cpu + i];
        EXPECT_EQ(shards[s].node_of_core(i), addr.node);
        EXPECT_EQ(&shards[s].core(i), &c.core(addr));
      }
    }
  }
}

TEST(ShardMap, BalancedByCpuWeight) {
  sim::Simulation sim;
  sim::Rng rng(9);
  cluster::Cluster c = make_cluster(sim, rng, 16);
  const cluster::ShardMap map(c, 4);
  ASSERT_EQ(map.size(), 4u);
  const std::size_t per_node = c.node(0).cpu_count();
  for (std::size_t s = 0; s < map.size(); ++s) {
    // Homogeneous nodes, 16 over 4: exactly 4 nodes per slab.
    EXPECT_EQ(map.span(s).node_count, 4u);
    EXPECT_EQ(map.span(s).cpu_count, 4u * per_node);
  }
}

TEST(ShardMap, AutoShardsScalesAsSqrt) {
  EXPECT_EQ(cluster::ShardMap::auto_shards(1), 1u);
  for (std::size_t n : {16u, 100u, 1024u, 10000u}) {
    const std::size_t s = cluster::ShardMap::auto_shards(n);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, n);
    const double root = std::sqrt(static_cast<double>(n));
    EXPECT_GE(static_cast<double>(s), root / 2.0) << n;
    EXPECT_LE(static_cast<double>(s), root * 2.0) << n;
  }
}

// --- Shard advance --------------------------------------------------------

std::string core_digest(cluster::Cluster& c) {
  std::string out;
  for (const auto& addr : c.all_procs()) {
    auto& core = c.core(addr);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%zu.%zu hz=%.17g instr=%.17g\n",
                  addr.node, addr.cpu, core.frequency_hz(),
                  core.instructions_retired());
    out += buf;
  }
  return out;
}

TEST(Shard, SweepMatchesPerCoreAdvance) {
  // Two identical clusters: one advanced through shard sweeps, one core by
  // core.  Same seeds, same times — the final state must be bit-identical.
  sim::Simulation sim_a, sim_b;
  sim::Rng rng_a(31), rng_b(31);
  cluster::Cluster a = make_cluster(sim_a, rng_a, 9);
  cluster::Cluster b = make_cluster(sim_b, rng_b, 9);

  const cluster::ShardMap map(a, 3);
  std::vector<cluster::Shard> shards = cluster::make_shards(a, map);

  std::uint64_t advanced_after_third = 0;
  for (double t : {0.01, 0.25, 1.0, 1.0}) {
    for (cluster::Shard& s : shards) s.advance_to(t);
    for (const auto& addr : b.all_procs()) {
      b.core(addr).advance_to(t);
    }
    if (t == 1.0 && advanced_after_third == 0) {
      for (const cluster::Shard& s : shards)
        advanced_after_third += s.cores_advanced();
    }
  }
  EXPECT_EQ(core_digest(a), core_digest(b));

  std::uint64_t advanced = 0;
  for (const cluster::Shard& s : shards) {
    EXPECT_EQ(s.sweeps(), 4u);
    advanced += s.cores_advanced();
  }
  // The repeated sweep at 1.0 finds every core synced: the advanced
  // counter must not grow.
  EXPECT_GT(advanced, 0u);
  EXPECT_EQ(advanced, advanced_after_third);
}

TEST(Shard, NodeSkipLeavesFlaggedNodesBehind) {
  sim::Simulation sim;
  sim::Rng rng(5);
  cluster::Cluster c = make_cluster(sim, rng, 6);
  const cluster::ShardMap map(c, 2);
  std::vector<cluster::Shard> shards = cluster::make_shards(c, map);

  std::vector<unsigned char> skip(c.node_count(), 0);
  skip[0] = 1;  // flagged by *global* node id
  for (cluster::Shard& s : shards) s.advance_to(0.5, skip.data());

  for (std::size_t i = 0; i < shards[0].core_count(); ++i) {
    const bool flagged = shards[0].node_of_core(i) == 0;
    const double synced = shards[0].core(i).synced_until();
    if (flagged) {
      EXPECT_LT(synced, 0.5) << "core " << i << " advanced despite skip";
    } else {
      EXPECT_GE(synced, 0.5) << "core " << i;
    }
  }
  // A later unflagged sweep catches the node up.
  for (cluster::Shard& s : shards) s.advance_to(0.5);
  for (std::size_t i = 0; i < shards[0].core_count(); ++i) {
    EXPECT_GE(shards[0].core(i).synced_until(), 0.5);
  }
}

}  // namespace
}  // namespace fvsst
