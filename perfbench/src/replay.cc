// replay.cc - Daemon-free replays: the core model on the sampling lattice,
// the shard presync at 1 and at the tree's parallel step threads, the
// tree's leaf close and summary tree, and the cluster power query.
#include "replay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "cluster/parallel_stepper.h"
#include "cluster/shard.h"
#include "core/control_loop.h"
#include "core/scheduler.h"
#include "core/summary_tree.h"

namespace perfbench {

namespace {

/// Summary instant k (1-based) on the daemons' lattice: tick number m
/// fires at origin + (m - 1) t with origin = t, and round k closes at tick
/// k * n.
double round_instant(const Inputs& in, std::size_t k) {
  return in.t_sample_s +
         static_cast<double>(k * static_cast<std::size_t>(in.multiplier) - 1) *
             in.t_sample_s;
}

/// A fresh cluster from the run's inputs, cut into the tree's automatic
/// shards, every core on the daemons' sampling lattice.
struct World {
  explicit World(const Inputs& in) {
    cluster = build_cluster(in, sim);
    map = std::make_unique<cluster::ShardMap>(
        *cluster, cluster::ShardMap::auto_shards(in.nodes));
    shards = cluster::make_shards(*cluster, *map);
    for (const auto& addr : cluster->all_procs()) {
      cluster->core(addr).set_sampling_grid(in.t_sample_s, in.t_sample_s,
                                            /*recurring_steal_s=*/0.0,
                                            /*record_history=*/true);
    }
  }

  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<cluster::ShardMap> map;
  std::vector<cluster::Shard> shards;
};

/// One leaf coordinator's stages, as TreeDaemon wires them.
struct Leaf {
  std::unique_ptr<core::SimCoreSampler> sampler;
  std::unique_ptr<core::IpcEstimator> estimator;
  std::vector<core::ProcView> views;
  std::vector<core::IntervalSample> interval;
  std::vector<std::uint16_t> desired;
  std::vector<std::uint16_t> granted;
  core::ShardSummary summary;
};

/// One leaf per shard of the world's map.
std::vector<Leaf> make_leaves(World& world,
                              const mach::MemoryLatencies& latencies) {
  std::vector<Leaf> leaves;
  for (const cluster::ShardSpan& span : world.map->spans()) {
    std::vector<cluster::ProcAddress> procs;
    for (std::size_t n = span.first_node; n < span.end_node(); ++n) {
      for (std::size_t c = 0; c < world.cluster->node(n).cpu_count(); ++c) {
        procs.push_back({n, c});
      }
    }
    Leaf leaf;
    leaf.sampler = std::make_unique<core::SimCoreSampler>(
        *world.cluster, std::move(procs),
        core::SimCoreSampler::ResetPolicy::kOnElapsed, 0.0);
    leaf.estimator = std::make_unique<core::IpcEstimator>(
        latencies, core::IpcEstimator::Options());
    leaf.views.resize(leaf.sampler->cpu_count());
    leaf.desired.resize(leaf.sampler->cpu_count());
    leaves.push_back(std::move(leaf));
  }
  return leaves;
}

double power_query_s(World& world) {
  const std::size_t cpus = world.cluster->cpu_count();
  const std::size_t batch = std::max<std::size_t>(1, 20000 / cpus);
  std::vector<double> per_call;
  double sink = 0.0;
  for (int b = 0; b < 15; ++b) {
    const std::int64_t t0 = host_now_ns();
    for (std::size_t i = 0; i < batch; ++i) sink += world.cluster->cpu_power_w();
    per_call.push_back(static_cast<double>(host_now_ns() - t0) * 1e-9 /
                       static_cast<double>(batch));
  }
  if (sink < 0.0) per_call.push_back(sink);  // keeps the calls observable
  return median(per_call);
}

/// Replays `rounds` rounds of presync on `threads` threads.  On the tree
/// workload each is followed by the serial leaf close (which drains the
/// cores' counter histories) and the summary tree; the other workloads'
/// daemons run neither, so their histories are just drained, untimed.
/// With `out` non-null the leaf close, summary tree and power query are
/// timed into it.
double model_pass(const Inputs& in, int threads, std::size_t rounds,
                  double budget_w, ReplayResult* out) {
  World world(in);
  if (out) out->power_query_s = power_query_s(world);
  cluster::StepPool pool(threads);
  const bool tree = in.workload == Workload::kTree20k;
  const mach::MachineConfig machine = workload_machine(in);
  const mach::FrequencyTable& table = machine.freq_table;
  const mach::MemoryLatencies& latencies = machine.latencies;
  const core::FrequencyScheduler scheduler(table, latencies,
                                           core::SchedulerOptions());
  std::vector<core::MicroWatts> pw_uw;
  for (const auto& p : table.points()) pw_uw.push_back(core::to_microwatts(p.watts));

  std::vector<Leaf> leaves;
  if (tree) leaves = make_leaves(world, latencies);
  const std::size_t aggs = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(std::sqrt(static_cast<double>(leaves.size())))));
  std::vector<double> schedule_call_s;

  double model_s = 0.0;
  double leaf_s = 0.0;
  double tree_s = 0.0;
  std::vector<cpu::PerfCounters> drained;
  for (std::size_t k = 1; k <= rounds; ++k) {
    const double now = round_instant(in, k);
    world.sim.run_until(now);
    const std::int64_t t0 = host_now_ns();
    pool.run(world.shards.size(),
             [&world, now](std::size_t s) { world.shards[s].advance_to(now); });
    const std::int64_t t1 = host_now_ns();
    model_s += static_cast<double>(t1 - t0) * 1e-9;
    if (!tree) {
      for (cluster::Shard& shard : world.shards) {
        for (std::size_t i = 0; i < shard.core_count(); ++i) {
          drained.clear();
          shard.core(i).drain_counter_history(drained);
        }
      }
      continue;
    }

    for (Leaf& leaf : leaves) {
      leaf.sampler->collect();
      leaf.sampler->end_interval(now, leaf.interval);
      leaf.estimator->update(leaf.interval, leaf.views);
      const std::int64_t c0 = host_now_ns();
      const core::ScheduleResult result = scheduler.schedule(
          leaf.views, std::numeric_limits<double>::infinity());
      schedule_call_s.push_back(static_cast<double>(host_now_ns() - c0) * 1e-9);
      core::ShardSummary& summary = leaf.summary;
      summary = core::ShardSummary();
      summary.round = k;
      summary.desired.assign(table.size(), 0);
      for (std::size_t i = 0; i < leaf.views.size(); ++i) {
        const std::size_t idx = *table.index_of(result.decisions[i].hz);
        leaf.desired[i] = static_cast<std::uint16_t>(idx);
        summary.desired[idx] += 1;
        summary.cpus += 1;
        summary.idle += leaf.views[i].idle ? 1 : 0;
        summary.desired_power_uw += pw_uw[idx];
      }
    }
    const std::int64_t t2 = host_now_ns();
    leaf_s += static_cast<double>(t2 - t1) * 1e-9;

    // Aggregate tier: contiguous leaf ranges; root: their merge.
    std::vector<core::ShardSummary> agg(aggs);
    core::ShardSummary total;
    total.desired.assign(table.size(), 0);
    for (std::size_t a = 0; a < aggs; ++a) {
      agg[a].desired.assign(table.size(), 0);
      const std::size_t lo = a * leaves.size() / aggs;
      const std::size_t hi = (a + 1) * leaves.size() / aggs;
      for (std::size_t l = lo; l < hi; ++l) agg[a].merge(leaves[l].summary);
      total.merge(agg[a]);
    }
    const core::CapProfile profile =
        core::compute_cap_profile(total, table, budget_w);
    std::vector<std::uint64_t> agg_above(aggs);
    for (std::size_t a = 0; a < aggs; ++a) agg_above[a] = agg[a].above(profile.cap);
    const std::vector<std::uint64_t> agg_quota =
        core::split_quota(agg_above, profile.promote);
    for (std::size_t a = 0; a < aggs; ++a) {
      const std::size_t lo = a * leaves.size() / aggs;
      const std::size_t hi = (a + 1) * leaves.size() / aggs;
      std::vector<std::uint64_t> child_above;
      for (std::size_t l = lo; l < hi; ++l) {
        child_above.push_back(leaves[l].summary.above(profile.cap));
      }
      const std::vector<std::uint64_t> quota =
          core::split_quota(child_above, agg_quota[a]);
      for (std::size_t l = lo; l < hi; ++l) {
        core::apply_cap_profile(leaves[l].desired, profile, quota[l - lo],
                                leaves[l].granted);
      }
    }
    tree_s += static_cast<double>(host_now_ns() - t2) * 1e-9;
  }
  if (out) {
    out->schedule_call_s = std::move(schedule_call_s);
    const double r = static_cast<double>(std::max<std::size_t>(1, rounds));
    out->leaf_close_s_per_round = leaf_s / r;
    out->summary_tree_s_per_round = tree_s / r;
  }
  return model_s / static_cast<double>(std::max<std::size_t>(1, rounds));
}

}  // namespace

ReplayResult run_replays(const Inputs& in, double budget_w) {
  ReplayResult out;
  out.rounds = static_cast<std::size_t>(
      std::llround(in.duration_s / in.period_s()));
  out.model_s_per_round_1t = model_pass(in, 1, out.rounds, budget_w, &out);
  if (in.parallel_threads > 1) {
    out.model_s_per_round_mt =
        model_pass(in, in.parallel_threads, out.rounds, budget_w, nullptr);
  }
  return out;
}

}  // namespace perfbench
