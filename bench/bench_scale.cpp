// bench_scale - Scale-out sweep of the cluster simulation substrate: wall
// time and speedup of the deterministic parallel node stepper across node
// counts and thread counts, with a built-in determinism audit.
//
// Every (nodes, threads) cell runs the same scenario — uniform synthetic
// load, a mid-run budget drop, the distributed ClusterDaemon — and records
// wall time plus a fingerprint of the decision journal's serialized bytes
// and the final core state, which must match bit-for-bit across thread
// counts or the bench exits nonzero.
//
// A second sweep compares the flat single-coordinator daemon against the
// hierarchical coordinator tree at O(1k-100k) nodes on the headline
// metric nodes*sim-seconds per wall-second.  The flat daemon's per-node
// agents and per-node channel traffic make it O(nodes) per sample tick;
// the tree's batched SoA shard sweeps and O(shards) summary traffic are
// what let the same scenario scale two orders of magnitude further.
//
// Usage:
//   bench_scale [--smoke]
//     --smoke   small sweep (4 nodes, threads 1-2, short run) plus the
//               topology gate (tree >= flat at 10k nodes, tree completes
//               100k nodes) for CI
#include "bench/common.h"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/cluster_daemon.h"
#include "core/tree_daemon.h"
#include "simkit/event_log.h"

using namespace fvsst;

namespace {

struct ScaleResult {
  double wall_s = 0.0;
  std::uint64_t fingerprint = 0;  ///< Journal + final core state.
  std::size_t journal_events = 0;
};

// FNV-1a over a byte range.
void fnv(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

void fnv_d(std::uint64_t& h, double v) { fnv(h, &v, sizeof v); }

std::uint64_t fingerprint_journal(const sim::EventLog& log) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  std::string line;
  for (const sim::Event& e : log.events()) {
    line.clear();
    sim::append_event_jsonl(line, e);
    fnv(h, line.data(), line.size());
  }
  return h;
}

ScaleResult run_cell(std::size_t nodes, int threads, double duration_s) {
  sim::Simulation sim;
  sim::Rng rng(17);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, nodes, rng);
  for (const auto& addr : cluster.all_procs()) {
    cluster.core(addr).add_workload(
        workload::make_uniform_synthetic(70.0, 1e12));
  }
  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  sim.schedule_at(duration_s * 0.5, [&] { budget.set_limit_w(peak * 0.45); });

  sim::EventLog journal;
  core::ClusterDaemonConfig cfg;
  cfg.journal = &journal;
  cfg.step_threads = threads;
  core::ClusterDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);

  const auto start = std::chrono::steady_clock::now();
  sim.run_for(duration_s);
  const auto stop = std::chrono::steady_clock::now();

  ScaleResult out;
  out.wall_s = std::chrono::duration<double>(stop - start).count();
  out.journal_events = journal.size();
  out.fingerprint = fingerprint_journal(journal);
  for (const auto& addr : cluster.all_procs()) {
    auto& core = cluster.core(addr);
    fnv_d(out.fingerprint, core.frequency_hz());
    fnv_d(out.fingerprint, core.instructions_retired());
  }
  return out;
}

// ---- Topology sweep: flat coordinator vs hierarchical tree ---------------

/// One scale cell: uniform load, a mid-run budget drop, and either the
/// flat ClusterDaemon or the TreeDaemon.  Single-CPU nodes keep the core
/// count equal to the node count so "nodes" is the honest scale axis.
/// Returns nodes * simulated seconds per wall second.
double run_topology_cell(std::size_t nodes, bool tree, double duration_s) {
  sim::Simulation sim;
  sim::Rng rng(17);
  mach::MachineConfig machine = mach::p630();
  machine.name = "p630-1cpu";
  machine.num_cpus = 1;
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, nodes, rng);
  for (const auto& addr : cluster.all_procs()) {
    cluster.core(addr).add_workload(
        workload::make_uniform_synthetic(70.0, 1e12));
  }
  const double peak = static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(peak);
  sim.schedule_at(duration_s * 0.5, [&] { budget.set_limit_w(peak * 0.45); });

  std::unique_ptr<core::ClusterDaemon> flat_daemon;
  std::unique_ptr<core::TreeDaemon> tree_daemon;
  if (tree) {
    core::TreeDaemonConfig cfg;
    tree_daemon = std::make_unique<core::TreeDaemon>(
        sim, cluster, machine.freq_table, budget, cfg);
  } else {
    core::ClusterDaemonConfig cfg;
    flat_daemon = std::make_unique<core::ClusterDaemon>(
        sim, cluster, machine.freq_table, budget, cfg);
  }

  const auto start = std::chrono::steady_clock::now();
  sim.run_for(duration_s);
  const auto stop = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(stop - start).count();
  return static_cast<double>(nodes) * duration_s / wall_s;
}

/// Runs the topology comparison and (in smoke mode) enforces the scaling
/// gates.  Returns the number of gate failures.
int topology_sweep(bool smoke) {
  // The smoke skips the flat 100k cell, which takes several wall-seconds.
  const std::vector<std::size_t> tree_nodes = {1000, 10000, 100000};
  const std::vector<std::size_t> flat_nodes =
      smoke ? std::vector<std::size_t>{1000, 10000}
            : std::vector<std::size_t>{1000, 10000, 100000};
  const double duration_s = smoke ? 0.25 : 0.5;

  sim::TextTable table("Topology scale-out (" +
                       sim::TextTable::num(duration_s, 2) +
                       " s simulated, single-CPU nodes, event advance)");
  table.set_header({"nodes", "topology", "nodes*sim-s / wall-s"});
  std::vector<double> flat_rate(tree_nodes.size(), 0.0);
  std::vector<double> tree_rate(tree_nodes.size(), 0.0);
  for (std::size_t i = 0; i < tree_nodes.size(); ++i) {
    const std::size_t n = tree_nodes[i];
    for (std::size_t f : flat_nodes) {
      if (f == n) {
        flat_rate[i] = run_topology_cell(n, /*tree=*/false, duration_s);
        table.add_row({sim::TextTable::num(n, 0), "flat",
                       sim::TextTable::num(flat_rate[i], 0)});
      }
    }
    tree_rate[i] = run_topology_cell(n, /*tree=*/true, duration_s);
    table.add_row({sim::TextTable::num(n, 0), "tree",
                   sim::TextTable::num(tree_rate[i], 0)});
  }
  table.print();
  std::printf(
      "Expected: the tree's throughput advantage widens with the node\n"
      "count — its summary traffic is O(shards) = O(sqrt(nodes)) per round\n"
      "while the flat daemon runs per-node agents and channels.\n");

  int failures = 0;
  if (smoke) {
    // Gate A: at 10k nodes the tree must at least match the flat daemon.
    if (tree_rate[1] < flat_rate[1]) {
      std::fprintf(stderr,
                   "bench_scale: FAILED — tree slower than flat at 10k "
                   "nodes (%.0f < %.0f nodes*sim-s/wall-s)\n",
                   tree_rate[1], flat_rate[1]);
      ++failures;
    }
    // Gate B: the 100k-node tree cell must complete and make progress.
    if (!(tree_rate[2] > 0.0)) {
      std::fprintf(stderr,
                   "bench_scale: FAILED — 100k-node tree cell made no "
                   "progress\n");
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::vector<std::size_t> node_counts = smoke
                                             ? std::vector<std::size_t>{4}
                                             : std::vector<std::size_t>{
                                                   16, 64, 256};
  std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const double duration_s = smoke ? 0.5 : 2.0;

  bench::banner("Scale sweep",
                "Parallel node stepping: wall time, speedup, determinism");

  sim::TextTable table("Cluster step throughput (budget drop mid-run, " +
                       sim::TextTable::num(duration_s, 1) + " s simulated)");
  table.set_header({"nodes", "threads", "wall ms", "speedup", "sim s / wall s",
                    "journal", "deterministic"});
  bool all_match = true;
  for (std::size_t nodes : node_counts) {
    std::uint64_t reference = 0;
    double serial_wall = 0.0;
    for (int threads : thread_counts) {
      const ScaleResult r = run_cell(nodes, threads, duration_s);
      if (threads == 1) {
        reference = r.fingerprint;
        serial_wall = r.wall_s;
      }
      const bool match = r.fingerprint == reference;
      all_match = all_match && match;
      table.add_row({sim::TextTable::num(nodes, 0),
                     sim::TextTable::num(threads, 0),
                     sim::TextTable::num(r.wall_s * 1e3, 1),
                     sim::TextTable::num(serial_wall / r.wall_s, 2),
                     sim::TextTable::num(duration_s / r.wall_s, 2),
                     sim::TextTable::num(r.journal_events, 0),
                     match ? "yes" : "NO"});
    }
  }
  table.print();
  std::printf(
      "Expected: every thread count reproduces the --threads 1 journal and\n"
      "final core state exactly (the stepper's fixed partition and tick-\n"
      "boundary sync make thread count invisible to the simulation); the\n"
      "speedup column tracks available hardware parallelism and stays ~1.0\n"
      "on a single-CPU host.\n");
  int failures = all_match ? 0 : 1;
  if (!all_match) {
    std::fprintf(stderr,
                 "bench_scale: FAILED — thread count changed the result\n");
  }
  failures += topology_sweep(smoke);
  return failures == 0 ? 0 : 1;
}
