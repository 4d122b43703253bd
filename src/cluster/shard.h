// shard.h - Contiguous node slabs for locality-aware stepping.
//
// StepPool (parallel_stepper.h) made node stepping deterministic at any
// thread count; the shard layer decides which nodes each task steps:
//
//   ShardMap   cuts the cluster into contiguous slabs of nodes, balanced
//              by per-node CPU weight (a worker's slab is one
//              cache-friendly range, the idiom NUMA-aware schedulers use
//              for vCPU placement, instead of an `i mod N` interleave
//              that spreads every worker over the whole core array);
//   Shard      holds one slab's core pointers and their node ids, and
//              advances the slab's cores with cpu::Core::advance_to.
//
// Partitioning never changes simulation results: advancing a core touches
// only that core's state, and every ordered effect is committed serially
// in node order — the same contract StepPool::run documents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"

namespace fvsst::cluster {

/// One shard's contiguous slab of nodes (and the flattened CPU range the
/// slab covers in the cluster's node-major processor order).
struct ShardSpan {
  std::size_t first_node = 0;
  std::size_t node_count = 0;
  std::size_t first_cpu = 0;  ///< Flat index of the slab's first CPU.
  std::size_t cpu_count = 0;

  std::size_t end_node() const { return first_node + node_count; }
};

/// Locality-aware partition of a cluster into contiguous node slabs,
/// balanced by per-node CPU count (a heterogeneous cluster's fat nodes
/// count for their real weight).
class ShardMap {
 public:
  /// Cuts `cluster` into `shards` slabs; `shards` is clamped to [1,
  /// node_count] so every shard owns at least one node.  Shard boundaries
  /// fall at the CPU-weight quantiles, so slabs differ by at most one
  /// node's weight.
  ShardMap(const Cluster& cluster, std::size_t shards);

  /// The default shard count for `nodes` nodes: ~sqrt(nodes), the
  /// two-level fan-out that keeps both the per-shard slab and the
  /// root's child list O(sqrt N).
  static std::size_t auto_shards(std::size_t nodes);

  std::size_t size() const { return spans_.size(); }
  const ShardSpan& span(std::size_t s) const { return spans_.at(s); }
  const std::vector<ShardSpan>& spans() const { return spans_; }

  std::size_t total_cpus() const { return total_cpus_; }

 private:
  std::vector<ShardSpan> spans_;
  std::size_t total_cpus_ = 0;
};

/// One slab's cores, in node-major order.
class Shard {
 public:
  Shard(Cluster& cluster, ShardSpan span);

  const ShardSpan& span() const { return span_; }
  std::size_t core_count() const { return cores_.size(); }
  cpu::Core& core(std::size_t i) { return *cores_.at(i); }

  /// Global node index owning within-shard core `i`.
  std::size_t node_of_core(std::size_t i) const { return core_node_.at(i); }

  /// Advances every core in the slab that is behind `t` to absolute time
  /// `t`.  When `node_skip` is non-null it indexes *global* node ids;
  /// cores of flagged nodes are left alone — the crash-window contract of
  /// ClusterDaemon::agents_tick.
  void advance_to(double t, const unsigned char* node_skip = nullptr);

  /// Sweep statistics (for perfbench's skip ratio): advance_to calls, and
  /// cores those calls actually advanced.
  std::uint64_t sweeps() const { return sweeps_; }
  std::uint64_t cores_advanced() const { return cores_advanced_; }

 private:
  ShardSpan span_;
  std::vector<cpu::Core*> cores_;
  std::vector<std::uint32_t> core_node_;  // global node id per core
  std::uint64_t sweeps_ = 0;
  std::uint64_t cores_advanced_ = 0;
};

/// Builds one Shard per ShardMap slab.
std::vector<Shard> make_shards(Cluster& cluster, const ShardMap& map);

}  // namespace fvsst::cluster
