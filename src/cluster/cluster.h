// cluster.h - A collection of nodes under one global power budget.
//
// The paper's power limit "is a global one" spanning every processor of
// every node.  Cluster flattens (node, cpu) pairs for the scheduler and
// aggregates power for the sensors and the cascade monitor.  A single SMP
// server is simply a one-node cluster.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "cluster/node.h"
#include "cpu/power_ledger.h"

namespace fvsst::cluster {

/// Addressing a processor within the cluster.
struct ProcAddress {
  std::size_t node = 0;
  std::size_t cpu = 0;
};

/// A set of nodes treated as one scheduling domain.
class Cluster {
 public:
  explicit Cluster(std::vector<std::unique_ptr<Node>> nodes);

  /// Builds `count` identical nodes sharing one copy of the machine
  /// description.
  static Cluster homogeneous(sim::Simulation& sim, const mach::MachineConfig&,
                             std::size_t count, sim::Rng& rng,
                             const Node::Options& opts = NodeOptions());

  /// Builds one node per machine description (mixed generations, derated
  /// bins — the heterogeneous case of paper Sec. 5), each with its own
  /// copy.
  static Cluster heterogeneous(sim::Simulation& sim,
                               const std::vector<mach::MachineConfig>& configs,
                               sim::Rng& rng,
                               const Node::Options& opts = NodeOptions());

  std::size_t node_count() const { return nodes_.size(); }
  Node& node(std::size_t i) { return *nodes_.at(i); }
  const Node& node(std::size_t i) const { return *nodes_.at(i); }

  /// Total number of processors across nodes.
  std::size_t cpu_count() const;

  /// Flattened processor addresses in (node-major) order.
  std::vector<ProcAddress> all_procs() const;

  cpu::Core& core(const ProcAddress& addr) {
    return nodes_.at(addr.node)->core(addr.cpu);
  }

  /// Aggregate CPU power of the whole cluster (the quantity the paper's
  /// budget constrains).  Every core reports its set-point changes to a
  /// ledger the cluster owns.  When every table's watts are integers (P630
  /// Table 1; see cpu::PowerLedger::exact), a set-point change updates the
  /// total in O(1) and every query is O(1).  Otherwise (scaled derated
  /// bins) a query between changes returns the cached total and the first
  /// query after a change re-sums the contiguous per-CPU watts in O(N).
  /// Either way the value is bit-identical to the walk
  /// Σ_n node(n).cpu_power_w(), added node by node into 0.0.  Throws
  /// std::out_of_range while any core sits at an off-table frequency.
  double cpu_power_w() const { return ledger_->total_w(); }

  /// The ledger behind cpu_power_w().
  const cpu::PowerLedger& power_ledger() const { return *ledger_; }

  /// CPU power plus every node's non-CPU overhead.
  double total_power_w() const;

 private:
  // Declared before nodes_ so every core is destroyed before the ledger it
  // reports to; on the heap so the address the cores hold survives moves.
  std::unique_ptr<cpu::PowerLedger> ledger_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace fvsst::cluster
