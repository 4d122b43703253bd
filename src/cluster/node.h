// node.h - One machine (SMP node) built from a MachineConfig.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "mach/machine_config.h"
#include "simkit/event_queue.h"
#include "simkit/rng.h"

namespace fvsst::cluster {

/// An SMP node: a set of cores sharing one machine description.  Node power
/// is the sum of per-core peak power at each core's *requested* operating
/// point (the paper's upper-bound convention: "this calculation ignores
/// clock gating, but it provides an upper bound on power") plus the
/// frequency-independent non-CPU power.
/// Per-node core construction options.
struct NodeOptions {
  cpu::ScalingMode scaling_mode = cpu::ScalingMode::kIdealDvfs;
  double counter_noise_sigma = 0.01;
  double execution_noise_sigma = 0.005;
  double quantum_s = 0.010;
};

class Node {
 public:
  using Options = NodeOptions;

  /// A node with its own copy of `mc`.
  Node(sim::Simulation& sim, std::string name, const mach::MachineConfig& mc,
       sim::Rng& rng, const Options& opts = NodeOptions());

  /// A node sharing the immutable description `mc` (non-null) with every
  /// other node built from the same pointer (Cluster::homogeneous).
  Node(sim::Simulation& sim, std::string name,
       std::shared_ptr<const mach::MachineConfig> mc, sim::Rng& rng,
       const Options& opts = NodeOptions());

  const std::string& name() const { return name_; }
  const mach::MachineConfig& machine() const { return *machine_; }

  std::size_t cpu_count() const { return cores_.size(); }
  cpu::Core& core(std::size_t i) { return *cores_.at(i); }
  const cpu::Core& core(std::size_t i) const { return *cores_.at(i); }

  /// Aggregate CPU power at the currently requested operating points.
  double cpu_power_w() const;

  /// CPU power plus the node's frequency-independent overhead.
  double total_power_w() const;

  /// Sets every core to the machine's maximum frequency.
  void reset_to_max_frequency();

 private:
  std::string name_;
  std::shared_ptr<const mach::MachineConfig> machine_;
  std::vector<std::unique_ptr<cpu::Core>> cores_;
};

}  // namespace fvsst::cluster
