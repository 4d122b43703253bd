#include "cluster/cluster.h"

#include <stdexcept>

namespace fvsst::cluster {

Cluster::Cluster(std::vector<std::unique_ptr<Node>> nodes)
    : ledger_(std::make_unique<cpu::PowerLedger>()),
      nodes_(std::move(nodes)) {
  if (nodes_.empty()) {
    throw std::invalid_argument("Cluster: no nodes");
  }
  ledger_->reserve(cpu_count(), nodes_.size());
  for (const auto& n : nodes_) {
    for (std::size_t c = 0; c < n->cpu_count(); ++c) {
      cpu::Core& core = n->core(c);
      core.attach_power_ledger(
          ledger_.get(),
          ledger_->add_cpu(n->machine().freq_table, core.frequency_hz()));
    }
    ledger_->close_group();
  }
}

Cluster Cluster::homogeneous(sim::Simulation& sim,
                             const mach::MachineConfig& mc, std::size_t count,
                             sim::Rng& rng, const Node::Options& opts) {
  const auto shared = std::make_shared<const mach::MachineConfig>(mc);
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nodes.push_back(std::make_unique<Node>(
        sim, "node" + std::to_string(i), shared, rng, opts));
  }
  return Cluster(std::move(nodes));
}

Cluster Cluster::heterogeneous(
    sim::Simulation& sim, const std::vector<mach::MachineConfig>& configs,
    sim::Rng& rng, const Node::Options& opts) {
  std::vector<std::unique_ptr<Node>> nodes;
  nodes.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    nodes.push_back(std::make_unique<Node>(
        sim, "node" + std::to_string(i), configs[i], rng, opts));
  }
  return Cluster(std::move(nodes));
}

std::size_t Cluster::cpu_count() const {
  std::size_t total = 0;
  for (const auto& n : nodes_) total += n->cpu_count();
  return total;
}

std::vector<ProcAddress> Cluster::all_procs() const {
  std::vector<ProcAddress> out;
  out.reserve(cpu_count());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    for (std::size_t c = 0; c < nodes_[n]->cpu_count(); ++c) {
      out.push_back({n, c});
    }
  }
  return out;
}

double Cluster::total_power_w() const {
  double total = 0.0;
  for (const auto& n : nodes_) total += n->total_power_w();
  return total;
}

}  // namespace fvsst::cluster
