#include "cluster/node.h"

#include <stdexcept>

namespace fvsst::cluster {

Node::Node(sim::Simulation& sim, std::string name,
           const mach::MachineConfig& mc, sim::Rng& rng, const Options& opts)
    : Node(sim, std::move(name),
           std::make_shared<const mach::MachineConfig>(mc), rng, opts) {}

Node::Node(sim::Simulation& sim, std::string name,
           std::shared_ptr<const mach::MachineConfig> machine, sim::Rng& rng,
           const Options& opts)
    : name_(std::move(name)), machine_(std::move(machine)) {
  if (!machine_) throw std::invalid_argument("Node: null machine config");
  const mach::MachineConfig& mc = *machine_;
  cores_.reserve(mc.num_cpus);
  for (std::size_t i = 0; i < mc.num_cpus; ++i) {
    cpu::Core::Config cfg;
    cfg.name = name_ + "/cpu" + std::to_string(i);
    cfg.latencies = mc.latencies;
    cfg.max_hz = mc.nominal_hz;
    cfg.idle_ipc = mc.idle_ipc;
    cfg.idles_by_halting = mc.idles_by_halting;
    cfg.scaling_mode = opts.scaling_mode;
    cfg.counter_noise_sigma = opts.counter_noise_sigma;
    cfg.execution_noise_sigma = opts.execution_noise_sigma;
    cfg.quantum_s = opts.quantum_s;
    cores_.push_back(std::make_unique<cpu::Core>(sim, cfg, rng.fork()));
  }
}

double Node::cpu_power_w() const {
  double total = 0.0;
  for (const auto& core : cores_) {
    total += machine_->freq_table.power(core->frequency_hz());
  }
  return total;
}

double Node::total_power_w() const {
  return cpu_power_w() + machine_->non_cpu_power_w;
}

void Node::reset_to_max_frequency() {
  for (auto& core : cores_) {
    core->set_frequency(machine_->nominal_hz);
  }
}

}  // namespace fvsst::cluster
