// bench_fig4_overhead - Regenerates paper Figure 4: performance impact of
// running fvsst on the synthetic benchmark's reported throughput.
//
// Paper shape: degradation is largest for CPU-intensive settings but never
// exceeds ~3%; it contains both daemon overhead and misprediction cost.
#include "bench/common.h"

using namespace fvsst;

namespace {

double throughput(double intensity, bool with_daemon) {
  sim::Simulation sim;
  sim::Rng rng(7 + static_cast<std::uint64_t>(intensity));
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 1, rng);
  // Looping two-phase benchmark on CPU 3; pass count is the reported
  // throughput metric.
  // Phase lengths of hundreds of milliseconds — longer than T = 100 ms, so
  // the daemon can track them (the paper's phases are on this scale).
  workload::SyntheticParams params;
  params.phase1 = {intensity, 4e8};
  params.phase2 = {std::max(0.0, intensity - 20.0), 2e8};
  cluster.core({0, 3}).add_workload(workload::make_synthetic(params));

  power::PowerBudget budget(4 * 140.0);
  std::unique_ptr<core::FvsstDaemon> daemon;
  if (with_daemon) {
    core::DaemonConfig cfg = bench::paper_daemon_config();
    cfg.daemon_cpu = 3;  // worst case: the daemon shares the benchmark CPU
    cfg.scheduler.idle_detection = false;
    daemon = std::make_unique<core::FvsstDaemon>(
        sim, cluster, machine.freq_table, budget, cfg);
  }
  sim.run_for(10.0);
  return cluster.core({0, 3}).instructions_retired();
}

}  // namespace

int main() {
  bench::banner("Figure 4",
                "Throughput impact of fvsst on the synthetic benchmark");

  sim::TextTable out("Relative throughput with fvsst (1.0 = without fvsst)");
  out.set_header({"CPU intensity", "without", "with fvsst", "impact"});
  double worst = 0.0;
  for (double intensity : {100.0, 75.0, 50.0, 25.0}) {
    const double base = throughput(intensity, false);
    const double with = throughput(intensity, true);
    const double impact = 1.0 - with / base;
    worst = std::max(worst, impact);
    out.add_row({sim::TextTable::num(intensity, 0) + "%",
                 sim::TextTable::num(base / 1e9, 2) + "e9 instr",
                 sim::TextTable::num(with / 1e9, 2) + "e9 instr",
                 sim::TextTable::pct(impact, 2)});
  }
  out.print();
  std::printf("Worst-case impact: %.2f%% (paper: no more than ~3%%).\n",
              worst * 100.0);

  std::printf(
      "Shape to reproduce: the impact stays within ~epsilon (4%%) at every\n"
      "setting — it bundles daemon overhead, misprediction cost, and the\n"
      "deliberate epsilon-bounded slowdown.  In our analytic saturation\n"
      "model the epsilon term dominates for memory-leaning settings (loss\n"
      "approaches epsilon asymptotically), whereas the paper's hardware\n"
      "saturates more sharply and showed its largest impact on the\n"
      "CPU-intensive settings instead; both stay at or under ~3%%.\n");
  return 0;
}
