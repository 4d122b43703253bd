// bench_micro_scheduler - google-benchmark microbenchmarks of the hot
// paths: the IPC predictor and the scheduling calculation.  These bound
// the daemon overhead the paper's Figure 4 measures end to end: at
// T = 100 ms, even a 4-CPU schedule costing a few microseconds is far
// below the ~3% throughput budget.
#include <benchmark/benchmark.h>

#include "core/predictor.h"
#include "core/scheduler.h"
#include "mach/machine_config.h"
#include "simkit/rng.h"

namespace {

using namespace fvsst;

std::vector<core::ProcView> random_views(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<core::ProcView> views(n);
  for (auto& v : views) {
    v.estimate.valid = true;
    v.estimate.alpha_inv = 1.0 / rng.uniform(0.9, 2.0);
    v.estimate.mem_time_per_instr = rng.uniform(0.0, 15.0) / 1e9;
    v.idle = rng.bernoulli(0.15);
  }
  return views;
}

void BM_PredictorEstimate(benchmark::State& state) {
  const core::IpcPredictor pred(mach::p630().latencies);
  core::CounterObservation obs;
  obs.measured_hz = 1e9;
  obs.delta.instructions = 1e8;
  obs.delta.cycles = 4e8;
  obs.delta.l2_accesses = 1e6;
  obs.delta.l3_accesses = 4e5;
  obs.delta.mem_accesses = 8e5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.estimate(obs));
  }
}
BENCHMARK(BM_PredictorEstimate);

void BM_PredictIpc(benchmark::State& state) {
  const core::IpcPredictor pred(mach::p630().latencies);
  core::WorkloadEstimate est;
  est.valid = true;
  est.alpha_inv = 0.7;
  est.mem_time_per_instr = 4e-9;
  double hz = 250e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.predict_ipc(est, hz));
    hz = hz >= 1e9 ? 250e6 : hz + 50e6;
  }
}
BENCHMARK(BM_PredictIpc);

void BM_IdealFrequency(benchmark::State& state) {
  core::WorkloadEstimate est;
  est.valid = true;
  est.alpha_inv = 0.7;
  est.mem_time_per_instr = 4e-9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ideal_frequency(est, 1e9, 0.04));
  }
}
BENCHMARK(BM_IdealFrequency);

template <core::SchedulerVariant V>
void BM_Schedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::FrequencyScheduler::Options opts;
  opts.variant = V;
  const core::FrequencyScheduler sched(mach::p630_frequency_table(),
                                       mach::p630().latencies, opts);
  const auto views = random_views(n, 42);
  const double budget = 60.0 * static_cast<double>(n);  // forces downgrades
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.schedule(views, budget));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK_TEMPLATE(BM_Schedule, core::SchedulerVariant::kTwoPass)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();
BENCHMARK_TEMPLATE(BM_Schedule, core::SchedulerVariant::kContinuous)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
