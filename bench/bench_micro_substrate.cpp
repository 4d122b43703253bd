// bench_micro_substrate - google-benchmark microbenchmarks of the
// simulation substrate: event queue, RNG, cache model, the core's
// execution loop, the metric registry's string vs interned-handle paths,
// and journal serialization.  These bound how much simulated time per wall
// second the experiment harness can deliver.
//
// The registry and journal benches also report "allocs/iter" (counted via
// this TU's operator new) so the zero-allocation claim of the handle path
// is measured, not asserted.
//
// `--smoke` skips google-benchmark entirely and runs the sim-throughput
// regression gates instead: skip-ahead advance-call reduction, the SMP
// daemon's event count, binary-vs-JSONL serialize throughput, the
// monitor aggregators' per-observation cost, and two allocation pins (the
// flat cluster daemon per round, a streamed journal per event).  The
// counters are deterministic; the serialize and monitor gates are
// same-process ratios (best of three passes), so machine load cancels out.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <sstream>
#include <string>

#include "cluster/cluster.h"
#include "core/cluster_daemon.h"
#include "core/daemon.h"
#include "cpu/core.h"
#include "mach/machine_config.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "power/budget.h"
#include "simkit/event_log.h"
#include "simkit/event_queue.h"
#include "simkit/fault_plan.h"
#include "simkit/monitor.h"
#include "simkit/rng.h"
#include "simkit/stats.h"
#include "simkit/telemetry.h"
#include "workload/synthetic.h"

// Heap-allocation counter.  Replacing operator new/delete in this TU
// intercepts every allocation in the process, so benches can report the
// allocations their hot path performs per iteration.
//
// GCC flags malloc-backed operator new paired with std::free as a
// mismatched allocation pair at inlined call sites; the pairing is the
// whole point of the interposer, so silence that one diagnostic here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace fvsst;

/// Wraps a benchmark loop body with the allocation counter and reports
/// allocs/iter alongside the timing.
template <typename Fn>
void with_alloc_counter(benchmark::State& state, Fn&& body) {
  const std::size_t before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    body();
  }
  const std::size_t after = g_allocs.load(std::memory_order_relaxed);
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(after - before) /
      static_cast<double>(state.iterations()));
}

void BM_RngNextU64(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_RngNormal(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
}
BENCHMARK(BM_RngNormal);

void BM_EventQueueScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Rng rng(7);
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(rng.uniform(0.0, 100.0), [] {});
    }
    sim.run_until(200.0);
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleAndRun)->Range(1 << 10, 1 << 16);

void BM_PeriodicEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t fired = 0;
    sim.schedule_every(0.001, [&] { ++fired; });
    sim.run_until(100.0);  // 100k firings
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_PeriodicEventThroughput);

void BM_CacheAccess(benchmark::State& state) {
  mem::Cache cache({64ull * 1024, 128, 2});  // P630 L1D
  sim::Rng rng(3);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    addr = rng.next_u64() % (512ull * 1024);
    benchmark::DoNotOptimize(cache.access(addr));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_HierarchyAccess(benchmark::State& state) {
  mem::MemoryHierarchy h = mem::MemoryHierarchy::p630();
  sim::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.access(rng.next_u64() % (64ull << 20)));
  }
}
BENCHMARK(BM_HierarchyAccess);

void BM_CoreSimulatedSecond(benchmark::State& state) {
  // How fast one core simulates one second of a phased workload.
  for (auto _ : state) {
    sim::Simulation sim;
    cpu::Core::Config cfg;
    cfg.latencies = mach::p630().latencies;
    cfg.max_hz = 1e9;
    cpu::Core core(sim, cfg, sim::Rng(4));
    workload::SyntheticParams params;
    params.phase1 = {100.0, 5e7};
    params.phase2 = {20.0, 2e7};
    core.add_workload(workload::make_synthetic(params));
    sim.schedule_every(0.01, [&] { core.read_counters(); });  // sampler-like
    sim.run_until(1.0);
    benchmark::DoNotOptimize(core.read_counters().instructions);
  }
}
BENCHMARK(BM_CoreSimulatedSecond);

/// Grid-free core for the skip-ahead path: noise-free (the phase ETA is
/// exact) and a single job (quantum expiry out of the way), so
/// next_interesting_time() names the phase boundaries and nothing else.
std::unique_ptr<cpu::Core> make_skip_core(sim::Simulation& sim) {
  cpu::Core::Config cfg;
  cfg.latencies = mach::p630().latencies;
  cfg.max_hz = 1e9;
  cfg.execution_noise_sigma = 0.0;
  cfg.counter_noise_sigma = 0.0;
  cfg.quantum_s = 1e9;
  auto core = std::make_unique<cpu::Core>(sim, cfg, sim::Rng(4));
  workload::SyntheticParams params;
  params.phase1 = {100.0, 3e8};
  params.phase2 = {20.0, 1e8};
  core->add_workload(workload::make_synthetic(params));
  return core;
}

/// Advances `core` to `end` by jumping between interesting times (each
/// boundary crossed by 1 ns so the next query names the phase after it).
void skip_ahead_to(cpu::Core& core, double end) {
  for (;;) {
    const double next = core.next_interesting_time() + 1e-9;
    if (!(next < end)) break;
    core.advance_to(next);
  }
  core.advance_to(end);
}

void BM_CoreSimulatedSecondSkipAhead(benchmark::State& state) {
  // BM_CoreSimulatedSecond's question again, but jumping between
  // next_interesting_time() boundaries instead of ticking every 10 ms.
  for (auto _ : state) {
    sim::Simulation sim;
    auto core = make_skip_core(sim);
    skip_ahead_to(*core, 1.0);
    benchmark::DoNotOptimize(core->read_counters().instructions);
  }
}
BENCHMARK(BM_CoreSimulatedSecondSkipAhead);

// ---- Metric registry: string keys vs interned handles ---------------------

void BM_RegistrySeriesByString(benchmark::State& state) {
  sim::MetricRegistry reg;
  // A realistic registry: the per-CPU series of a 16-CPU daemon.
  for (int c = 0; c < 16; ++c) {
    const std::string prefix = "cpu" + std::to_string(c) + "/";
    for (const char* name :
         {"granted_hz", "desired_hz", "predicted_ipc", "measured_ipc",
          "ipc_deviation"}) {
      reg.series(prefix + name);
    }
  }
  double t = 0.0;
  with_alloc_counter(state, [&] {
    // What the pre-handle hot loop did every sample: rebuild the key,
    // hash it, then append.
    reg.series("cpu7/granted_hz").add(t, 1e9);
    t += 0.01;
  });
}
BENCHMARK(BM_RegistrySeriesByString);

void BM_RegistrySeriesByHandle(benchmark::State& state) {
  sim::MetricRegistry reg;
  for (int c = 0; c < 16; ++c) {
    const std::string prefix = "cpu" + std::to_string(c) + "/";
    for (const char* name :
         {"granted_hz", "desired_hz", "predicted_ipc", "measured_ipc",
          "ipc_deviation"}) {
      reg.series(prefix + name);
    }
  }
  const sim::MetricId id = reg.intern_series("cpu7/granted_hz");
  sim::TimeSeries& series = reg.series(id);
  double t = 0.0;
  with_alloc_counter(state, [&] {
    series.add(t, 1e9);
    t += 0.01;
  });
}
BENCHMARK(BM_RegistrySeriesByHandle);

void BM_RegistryCounterByString(benchmark::State& state) {
  sim::MetricRegistry reg;
  for (int i = 0; i < 32; ++i) reg.counter("loop/c" + std::to_string(i));
  with_alloc_counter(state,
                     [&] { benchmark::DoNotOptimize(++reg.counter(
                           "loop/cycles")); });
}
BENCHMARK(BM_RegistryCounterByString);

void BM_RegistryCounterByHandle(benchmark::State& state) {
  sim::MetricRegistry reg;
  for (int i = 0; i < 32; ++i) reg.counter("loop/c" + std::to_string(i));
  const sim::CounterId id = reg.intern_counter("loop/cycles");
  with_alloc_counter(state,
                     [&] { benchmark::DoNotOptimize(++reg.counter(id)); });
}
BENCHMARK(BM_RegistryCounterByHandle);

// ---- Journal: event append and JSONL serialization ------------------------

sim::Event sample_decision(double t) {
  sim::Event e;
  e.t = t;
  e.type = sim::EventType::kDecision;
  e.cpu = 3;
  e.set("granted_hz", 1.1e9)
      .set("desired_hz", 1.3e9)
      .set("predicted_ipc", 0.91)
      .set("volts", 1.26);
  return e;
}

void BM_JournalPush(benchmark::State& state) {
  sim::EventLog log;
  double t = 0.0;
  with_alloc_counter(state, [&] {
    log.push(sample_decision(t));
    t += 0.01;
    if (log.size() > 65536) log.clear();
  });
}
BENCHMARK(BM_JournalPush);

void BM_JournalSerializeEvent(benchmark::State& state) {
  const sim::Event e = sample_decision(1.23);
  std::string buf;
  with_alloc_counter(state, [&] {
    buf.clear();
    sim::append_event_jsonl(buf, e);
    benchmark::DoNotOptimize(buf.data());
  });
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_JournalSerializeEvent);

void BM_JournalSerializeEventBinary(benchmark::State& state) {
  // The same decision event through the FJB1 encoder: doubles as raw bits
  // instead of shortest-round-trip decimal, which is where the JSONL path
  // spends most of its time.
  const sim::Event e = sample_decision(1.23);
  std::string buf;
  with_alloc_counter(state, [&] {
    buf.clear();
    sim::append_event_binary(buf, e);
    benchmark::DoNotOptimize(buf.data());
  });
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_JournalSerializeEventBinary);

void BM_JournalStreamWrite(benchmark::State& state) {
  // Steady-state streaming: push into a log drained by a stream writer, so
  // the in-memory tail stays at one event regardless of run length.
  std::ostringstream sink;
  sim::JsonlStreamWriter writer(sink);
  sim::EventLog log;
  log.stream_to(&writer);
  double t = 0.0;
  with_alloc_counter(state, [&] {
    log.push(sample_decision(t));
    t += 0.01;
    if (sink.tellp() > (1 << 22)) {
      sink.str({});
      sink.clear();
    }
  });
}
BENCHMARK(BM_JournalStreamWrite);

void BM_JournalStreamWriteBinary(benchmark::State& state) {
  std::ostringstream sink;
  sim::BinaryJournalWriter writer(sink);
  sim::EventLog log;
  log.stream_to(&writer);
  double t = 0.0;
  with_alloc_counter(state, [&] {
    log.push(sample_decision(t));
    t += 0.01;
    if (sink.tellp() > (1 << 22)) {
      sink.str({});
      sink.clear();
    }
  });
}
BENCHMARK(BM_JournalStreamWriteBinary);

// ---- Monitor: aggregator hot path -----------------------------------------

void BM_MonitorWindowObserve(benchmark::State& state) {
  sim::monitor::SlidingWindow window(0.6, 16);
  double t = 0.0;
  with_alloc_counter(state, [&] {
    window.observe(t, 1.5);
    t += 1e-4;
  });
}
BENCHMARK(BM_MonitorWindowObserve);

void BM_MonitorSketchObserve(benchmark::State& state) {
  sim::monitor::P2Quantile sketch(0.9);
  double x = 0.0;
  with_alloc_counter(state, [&] {
    sketch.observe(x);
    x += 0.7;
    if (x > 1000.0) x = 0.0;
  });
  benchmark::DoNotOptimize(sketch.value());
}
BENCHMARK(BM_MonitorSketchObserve);

void BM_MonitorObserveAndEvaluate(benchmark::State& state) {
  // The full per-sample monitor cost a daemon pays: one observation into
  // the default rule pack's windows plus one evaluation of every rule.
  const sim::monitor::RuleSet rules =
      sim::monitor::RuleSet::parse_string(sim::monitor::default_rule_pack());
  sim::monitor::Monitor mon(rules);
  const sim::monitor::InputId over = mon.input("over_budget_w");
  double t = 0.0;
  with_alloc_counter(state, [&] {
    mon.observe(over, t, 0.0);
    mon.evaluate(t);
    t += 0.01;
  });
}
BENCHMARK(BM_MonitorObserveAndEvaluate);

// ---- --smoke: sim-throughput regression gates -----------------------------

/// Two SMP daemon seconds, optionally under `plan`; returns the
/// simulation's executed-event count (deterministic — no wall clock
/// involved).
std::size_t daemon_events_executed(const sim::FaultPlan* plan) {
  sim::Simulation sim;
  sim::Rng rng(17);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 1, rng);
  workload::SyntheticParams params;
  params.phase1 = {100.0, 3e8};
  params.phase2 = {20.0, 1e8};
  cluster.core({0, 1}).add_workload(workload::make_synthetic(params));
  cluster.core({0, 2}).add_workload(
      workload::make_uniform_synthetic(60.0, 1e12));
  power::PowerBudget budget(560.0);
  core::DaemonConfig config;
  config.fault_plan = plan;
  core::FvsstDaemon daemon(sim, cluster, machine.freq_table, budget, config);
  sim.run_for(2.0);
  if (daemon.schedules_run() == 0) {
    std::fprintf(stderr, "smoke: daemon ran no scheduling cycles\n");
    std::exit(1);
  }
  return sim.events_executed();
}

/// Nanoseconds per event for `serialize` over `iters` calls, best of three
/// passes so a scheduler hiccup cannot fail the gate on its own.
template <typename Fn>
double serialize_ns_per_event(Fn&& serialize, std::size_t iters) {
  double best = 1e300;
  std::string buf;
  for (int pass = 0; pass < 3; ++pass) {
    buf.clear();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      serialize(buf);
      if (buf.size() > (1u << 22)) buf.clear();
    }
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(buf.data());
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                t1 - t0)
                                .count()) /
        static_cast<double>(iters);
    if (ns < best) best = ns;
  }
  return best;
}

/// Counts and discards every event, so a streaming EventLog's own cost is
/// all that is measured.
class NullJournalWriter final : public sim::JournalWriter {
 public:
  void write(const sim::Event&) override { ++events_; }
  void flush() override {}
  std::size_t events_written() const override { return events_; }

 private:
  std::size_t events_ = 0;
};

/// The sim-throughput floors from scripts/check.sh.  Exits nonzero when a
/// regression eats the skip-ahead or binary-journal speedups this tier
/// exists to protect.
int run_smoke() {
  int failures = 0;

  // Gate 1: skip-ahead stepping must collapse per-tick advances.  Both
  // cores simulate the same 4 phased seconds; the ticked one is advanced
  // every 10 ms, the other jumps between next_interesting_time() marks.
  {
    sim::Simulation sim;
    auto tick = make_skip_core(sim);
    auto jump = make_skip_core(sim);
    const double t = 0.010;
    for (int k = 1; k <= 400; ++k) {
      tick->advance_to(static_cast<double>(k) * t);
    }
    skip_ahead_to(*jump, 400.0 * t);
    const auto tick_calls = tick->advance_calls();
    const auto jump_calls = jump->advance_calls();
    std::printf("smoke: advance calls per 4 sim-seconds: tick=%llu "
                "skip-ahead=%llu (%.1fx)\n",
                static_cast<unsigned long long>(tick_calls),
                static_cast<unsigned long long>(jump_calls),
                static_cast<double>(tick_calls) /
                    static_cast<double>(jump_calls ? jump_calls : 1));
    if (tick_calls < 3 * jump_calls) {
      std::fprintf(stderr,
                   "smoke FAIL: skip-ahead saved < 3x advance calls\n");
      ++failures;
    }
  }

  // Gate 2: the daemon wakes only where it has work.  2 sim-s are 200
  // sampling ticks and 20 scheduling cycles: fault-free it must execute at
  // most one event per cycle, and with a 0.2 s actuation_reject window
  // (where it steps every tick while retries count ticks) at most a third
  // of one event per tick.
  {
    const std::size_t fault_free = daemon_events_executed(nullptr);
    sim::FaultPlan plan(17);
    plan.add({sim::FaultKind::kActuationReject, 0.5, 0.7, 1, 0.0});
    const std::size_t rejecting = daemon_events_executed(&plan);
    std::printf("smoke: daemon events per 2 sim-seconds (200 ticks): "
                "fault-free=%zu, 0.2 s reject window=%zu\n",
                fault_free, rejecting);
    if (fault_free > 20 || rejecting > 66) {
      std::fprintf(stderr,
                   "smoke FAIL: daemon woke more than once per cycle "
                   "fault-free or a third per tick under rejects\n");
      ++failures;
    }
  }

  // Gate 3: the binary record must serialize >= 4x faster than JSONL.
  // A same-process timing ratio, so machine load cancels out.
  {
    const sim::Event e = sample_decision(1.23);
    const std::size_t iters = 300000;
    const double jsonl_ns = serialize_ns_per_event(
        [&](std::string& buf) { sim::append_event_jsonl(buf, e); }, iters);
    const double binary_ns = serialize_ns_per_event(
        [&](std::string& buf) { sim::append_event_binary(buf, e); }, iters);
    const double ratio = jsonl_ns / binary_ns;
    std::printf("smoke: serialize ns/event: jsonl=%.0f binary=%.0f "
                "(%.1fx)\n",
                jsonl_ns, binary_ns, ratio);
    if (ratio < 4.0) {
      std::fprintf(stderr,
                   "smoke FAIL: binary serialize < 4x JSONL throughput\n");
      ++failures;
    }
  }

  // Gate 4: the monitor's per-observation cost.  The aggregators sit on
  // the daemon's commit path at every sample, so their hot loop must stay
  // within kMonitorCostBound times a sim::RunningStat::add over the same
  // value sequence, and allocation-free in steady state.  Both loops are
  // timed in each of three passes and the best of each is kept: a
  // same-process ratio like gate 3's, so machine load cancels out.  On a
  // 4-vCPU Xeon VM this loop read 1.0-2.3x and the same loop doing twice
  // the work 2.6-5.3x.
  {
    constexpr double kMonitorCostBound = 2.5;
    sim::monitor::SlidingWindow window(0.6, 16);
    sim::monitor::P2Quantile sketch(0.9);
    sim::RunningStat reference;
    const std::size_t iters = 300000;
    double t = 0.0, x = 0.0;
    // Warm-up settles the window ring and the sketch markers before any
    // allocation accounting starts.
    for (std::size_t i = 0; i < 1000; ++i) {
      window.observe(t, x);
      sketch.observe(x);
      t += 1e-4;
      x += 0.7;
    }
    const auto ns_per_obs = [iters](auto t0, auto t1) {
      return static_cast<double>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                     .count()) /
             static_cast<double>(iters);
    };
    double best_monitor = 1e300;
    double best_reference = 1e300;
    std::size_t allocs = 0;
    for (int pass = 0; pass < 3; ++pass) {
      const double x_start = x;
      const std::size_t allocs_before =
          g_allocs.load(std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < iters; ++i) {
        window.observe(t, x);
        sketch.observe(x);
        t += 1e-4;
        x += 0.7;
        if (x > 1000.0) x = 0.0;
      }
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(window.max(t));
      benchmark::DoNotOptimize(sketch.value());
      allocs += g_allocs.load(std::memory_order_relaxed) - allocs_before;
      double xr = x_start;
      const auto t2 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < iters; ++i) {
        reference.add(xr);
        xr += 0.7;
        if (xr > 1000.0) xr = 0.0;
      }
      const auto t3 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(reference.mean());
      best_monitor = std::min(best_monitor, ns_per_obs(t0, t1));
      best_reference = std::min(best_reference, ns_per_obs(t2, t3));
    }
    const double ratio = best_monitor / best_reference;
    std::printf("smoke: monitor observe ns/obs (window + sketch): %.1f, "
                "RunningStat::add: %.1f (%.2fx), allocs over 3x%zu obs: "
                "%zu\n",
                best_monitor, best_reference, ratio, iters, allocs);
    if (ratio >= kMonitorCostBound) {
      std::fprintf(stderr,
                   "smoke FAIL: monitor observation cost >= %.1fx "
                   "RunningStat::add\n",
                   kMonitorCostBound);
      ++failures;
    }
    if (allocs != 0) {
      std::fprintf(stderr,
                   "smoke FAIL: monitor hot path allocated %zu time(s)\n",
                   allocs);
      ++failures;
    }
  }

  // Gate 5: a regression pin on the flat cluster daemon's steady-state
  // allocation rate, per node and round.  Each node agent's own summary
  // buffer and the shared grant snapshot (both reused once no in-flight
  // delivery holds them) and the into-buffer interval read keep the grant
  // path itself off the heap; what remains per node and round is the
  // summary and settings messages' closures through the transport and
  // channel layers, ~16 allocations.  On 64 nodes these per-node terms
  // dominate the round's fixed ones (event re-arms, the coordinator's
  // cycle): the current code reads 16.13/node-round, and a build taking a
  // fresh buffer for every summary and grant send reads 18.16 and fails.
  {
    constexpr std::size_t kNodes = 64;
    constexpr double kAllocsPerNodeRound = 17.0;
    sim::Simulation sim;
    sim::Rng rng(11);
    const mach::MachineConfig machine = mach::p630();
    cluster::Cluster cluster =
        cluster::Cluster::homogeneous(sim, machine, kNodes, rng);
    for (std::size_t n = 0; n < kNodes; n += 3) {
      cluster.core({n, n % 4}).add_workload(
          workload::make_uniform_synthetic(90.0 - static_cast<double>(n),
                                           1e12));
    }
    power::PowerBudget budget(
        static_cast<double>(cluster.cpu_count()) * 140.0 * 0.4);
    core::ClusterDaemonConfig cfg;
    core::ClusterDaemon daemon(sim, cluster, machine.freq_table, budget, cfg);
    sim.run_for(3.0);  // warm-up: pools filled, telemetry vectors grown
    const std::size_t rounds_before = daemon.rounds();
    const std::size_t allocs_before = g_allocs.load(std::memory_order_relaxed);
    sim.run_for(5.0);
    const std::size_t rounds = daemon.rounds() - rounds_before;
    const std::size_t allocs =
        g_allocs.load(std::memory_order_relaxed) - allocs_before;
    const double per_node_round =
        static_cast<double>(allocs) /
        static_cast<double>((rounds ? rounds : 1) * kNodes);
    std::printf("smoke: cluster grant path: %zu allocs over %zu rounds of "
                "%zu nodes (%.2f/node-round)\n",
                allocs, rounds, kNodes, per_node_round);
    if (rounds == 0 || per_node_round > kAllocsPerNodeRound) {
      std::fprintf(stderr,
                   "smoke FAIL: cluster grant path allocates %.2f/node-round "
                   "(budget %.1f) — per-send buffers are back\n",
                   per_node_round, kAllocsPerNodeRound);
      ++failures;
    }
  }

  // Gate 6: a streaming journal recycles event payloads.  Each append()
  // reuses the payload vectors of the event streamed before it, so after
  // warm-up node_apply-shaped events (4 numbers and a `stage` string, all
  // within std::string's small buffer) cost almost no allocations; what
  // remains is std::deque chunk turnover, ~1 per 8 events.  Without the
  // recycling each event grows its vectors from empty (~4 allocations).
  {
    NullJournalWriter writer;
    sim::EventLog log;
    log.stream_to(&writer);
    const auto node_apply = [&log](std::size_t i) {
      log.append(static_cast<double>(i) * 1e-4, sim::EventType::kActuation)
          .set("node", static_cast<double>(i % 1000))
          .set("cluster_power_w", 1.0e5 + static_cast<double>(i))
          .set("epoch", 1.0)
          .set("seq", static_cast<double>(i))
          .set("stage", std::string("node_apply"));
    };
    constexpr std::size_t kWarmup = 1000;
    constexpr std::size_t kEvents = 100000;
    for (std::size_t i = 0; i < kWarmup; ++i) node_apply(i);
    const std::size_t allocs_before = g_allocs.load(std::memory_order_relaxed);
    for (std::size_t i = kWarmup; i < kWarmup + kEvents; ++i) node_apply(i);
    const std::size_t allocs =
        g_allocs.load(std::memory_order_relaxed) - allocs_before;
    log.flush_stream();
    const double per_event =
        static_cast<double>(allocs) / static_cast<double>(kEvents);
    std::printf("smoke: streamed journal: %zu allocs over %zu node_apply "
                "events (%.3f/event)\n",
                allocs, kEvents, per_event);
    if (writer.events_written() != kWarmup + kEvents || per_event > 0.5) {
      std::fprintf(stderr,
                   "smoke FAIL: streamed journal allocates %.3f/event "
                   "(budget 0.5) — payload recycling is gone\n",
                   per_event);
      ++failures;
    }
  }

  if (failures == 0) {
    std::printf("smoke: all sim-throughput floors hold\n");
  } else {
    std::printf("smoke: %d floor(s) violated\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
