// scenario.cc - Seeded inputs and the wired simulation for each workload.
#include "scenario.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "simkit/rng.h"
#include "workload/app_profiles.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

/// splitmix64: decorrelates the streams drawn from one benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Milliseconds are the resolution of every generated instant.
double round_ms(double t) { return std::round(t * 1e3) / 1e3; }

template <typename T>
void shuffle(std::vector<T>& v, sim::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

/// The paper rig's applications (looped, so every CPU stays busy).
const std::vector<std::string> kSmpApps = {"gzip", "gap", "mcf", "health"};

std::vector<workload::WorkloadSpec> looped_apps(
    const std::vector<std::string>& names) {
  std::vector<workload::WorkloadSpec> out;
  const auto all = workload::extended_applications();
  for (const std::string& name : names) {
    for (const auto& app : all) {
      if (app.name == name) {
        out.push_back(app);
        out.back().loop = true;
      }
    }
  }
  return out;
}

std::vector<std::string> all_app_names() {
  std::vector<std::string> names;
  for (const auto& app : workload::extended_applications()) {
    names.push_back(app.name);
  }
  return names;
}

/// `count` budget dips from `high_w` to `low_w`, one per equal segment of
/// the run, each lasting `dip_fraction` of its segment at a seed-drawn
/// offset: the total time under the low budget is the same for every seed.
void add_budget_dips(Inputs& in, sim::Rng& rng, int count, double first_s,
                     double span_s, double dip_fraction, double high_w,
                     double low_w) {
  const double segment = span_s / count;
  for (int k = 0; k < count; ++k) {
    const double start = first_s + segment * k +
                         segment * rng.uniform(0.05, 0.95 - dip_fraction);
    in.budget_steps.emplace_back(round_ms(start), low_w);
    in.budget_steps.emplace_back(round_ms(start + segment * dip_fraction),
                                 high_w);
  }
}

/// The flat workload's chaos plan: the six channel/node fault kinds in a
/// seed-shuffled rotation of equal windows, then a 0.5 s crash of the
/// primary coordinator, long enough for the standby to take over (3 T of
/// silence plus election jitter).  The rotation closes by 75% of the run
/// so recovery is observable.
sim::FaultPlan chaos_plan(const Inputs& in, std::uint64_t seed) {
  sim::Rng rng(seed);
  sim::FaultPlan plan(seed);
  const double L = in.duration_s;
  std::vector<sim::FaultKind> rotation = {
      sim::FaultKind::kChannelLoss,      sim::FaultKind::kChannelReorder,
      sim::FaultKind::kChannelDuplicate, sim::FaultKind::kChannelCorrupt,
      sim::FaultKind::kChannelDelaySpike, sim::FaultKind::kNodeCrash};
  shuffle(rotation, rng);
  const double begin = 0.05 * L;
  const double slot = (0.70 * L) / static_cast<double>(rotation.size() + 1);
  for (std::size_t k = 0; k < rotation.size(); ++k) {
    const double start = round_ms(begin + slot * k + slot * rng.uniform(0.0, 0.2));
    const double end = round_ms(start + slot * 0.75);
    const sim::FaultKind kind = rotation[k];
    if (kind == sim::FaultKind::kNodeCrash) {
      // 2% of the nodes crash for the window, then restart.
      const std::size_t crashes = std::max<std::size_t>(1, in.nodes / 50);
      for (std::size_t c = 0; c < crashes; ++c) {
        const int node = static_cast<int>(
            rng.uniform_int(0, static_cast<std::int64_t>(in.nodes) - 1));
        plan.add({kind, start, end, node, 0.0});
      }
      continue;
    }
    double value = 0.0;
    switch (kind) {
      case sim::FaultKind::kChannelLoss: value = 0.2; break;
      case sim::FaultKind::kChannelReorder: value = 0.3; break;
      case sim::FaultKind::kChannelDuplicate: value = 0.3; break;
      case sim::FaultKind::kChannelCorrupt: value = 0.05; break;
      case sim::FaultKind::kChannelDelaySpike: value = 0.002; break;
      default: break;
    }
    plan.add({kind, start, end, /*target=*/-1, value});
  }
  const double crash_start =
      round_ms(begin + slot * rotation.size() + slot * rng.uniform(0.0, 0.2));
  plan.add({sim::FaultKind::kCoordinatorCrash, crash_start,
            round_ms(crash_start + 0.5), /*target=*/0, 0.0});
  return plan;
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kSmpPaper, Workload::kFlatChaos1k,
                     Workload::kTree20k}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSmpPaper: return "smp_paper";
    case Workload::kFlatChaos1k: return "flat_chaos_1k";
    case Workload::kTree20k: return "tree_20k";
  }
  return "?";
}

mach::MachineConfig workload_machine(const Inputs& in) {
  mach::MachineConfig machine = mach::p630();
  if (in.cpus_per_node == 1) {
    machine.name = "p630-1cpu";
    machine.num_cpus = 1;
  }
  return machine;
}

Inputs make_inputs(Workload workload, std::uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  in.cluster_seed = derive_seed(seed, 1);
  sim::Rng rng(derive_seed(seed, 2));
  switch (workload) {
    case Workload::kSmpPaper: {
      in.nodes = 1;
      in.cpus_per_node = 4;
      in.duration_s = 300.0;
      in.app_of_cpu = {0, 1, 2, 3};
      shuffle(in.app_of_cpu, rng);
      // Supply failures: 560 W -> 294 W and back (the paper's Fig. 6).
      in.initial_budget_w = 560.0;
      add_budget_dips(in, rng, 4, 0.0, in.duration_s, 0.3, 560.0, 294.0);
      break;
    }
    case Workload::kFlatChaos1k: {
      in.nodes = 1000;
      in.cpus_per_node = 1;
      in.duration_s = 3.0;
      const std::size_t apps = all_app_names().size();
      for (std::size_t i = 0; i < in.cpus(); ++i) in.app_of_cpu.push_back(i % apps);
      shuffle(in.app_of_cpu, rng);
      const double peak =
          static_cast<double>(in.cpus()) * workload_machine(in).freq_table.max_point().watts;
      in.initial_budget_w = 0.8 * peak;
      add_budget_dips(in, rng, 2, 0.0, in.duration_s, 0.3, 0.8 * peak,
                      0.5 * peak);
      in.faults = chaos_plan(in, derive_seed(seed, 3));
      break;
    }
    case Workload::kTree20k: {
      // 20k nodes (~56 MB resident) leave room in a shared last-level
      // cache; 100k (~260 MB) filled most of a 4-vCPU Xeon VM's 300 MB L3
      // and its run time swung by a third between runs minutes apart.
      in.nodes = 20000;
      in.cpus_per_node = 1;
      in.duration_s = 2.0;
      // Measured on one step thread.  On a 4-vCPU VM the 4-thread run's
      // wall time followed how many vCPUs the host ran at once: its median
      // was 1.45 s in one set of ten runs and 0.90 s in the next, and four
      // threads were slower than one in the slow phase, while the
      // single-threaded workloads' medians moved by under 1% between the
      // same two sets.  Every run still makes one 4-thread run, which must
      // reach the same outcome.
      in.step_threads = 1;
      in.parallel_threads = 4;
      const double peak =
          static_cast<double>(in.cpus()) * workload_machine(in).freq_table.max_point().watts;
      in.initial_budget_w = peak;
      add_budget_dips(in, rng, 1, 0.0, in.duration_s, 0.4, peak, 0.45 * peak);
      break;
    }
  }
  return in;
}

std::unique_ptr<cluster::Cluster> build_cluster(const Inputs& in,
                                                sim::Simulation& sim) {
  sim::Rng rng(in.cluster_seed);
  auto cluster = std::make_unique<cluster::Cluster>(cluster::Cluster::homogeneous(
      sim, workload_machine(in), in.nodes, rng));
  if (in.app_of_cpu.empty()) {
    const workload::WorkloadSpec synth =
        workload::make_uniform_synthetic(70.0, 1e12);
    for (const auto& addr : cluster->all_procs()) {
      cluster->core(addr).add_workload(synth);
    }
    return cluster;
  }
  const auto apps = looped_apps(in.workload == Workload::kSmpPaper
                                    ? kSmpApps
                                    : all_app_names());
  std::size_t flat = 0;
  for (const auto& addr : cluster->all_procs()) {
    cluster->core(addr).add_workload(apps.at(in.app_of_cpu.at(flat++)));
  }
  return cluster;
}

std::uint64_t outcome_fingerprint(cluster::Cluster& cluster) {
  std::uint64_t h = kFnvBasis;
  for (const auto& addr : cluster.all_procs()) {
    cpu::Core& core = cluster.core(addr);
    fnv_double(h, core.frequency_hz());
    fnv_double(h, core.instructions_retired());
    const cpu::PerfCounters k = core.read_counters();
    for (double v : {k.instructions, k.cycles, k.l2_accesses, k.l3_accesses,
                     k.mem_accesses, k.halted_cycles}) {
      fnv_double(h, v);
    }
  }
  return h;
}

Scenario::Scenario(const Inputs& in, SpanRecorder* spans,
                   PolicyStats* policy_stats, bool digest)
    : in_(in), spans_(spans), budget_(in.initial_budget_w) {
  const std::int64_t t0 = host_now_ns();
  machine_ = workload_machine(in);
  {
    ScopedSpan span(spans_, SpanKind::kClusterBuild);
    cluster_ = build_cluster(in, sim_);
  }
  for (const auto& [at, watts] : in.budget_steps) {
    sim_.schedule_at(at, [this, w = watts] { budget_.set_limit_w(w); });
  }

  sim::monitor::Monitor::Options mopts;
  mopts.journal = &journal_;
  monitor_ = std::make_unique<sim::monitor::Monitor>(
      sim::monitor::RuleSet::parse_string(sim::monitor::default_rule_pack()),
      std::move(mopts));

  core::PolicyStageFactory policy_factory;
  if (spans_) policy_factory = timed_policy_factory(spans_, policy_stats);
  const sim::FaultPlan* faults = in.faults.empty() ? nullptr : &in.faults;

  {
    ScopedSpan span(spans_, SpanKind::kDaemonBuild);
    switch (in.workload) {
      case Workload::kSmpPaper: {
        core::DaemonConfig cfg;
        cfg.t_sample_s = in.t_sample_s;
        cfg.schedule_every_n_samples = in.multiplier;
        cfg.scheduler.explain = true;
        cfg.advance_mode = core::AdvanceMode::kEvent;
        cfg.journal = &journal_;
        cfg.fault_plan = faults;
        cfg.monitor = monitor_.get();
        cfg.policy_factory = policy_factory;
        smp_ = std::make_unique<core::FvsstDaemon>(
            sim_, *cluster_, machine_.freq_table, budget_, cfg);
        break;
      }
      case Workload::kFlatChaos1k: {
        core::ClusterDaemonConfig cfg;
        cfg.t_sample_s = in.t_sample_s;
        cfg.schedule_every_n_samples = in.multiplier;
        cfg.advance_mode = core::AdvanceMode::kEvent;
        cfg.journal = &journal_;
        cfg.fault_plan = faults;
        cfg.failover.standby = true;
        cfg.failover.node_failsafe_factor = 4.0;
        cfg.transport = cluster::TransportMode::kReliable;
        cfg.step_threads = in.step_threads;
        cfg.monitor = monitor_.get();
        cfg.policy_factory = policy_factory;
        flat_ = std::make_unique<core::ClusterDaemon>(
            sim_, *cluster_, machine_.freq_table, budget_, cfg);
        break;
      }
      case Workload::kTree20k: {
        core::TreeDaemonConfig cfg;
        cfg.t_sample_s = in.t_sample_s;
        cfg.schedule_every_n_samples = in.multiplier;
        cfg.advance_mode = core::AdvanceMode::kEvent;
        cfg.step_threads = in.step_threads;
        cfg.journal = &journal_;
        cfg.fault_plan = faults;
        cfg.monitor = monitor_.get();
        tree_ = std::make_unique<core::TreeDaemon>(
            sim_, *cluster_, machine_.freq_table, budget_, cfg);
        break;
      }
    }
  }

  // The 5 ms sensor fvsst_sim always attaches, after the daemon.
  std::function<double()> power_fn;
  if (spans_) {
    power_fn = [this] {
      ScopedSpan span(spans_, SpanKind::kPowerFn);
      return cluster_->cpu_power_w();
    };
  } else {
    power_fn = [this] { return cluster_->cpu_power_w(); };
  }
  sensor_ = std::make_unique<power::PowerSensor>(sim_, std::move(power_fn),
                                                 0.005);
  if (faults) sensor_->set_fault_plan(faults, &journal_);

  tap_ = std::make_unique<JournalTap>(in.workload == Workload::kSmpPaper
                                          ? sim::JournalFormat::kJsonl
                                          : sim::JournalFormat::kBinary,
                                      spans_, digest);
  journal_.stream_to(tap_.get());

  setup_s_ = static_cast<double>(host_now_ns() - t0) * 1e-9;
}

Scenario::~Scenario() {
  // Everything that can append to the journal goes first, then the stream
  // is detached before its sink is destroyed.
  sensor_.reset();
  tree_.reset();
  flat_.reset();
  smp_.reset();
  journal_.stream_to(nullptr);
}

RunResult Scenario::run() {
  RunResult r;
  const double end = in_.duration_s;
  bool done = false;
  // Sentinels at every tenth of the run record host time (the cost-growth
  // probe); the last one, just past `end`, stops the driven loop after every
  // event at or before `end`.  They only read the clock, so the simulated
  // outcome is the same at any span or thread setting.
  for (int k = 1; k <= 10; ++k) {
    const double at = k == 10
                          ? std::nextafter(end, std::numeric_limits<double>::infinity())
                          : end * k / 10.0;
    sim_.schedule_at(at, [&r, &done, k] {
      r.tenth_host_s[static_cast<std::size_t>(k)] = host_now_s();
      if (k == 10) done = true;
    });
  }
  const std::uint64_t events0 = sim_.events_executed();
  const std::uint64_t allocs0 = allocations();
  const std::int64_t t0 = host_now_ns();
  r.tenth_host_s[0] = static_cast<double>(t0) * 1e-9;
  if (spans_) {
    while (!done) {
      ScopedSpan span(spans_, SpanKind::kEvent);
      if (!sim_.step()) break;
    }
  } else {
    while (!done && sim_.step()) {
    }
  }
  journal_.flush_stream();
  r.run_s = static_cast<double>(host_now_ns() - t0) * 1e-9;
  r.allocs = allocations() - allocs0;
  r.events = sim_.events_executed() - events0 - 10;

  for (const auto& addr : cluster_->all_procs()) {
    r.advance_calls += cluster_->core(addr).advance_calls();
  }
  r.fingerprint = outcome_fingerprint(*cluster_);
  for (const auto& addr : cluster_->all_procs()) {
    r.job_instructions += cluster_->core(addr).instructions_retired();
  }
  r.journal_digest = tap_->digest();
  r.check = tap_->finish_check();
  r.journal_events = tap_->events_written();
  r.journal_bytes = tap_->bytes();
  r.node_applies = tap_->node_applies();
  if (smp_) r.rounds = smp_->schedules_run();
  if (flat_) {
    r.rounds = flat_->rounds();
    r.retransmits = flat_->messages_retransmitted();
  }
  if (tree_) {
    r.rounds = tree_->rounds();
    r.summary_bytes = tree_->summary_bytes_sent();
    for (std::size_t s = 0; s < tree_->shard_count(); ++s) {
      const cluster::Shard& shard = tree_->shard(s);
      r.sweep_visits += shard.sweeps() * shard.core_count();
      r.cores_advanced += shard.cores_advanced();
    }
  }
  return r;
}

}  // namespace perfbench
