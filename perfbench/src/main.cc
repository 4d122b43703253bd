// main.cc - perfbench_sim: runs one benchmark workload in this process and
// prints one JSON object as its last line of standard output.  Driven by
// perfbench/run.py, which adds units, checks the reference fingerprint and
// prints the contract's result line.
//
//   perfbench_sim --workload smp_paper|flat_chaos_1k|tree_20k --seed N
//                 --seconds S [--trace 0|1] [--spans-out FILE]
//
// --trace 0 (timed): repeats set-up + run until S host seconds have passed
// (at least kMinReps runs), every run checked (JournalChecker clean, same
// fingerprint as the first), with extra set-up samples between runs;
// tree_20k also runs once on 4 step threads and must match.
//
// --trace 1 (traced): one untraced run, one traced run with the same seed
// (their fingerprints and journal digests must match), then the
// daemon-free replays.  Prints the per-layer metrics and the layers ranked
// by self-time share.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "probes.h"
#include "replay.h"
#include "scenario.h"
#include "simkit/log.h"

using namespace perfbench;

namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;
constexpr std::size_t kMinSetups = 7;
constexpr std::size_t kMaxSetups = 4000;

struct Args {
  Workload workload = Workload::kSmpPaper;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_sim: %s\nusage: perfbench_sim --workload NAME "
               "--seed N --seconds S [--trace 0|1] [--spans-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!parse_workload(value, &a.workload)) usage("unknown workload " + value);
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end) usage("bad seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end || !(a.seconds > 0.0)) usage("bad seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + json_number(v[i]);
  }
  return out + "]";
}

/// Timing tail: the value with exactly ten calls above it (the highest
/// percentile with at least ten samples beyond it); the maximum when there
/// are fewer than eleven calls.
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

/// Peak resident set of this process image.  VmHWM restarts at exec;
/// getrusage's ru_maxrss (the fallback) would also count the parent's
/// memory inherited across fork.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Failure bookkeeping: a checker violation, a fingerprint mismatch or a
/// crash (an exception) fails the run it happened in.
struct Gate {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  void record(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(why);
    }
  }
  /// What is wrong with a finished run; empty when it passed.
  static std::string problem(const RunResult& r, std::uint64_t expect_fp,
                             const std::string& label) {
    if (!r.check.ok()) {
      return label + ": journal check: " + r.check.violations.front();
    }
    if (r.fingerprint != expect_fp) {
      return label + ": fingerprint " + hex(r.fingerprint) + " != " +
             hex(expect_fp);
    }
    return "";
  }
  void check_run(const RunResult& r, std::uint64_t expect_fp,
                 const std::string& label) {
    const std::string why = problem(r, expect_fp, label);
    record(why.empty(), why);
  }
  std::string json() const {
    std::string f = "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      f += (i ? "," : "") + json_string(failures[i]);
    }
    return "\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) + ",\"failures\":" + f + "]";
  }
};

std::string meta_json(const Args& args, const Inputs& in) {
  return "\"workload\":" + json_string(workload_name(in.workload)) +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"nodes\":" + std::to_string(in.nodes) +
         ",\"cpus\":" + std::to_string(in.cpus()) +
         ",\"threads\":" + std::to_string(in.step_threads) +
         ",\"parallel_threads\":" + std::to_string(in.parallel_threads) +
         ",\"sim_seconds\":" + json_number(in.duration_s);
}

/// tree_20k must reach the same outcome on its parallel step threads.
void check_parallel(const Inputs& in, std::uint64_t expect_fp, Gate& gate,
                    std::uint64_t* fp_out) {
  Inputs parallel = in;
  parallel.step_threads = in.parallel_threads;
  Scenario scenario(parallel, nullptr, nullptr, /*digest=*/false);
  const RunResult r = scenario.run();
  gate.check_run(r, expect_fp,
                 std::to_string(in.parallel_threads) + "-thread run");
  *fp_out = r.fingerprint;
}

int timed(const Args& args) {
  const Inputs in = make_inputs(args.workload, args.seed);
  Gate gate;
  std::vector<double> setup_s, run_s;
  std::uint64_t fp = 0;
  double job_instructions = 0.0;
  const double begin = host_now_s();
  for (int rep = 0; rep < kMaxReps; ++rep) {
    double run_host_s = 0.0;
    {
      Scenario scenario(in, nullptr, nullptr, /*digest=*/false);
      setup_s.push_back(scenario.setup_s());
      const RunResult r = scenario.run();
      if (rep == 0) {
        fp = r.fingerprint;
        job_instructions = r.job_instructions;
      }
      gate.check_run(r, fp, "run " + std::to_string(rep));
      run_s.push_back(r.run_s);
      run_host_s = r.run_s;
    }
    // Set-up is cheap next to a run on the small workloads, so its estimate
    // takes extra constructions, spread between the runs: as many as fit
    // in a fiftieth of each run's time.
    const double extra_begin = host_now_s();
    while (setup_s.size() < kMaxSetups &&
           host_now_s() - extra_begin < 0.02 * run_host_s) {
      Scenario scenario(in, nullptr, nullptr, /*digest=*/false);
      setup_s.push_back(scenario.setup_s());
    }
    if (rep + 1 >= kMinReps && host_now_s() - begin >= args.seconds) break;
  }
  while (setup_s.size() < kMinSetups) {
    Scenario scenario(in, nullptr, nullptr, /*digest=*/false);
    setup_s.push_back(scenario.setup_s());
  }
  const long rss_kb = peak_rss_kb();  // the measured runs', before the check
  std::string parallel_fp = "null";
  if (in.parallel_threads > 1) {
    std::uint64_t fp_n = 0;
    check_parallel(in, fp, gate, &fp_n);
    parallel_fp = json_string(hex(fp_n));
  }
  std::printf(
      "{\"mode\":\"timed\",%s,%s,\"fingerprint\":%s,"
      "\"fingerprint_parallel\":%s,\"setup_s\":%s,\"run_s\":%s,"
      "\"peak_rss_kb\":%ld,\"job_instructions\":%s}\n",
      meta_json(args, in).c_str(), gate.json().c_str(),
      json_string(hex(fp)).c_str(), parallel_fp.c_str(),
      json_array(setup_s).c_str(), json_array(run_s).c_str(), rss_kb,
      json_number(job_instructions).c_str());
  return 0;
}

/// Self time per span kind, and per dispatched event by what it ran.
struct SpanTotals {
  std::array<double, kSpanKinds> self_s{};
  std::array<double, kSpanKinds> total_s{};
  std::array<std::uint64_t, kSpanKinds> self_allocs{};
  std::vector<double> policy_call_s;  ///< Every PolicyStage::decide span.
  double event_cycle_self_s = 0.0;   ///< Events that ran a policy decision.
  double event_sensor_self_s = 0.0;  ///< Events that sampled the sensor.
  double event_other_self_s = 0.0;
  std::uint64_t events = 0;
};

SpanTotals total_spans(const std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  std::vector<double> child_s(n, 0.0);
  std::vector<std::uint64_t> child_allocs(n, 0);
  std::vector<unsigned char> ran_policy(n, 0), ran_sensor(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    child_s[p] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    child_allocs[p] += s.allocs;
  }
  // Mark every ancestor of a policy / power-function span (parents always
  // precede their children).
  for (std::size_t i = n; i-- > 0;) {
    const Span& s = spans[i];
    if (s.kind == SpanKind::kPolicy) ran_policy[i] = 1;
    if (s.kind == SpanKind::kPowerFn) ran_sensor[i] = 1;
    if (s.parent >= 0) {
      const auto p = static_cast<std::size_t>(s.parent);
      ran_policy[p] |= ran_policy[i];
      ran_sensor[p] |= ran_sensor[i];
    }
  }
  SpanTotals t;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    const auto k = static_cast<std::size_t>(s.kind);
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double self = std::max(0.0, dur - child_s[i]);
    t.total_s[k] += dur;
    t.self_s[k] += self;
    t.self_allocs[k] += s.allocs - std::min(s.allocs, child_allocs[i]);
    if (s.kind == SpanKind::kPolicy) t.policy_call_s.push_back(dur);
    if (s.kind == SpanKind::kEvent) {
      ++t.events;
      if (ran_policy[i]) t.event_cycle_self_s += self;
      else if (ran_sensor[i]) t.event_sensor_self_s += self;
      else t.event_other_self_s += self;
    }
  }
  return t;
}

struct LedgerRow {
  std::string layer;
  double seconds;
  std::string source;
};

int traced(const Args& args) {
  const Inputs in = make_inputs(args.workload, args.seed);
  Gate gate;
  const double L = in.duration_s;

  // Untraced runs before and after the traced one: the slowdown is taken
  // against their mean, so neither a cold first run nor drift counts as
  // tracing overhead.
  const auto run_plain = [&in]() {
    Scenario scenario(in, nullptr, nullptr, /*digest=*/true);
    return scenario.run();
  };
  const RunResult plain = run_plain();
  gate.check_run(plain, plain.fingerprint, "untraced run");

  const double sensor_samples = L / 0.005;
  SpanRecorder recorder(plain.events + 2 * plain.journal_events +
                        static_cast<std::size_t>(sensor_samples) +
                        2 * plain.rounds + 4096);
  PolicyStats policy;
  RunResult traced_run;
  {
    Scenario scenario(in, &recorder, &policy, /*digest=*/true);
    traced_run = scenario.run();
  }
  // The decorators and the driven loop must not perturb the simulation:
  // same outcome, same journal (host wall-clock fields aside).
  std::string why = Gate::problem(traced_run, plain.fingerprint, "traced run");
  if (why.empty() && traced_run.journal_digest != plain.journal_digest) {
    why = "traced run: journal digest " + hex(traced_run.journal_digest) +
          " != " + hex(plain.journal_digest);
  }
  gate.record(why.empty(), why);
  const RunResult plain_after = run_plain();
  gate.check_run(plain_after, plain.fingerprint, "untraced run after");
  const double plain_run_s = 0.5 * (plain.run_s + plain_after.run_s);
  std::string parallel_fp = "null";
  if (in.parallel_threads > 1) {
    std::uint64_t fp_n = 0;
    check_parallel(in, plain.fingerprint, gate, &fp_n);
    parallel_fp = json_string(hex(fp_n));
  }

  double low_budget = in.initial_budget_w;
  for (const auto& step : in.budget_steps) low_budget = std::min(low_budget, step.second);
  const ReplayResult rp = run_replays(in, low_budget);

  const SpanTotals st = total_spans(recorder.spans());
  const auto self = [&st](SpanKind k) { return st.self_s[static_cast<std::size_t>(k)]; };
  const auto total = [&st](SpanKind k) { return st.total_s[static_cast<std::size_t>(k)]; };
  const double run_s = traced_run.run_s;
  const double rounds = static_cast<double>(std::max<std::size_t>(1, plain.rounds));

  // Ledger: traced self times, plus replay estimates of the layers the
  // daemons call internally (the leaf close and summary tree are 0 off the
  // tree workload, the only one that runs them), carved out of the
  // dispatched events' own time (first from events that ran no policy,
  // then from scheduling cycles).  What is left of the events is
  // event-queue, transport and daemon bookkeeping.
  const double model_s = rp.model_s_per_round_1t * rounds;
  const double recount_s =
      2.0 * static_cast<double>(plain.node_applies) * rp.power_query_s;
  const double leaf_s = rp.leaf_close_s_per_round * rounds;
  const double summary_s = rp.summary_tree_s_per_round * rounds;
  double other = st.event_other_self_s;
  double cycle = st.event_cycle_self_s;
  double overlap = 0.0;  ///< Replay estimate beyond the events' own time.
  for (double carve : {model_s, recount_s, leaf_s, summary_s}) {
    const double from_other = std::min(other, carve);
    other -= from_other;
    const double from_cycle = std::min(cycle, carve - from_other);
    cycle -= from_cycle;
    overlap += carve - from_other - from_cycle;
  }
  const double event_total = total(SpanKind::kEvent);
  std::vector<LedgerRow> ledger = {
      {"core.control_loop", cycle, "traced: scheduling-cycle events' self time"},
      {"core.policy", self(SpanKind::kPolicy), "traced: PolicyStage::decide"},
      {"simkit.journal_write", self(SpanKind::kJournalWrite), "traced: JournalWriter"},
      {"cluster.sensor_power_sum", self(SpanKind::kPowerFn),
       "traced: PowerSensor power_fn (Cluster::cpu_power_w)"},
      {"power.sensor", st.event_sensor_self_s, "traced: sensor events' self time"},
      {"cpu.model", model_s, "replay: shard presync on the sampling lattice"},
      {"cluster.power_recount", recount_s,
       "replay x count: 2 Cluster::cpu_power_w per node_apply"},
      {"core.leaf_close", leaf_s, "replay: serial leaf close per shard"},
      {"core.summary_tree", summary_s, "replay: merge, cap profile, split, apply"},
      {"simkit.other_events", other,
       "traced: remaining event self time (queue, transport, agents)"},
      {"bench.journal_check", self(SpanKind::kJournalCheck),
       "traced: the benchmark's JournalChecker and digest"},
      {"bench.loop", std::max(0.0, run_s - event_total), "traced: loop and final flush"},
  };
  std::stable_sort(ledger.begin(), ledger.end(),
                   [](const LedgerRow& a, const LedgerRow& b) {
                     return a.seconds > b.seconds;
                   });

  // Policy calls: the daemon's PolicyStage when it has one; the tree's
  // leaves run pass 1 directly, timed in the leaf-close replay.
  const bool have_policy = !st.policy_call_s.empty();
  const std::vector<double>& calls = have_policy ? st.policy_call_s : rp.schedule_call_s;
  double policy_s = self(SpanKind::kPolicy);
  if (!have_policy) {
    double per_round = 0.0;
    for (double c : rp.schedule_call_s) per_round += c;
    policy_s = per_round / static_cast<double>(std::max<std::size_t>(1, rp.rounds)) * rounds;
  }
  const double tenth_first = traced_run.tenth_host_s[1] - traced_run.tenth_host_s[0];
  const double tenth_last = traced_run.tenth_host_s[10] - traced_run.tenth_host_s[9];
  const double skip_visits = static_cast<double>(plain.sweep_visits);
  const double skip_advanced = static_cast<double>(plain.cores_advanced);

  std::map<std::string, double> m;
  m["simkit.events_per_sim_s"] = static_cast<double>(plain.events) / L;
  m["simkit.dispatch_us_per_event"] =
      event_total / static_cast<double>(std::max<std::uint64_t>(1, st.events)) * 1e6;
  m["simkit.cost_growth"] = tenth_first > 0.0 ? tenth_last / tenth_first : 0.0;
  m["simkit.journal_events_per_sim_s"] = static_cast<double>(plain.journal_events) / L;
  m["simkit.journal_bytes_per_sim_s"] = static_cast<double>(plain.journal_bytes) / L;
  m["simkit.journal_write_share"] = self(SpanKind::kJournalWrite) / run_s;
  m["simkit.allocs_per_sim_s"] = static_cast<double>(plain.allocs) / L;
  m["cpu.advance_calls_per_core_sim_s"] =
      static_cast<double>(plain.advance_calls) / (static_cast<double>(in.cpus()) * L);
  m["cpu.model_share"] = model_s / run_s;
  m["cluster.shard_skip_ratio"] =
      skip_visits > 0.0 ? (skip_visits - skip_advanced) / skip_visits : 0.0;
  m["cluster.presync_speedup"] =
      rp.model_s_per_round_mt > 0.0 ? rp.model_s_per_round_1t / rp.model_s_per_round_mt : 0.0;
  m["cluster.power_query_us"] = rp.power_query_s * 1e6;
  m["cluster.node_applies_per_round"] = static_cast<double>(plain.node_applies) / rounds;
  m["cluster.retransmits_per_round"] = static_cast<double>(plain.retransmits) / rounds;
  m["cluster.power_recount_share"] = recount_s / run_s;
  m["power.sensor_share"] = (self(SpanKind::kPowerFn) + st.event_sensor_self_s) / run_s;
  m["core.rounds_per_sim_s"] = static_cast<double>(plain.rounds) / L;
  m["core.policy_us_p50"] = median(calls) * 1e6;
  m["core.policy_us_tail"] = tail(calls) * 1e6;
  m["core.policy_calls"] = static_cast<double>(calls.size());
  m["core.policy_share"] = policy_s / run_s;
  m["core.downgrade_steps_per_round"] =
      have_policy ? static_cast<double>(policy.downgrade_steps) /
                        static_cast<double>(calls.size())
                  : 0.0;
  m["core.control_loop_share"] = cycle / run_s;
  m["core.leaf_close_share"] = leaf_s / run_s;
  m["core.summary_tree_us_per_round"] = rp.summary_tree_s_per_round * 1e6;
  m["core.summary_bytes_per_round"] = static_cast<double>(plain.summary_bytes) / rounds;
  m["cluster.build_s"] = total(SpanKind::kClusterBuild);
  m["core.daemon_build_s"] = total(SpanKind::kDaemonBuild);
  m["bench.trace_slowdown"] = run_s / plain_run_s;

  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    recorder.write_tsv(out);
    if (!out) std::fprintf(stderr, "perfbench_sim: cannot write %s\n", args.spans_out.c_str());
  }

  std::printf("dominant layers of %s (seed %llu), self-time share of the "
              "%.3f s traced run:\n",
              workload_name(in.workload), static_cast<unsigned long long>(args.seed),
              run_s);
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    std::printf("  %2zu. %-26s %6.1f%%  %9.4f s  %s\n", i + 1,
                ledger[i].layer.c_str(), 100.0 * ledger[i].seconds / run_s,
                ledger[i].seconds, ledger[i].source.c_str());
  }

  std::string metrics = "{";
  for (const auto& [name, value] : m) {
    metrics += (metrics.size() > 1 ? "," : "") + json_string(name) + ":" + json_number(value);
  }
  metrics += "}";
  std::string allocs_json = "{";
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    allocs_json += (k ? "," : "") + json_string(span_name(static_cast<SpanKind>(k))) +
                   ":" + std::to_string(st.self_allocs[k]);
  }
  allocs_json += "}";
  std::string ledger_json = "[";
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    ledger_json += (i ? "," : "") + std::string("{\"layer\":") +
                   json_string(ledger[i].layer) +
                   ",\"seconds\":" + json_number(ledger[i].seconds) +
                   ",\"share\":" + json_number(ledger[i].seconds / run_s) +
                   ",\"source\":" + json_string(ledger[i].source) + "}";
  }
  ledger_json += "]";
  std::printf(
      "{\"mode\":\"trace\",%s,%s,\"fingerprint\":%s,\"fingerprint_parallel\":%s,"
      "\"journal_digest\":%s,\"plain_run_s\":%s,\"traced_run_s\":%s,"
      "\"event_self_s\":{\"cycle\":%s,\"sensor\":%s,\"other\":%s},"
      "\"replay_overlap_s\":%s,\"span_self_allocs\":%s,\"spans\":%zu,"
      "\"spans_dropped\":%zu,"
      "\"metrics\":%s,\"ledger\":%s}\n",
      meta_json(args, in).c_str(), gate.json().c_str(),
      json_string(hex(plain.fingerprint)).c_str(), parallel_fp.c_str(),
      json_string(hex(plain.journal_digest)).c_str(),
      json_number(plain_run_s).c_str(), json_number(run_s).c_str(),
      json_number(st.event_cycle_self_s).c_str(),
      json_number(st.event_sensor_self_s).c_str(),
      json_number(st.event_other_self_s).c_str(), json_number(overlap).c_str(),
      allocs_json.c_str(),
      recorder.spans().size(), recorder.dropped(), metrics.c_str(),
      ledger_json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // The chaos workload's expected crash/takeover warnings stay off stderr.
  sim::set_log_level(sim::LogLevel::kError);
  try {
    return args.trace ? traced(args) : timed(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: run failed: %s\n", e.what());
    return 1;
  }
}
