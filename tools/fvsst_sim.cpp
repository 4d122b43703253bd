// fvsst_sim - Command-line scenario driver for the fvsst simulator.
//
// Compose a machine, workloads and a power-budget timeline from flags, run
// the fvsst daemon over it, and get a per-CPU report — no C++ required.
//
// Examples:
//   # mcf on CPU 3 of a P630, supply failure at t=5s
//   fvsst_sim --workload app:mcf@0.3 --budget 560 --budget-at 5:294
//
//   # 4-node cluster, synthetic workloads, distributed scheduler
//   fvsst_sim --nodes 4 --cluster --workload synth:20@0.0 ...
//     (multiple --workload flags compose a cluster-wide assignment)

//
//   # workload from a trace file, halted-idle machine, CSV dump
//   fvsst_sim --workload trace:examples/workloads/dbtier.trace@0.0 ...
//     with --idle-signal halted --csv /tmp/out
//
// Flags:
//   --nodes N            homogeneous P630 nodes (default 1)
//   --workload S@n.c     assign workload S to node n, cpu c; S is one of
//                        synth:INTENSITY[:INSTRUCTIONS]  (looping)
//                        app:gzip|gap|mcf|health|crafty|parser|art|equake
//                        trace:FILE
//   --budget W           initial CPU power budget in watts (default: peak)
//   --budget-at T:W      budget change at time T seconds (repeatable)
//   --duration S         simulated seconds (default 10)
//   --epsilon E          acceptable predicted loss (default 0.04)
//   --variant V          two-pass | continuous
//   --idle-signal V      os | halted | none     (default os)
//   --t MS               sampling period t in ms (default 10)
//   --multiplier N       T = N * t (default 10)
//   --cluster            use the distributed ClusterDaemon
//   --threads N          advance node cores on N threads; output
//                        is byte-identical to --threads 1 (--cluster only)
//   --topology T         flat (default): one coordinator over all nodes;
//                        tree: the sharded three-tier coordinator tree
//                        (leaf shard -> aggregate -> root) for large
//                        clusters (--cluster only, homogeneous nodes)
//   --shards N           leaf shard count for --topology tree (default:
//                        ~sqrt(nodes)); the journal is bit-identical
//                        across shard counts
//   --aggregates N       aggregate-tier coordinator count (default:
//                        ~sqrt(shards))
//   --journal-topology   opt into per-shard/per-tier journal detail
//                        (depends on the shard count, so off by default)
//   --margin-controller  enable the measured-power margin feedback loop
//   --seed S             RNG seed (default 42)
//   --csv DIR            dump frequency/power traces as CSV
//   --journal FILE       write the decision journal; the extension picks
//                        the format (.jsonl: JSON lines, .fjb: compact
//                        binary), any other extension needs --journal-format
//   --journal-format F   jsonl | binary — override the extension choice
//   --chrome-trace FILE  write a Chrome trace-event JSON (Perfetto-loadable)
//   --journal-cap N      ring-buffer the journal at N events (0: unbounded)
//   --explain            record pass-1/pass-2 rationale in the journal
//   --fault-plan FILE    inject faults from a fault-plan file (see
//                        sim::FaultPlan::parse for the line format)
//   --standby            run a standby coordinator that elects itself when
//                        the leader goes silent (--cluster only)
//   --transport M        datagram (default) | reliable: ack/retransmit
//                        sessions with duplicate suppression (--cluster)
//   --failsafe K         nodes drop to their budget/N frequency after K
//                        global periods without a coordinator (--cluster)
//   --rules FILE         enable the online monitor with alert rules from
//                        FILE ("default": the built-in rule pack); alerts
//                        are journalled and summarised in the report
//   --metrics-out FILE   write a Prometheus text-format metrics snapshot
//                        at the end of the run
//   --metrics-every S    also rewrite --metrics-out every S simulated
//                        seconds (a scrape-style refresh)
//   --help               this text
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "baselines/governor_daemon.h"
#include "baselines/optimal.h"
#include "baselines/policies.h"
#include "cluster/cluster.h"
#include "cluster/job_manager.h"
#include "core/cluster_daemon.h"
#include "core/daemon.h"
#include "core/tree_daemon.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "power/margin_controller.h"
#include "power/sensor.h"
#include "simkit/csv.h"
#include "simkit/event_log.h"
#include "simkit/log.h"
#include "simkit/monitor.h"
#include "simkit/prometheus.h"
#include "simkit/table.h"
#include "simkit/units.h"
#include "workload/app_profiles.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

using namespace fvsst;
using units::MHz;
using units::ms;

namespace {

struct Assignment {
  std::size_t node = 0;
  std::size_t cpu = 0;
  workload::WorkloadSpec spec;
};

struct BudgetChange {
  double at_s = 0.0;
  double watts = 0.0;
};

struct CliOptions {
  std::size_t nodes = 1;
  std::size_t slow_nodes = 0;  ///< Last K nodes derated to 600 MHz.
  std::optional<baselines::GovernorPolicy> governor;  ///< Replaces fvsst.
  /// Comparator policy (baselines::make_policy name) run through the real
  /// control loop in place of the two-pass scheduler.  Empty or "fvsst":
  /// the paper's scheduler.
  std::string policy;
  double smoothing = 0.0;
  std::vector<Assignment> assignments;
  /// Batch jobs: (submit time, spec); placed by the job manager.
  std::vector<std::pair<double, workload::WorkloadSpec>> batch_jobs;
  cluster::PlacementPolicy placement =
      cluster::PlacementPolicy::kLeastLoaded;
  double budget_w = -1.0;  // negative: peak
  std::vector<BudgetChange> budget_changes;
  double duration_s = 10.0;
  core::FrequencyScheduler::Options scheduler;
  core::IdleSignal idle_signal = core::IdleSignal::kOsSignal;
  double t_ms = 10.0;
  int multiplier = 10;
  bool use_cluster_daemon = false;
  int step_threads = 1;  ///< Parallel node stepping (--cluster only).
  /// "flat": one coordinator over all nodes (ClusterDaemon).  "tree": the
  /// three-tier sharded coordinator tree (TreeDaemon).  Needs --cluster.
  std::string topology = "flat";
  std::size_t shards = 0;      ///< Leaf shard count (0: ~sqrt(nodes)).
  std::size_t aggregates = 0;  ///< Aggregate fan-in (0: ~sqrt(shards)).
  bool journal_topology = false;  ///< Per-shard/per-tier journal detail.
  bool margin_controller = false;
  std::uint64_t seed = 42;
  std::string csv_dir;
  bool json = false;  ///< Machine-readable summary on stdout.
  std::string journal_path;       ///< Decision journal (.jsonl or .fjb).
  std::string journal_format;     ///< "jsonl" | "binary" | "" (by extension).
  std::string chrome_trace_path;  ///< Chrome trace-event JSON.
  std::size_t journal_cap = 0;    ///< Ring-buffer capacity (0: unbounded).
  bool explain = false;           ///< Record scheduler rationale.
  std::string fault_plan_path;    ///< Fault-injection plan file.
  bool standby = false;           ///< Run a standby coordinator (--cluster).
  double failsafe_factor = 0.0;   ///< Node fail-safe after K global periods.
  cluster::TransportMode transport = cluster::TransportMode::kDatagram;
  bool transport_set = false;     ///< --transport given (needs --cluster).
  std::string rules_path;         ///< Alert rules file, or "default".
  std::string metrics_out;        ///< Prometheus snapshot file.
  double metrics_every_s = 0.0;   ///< Periodic snapshot rewrite (0: final only).
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "fvsst_sim: %s\nrun with --help for usage\n",
               message.c_str());
  std::exit(2);
}

void print_help() {
  std::printf(
      "usage: fvsst_sim [--nodes N] [--slow-nodes K] [--workload SPEC@n.c]\n"
      "                 [--budget W] [--budget-at T:W ...] [--duration S]\n"
      "                 [--epsilon E] [--smoothing S] [--variant V]\n"
      "                 [--idle-signal os|halted|none] [--t MS]\n"
      "                 [--multiplier N] [--cluster] [--threads N]\n"
      "                 [--topology flat|tree] [--shards N]\n"
      "                 [--aggregates N] [--journal-topology]\n"
      "                 [--governor G] [--policy P]\n"
      "                 [--margin-controller] [--seed S] [--csv DIR]\n"
      "                 [--journal FILE] [--journal-format jsonl|binary]\n"
      "                 [--chrome-trace FILE] [--journal-cap N]\n"
      "                 [--explain] [--fault-plan FILE]\n"
      "                 [--standby] [--failsafe K] [--rules FILE|default]\n"
      "                 [--transport datagram|reliable]\n"
      "                 [--metrics-out FILE] [--metrics-every S]\n"
      "SPEC: synth:INTENSITY[:INSTRUCTIONS] | app:NAME | trace:FILE\n"
      "G: performance | powersave | ondemand | conservative\n"
      "P: fvsst | no-dvfs | uniform | power-down | consolidate | dbs |\n"
      "   dbs-capped | two-freq-split | lp-optimal\n"
      "(see docs/fvsst_sim.md for the full manual)\n");
}

double parse_double(const std::string& s, const char* what) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &used);
  } catch (const std::exception&) {
    usage_error(std::string("bad ") + what + ": '" + s + "'");
  }
  if (used != s.size()) {
    usage_error(std::string("trailing junk in ") + what + ": '" + s + "'");
  }
  return v;
}

Assignment parse_workload(const std::string& arg) {
  const std::size_t at = arg.rfind('@');
  if (at == std::string::npos) {
    usage_error("--workload needs SPEC@node.cpu: '" + arg + "'");
  }
  Assignment out;
  const std::string where = arg.substr(at + 1);
  const std::size_t dot = where.find('.');
  if (dot == std::string::npos) {
    usage_error("--workload placement must be node.cpu: '" + where + "'");
  }
  out.node = static_cast<std::size_t>(
      parse_double(where.substr(0, dot), "node index"));
  out.cpu = static_cast<std::size_t>(
      parse_double(where.substr(dot + 1), "cpu index"));

  const std::string spec = arg.substr(0, at);
  if (spec.rfind("synth:", 0) == 0) {
    const std::string rest = spec.substr(6);
    const std::size_t colon = rest.find(':');
    const double intensity =
        parse_double(colon == std::string::npos ? rest : rest.substr(0, colon),
                     "synth intensity");
    const double instructions =
        colon == std::string::npos
            ? 5e8
            : parse_double(rest.substr(colon + 1), "synth instructions");
    out.spec = workload::make_uniform_synthetic(intensity, instructions,
                                                /*loop=*/true);
  } else if (spec.rfind("app:", 0) == 0) {
    const std::string name = spec.substr(4);
    bool found = false;
    for (auto& app : workload::extended_applications()) {
      if (app.name == name) {
        out.spec = std::move(app);
        found = true;
        break;
      }
    }
    if (!found) usage_error("unknown app '" + name + "'");
  } else if (spec.rfind("trace:", 0) == 0) {
    try {
      out.spec = workload::load_workload_trace(spec.substr(6));
    } catch (const std::exception& e) {
      usage_error(e.what());
    }
  } else {
    usage_error("unknown workload spec '" + spec + "'");
  }
  return out;
}

BudgetChange parse_budget_at(const std::string& arg) {
  const std::size_t colon = arg.find(':');
  if (colon == std::string::npos) {
    usage_error("--budget-at needs T:W: '" + arg + "'");
  }
  return {parse_double(arg.substr(0, colon), "budget time"),
          parse_double(arg.substr(colon + 1), "budget watts")};
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions opts;
  auto next_value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) usage_error(std::string(flag) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      print_help();
      std::exit(0);
    } else if (flag == "--nodes") {
      opts.nodes = static_cast<std::size_t>(
          parse_double(next_value(i, "--nodes"), "node count"));
      if (opts.nodes == 0) usage_error("--nodes must be >= 1");
    } else if (flag == "--workload") {
      opts.assignments.push_back(parse_workload(next_value(i, "--workload")));
    } else if (flag == "--batch") {
      // SPEC@T: submit SPEC (same syntax as --workload, minus placement)
      // to the job manager at time T.  Batch jobs never loop.
      const std::string arg = next_value(i, "--batch");
      const std::size_t at = arg.rfind('@');
      if (at == std::string::npos) {
        usage_error("--batch needs SPEC@time: '" + arg + "'");
      }
      const double when = parse_double(arg.substr(at + 1), "batch time");
      Assignment parsed = parse_workload(arg.substr(0, at) + "@0.0");
      parsed.spec.loop = false;
      opts.batch_jobs.emplace_back(when, std::move(parsed.spec));
    } else if (flag == "--placement") {
      const std::string v = next_value(i, "--placement");
      if (v == "round-robin") {
        opts.placement = cluster::PlacementPolicy::kRoundRobin;
      } else if (v == "least-loaded") {
        opts.placement = cluster::PlacementPolicy::kLeastLoaded;
      } else if (v == "pack") {
        opts.placement = cluster::PlacementPolicy::kPackFirstFit;
      } else {
        usage_error("unknown placement '" + v + "'");
      }
    } else if (flag == "--budget") {
      opts.budget_w = parse_double(next_value(i, "--budget"), "budget");
    } else if (flag == "--budget-at") {
      opts.budget_changes.push_back(
          parse_budget_at(next_value(i, "--budget-at")));
    } else if (flag == "--duration") {
      opts.duration_s = parse_double(next_value(i, "--duration"), "duration");
    } else if (flag == "--epsilon") {
      opts.scheduler.epsilon =
          parse_double(next_value(i, "--epsilon"), "epsilon");
    } else if (flag == "--variant") {
      const std::string v = next_value(i, "--variant");
      if (v == "two-pass") {
        opts.scheduler.variant = core::SchedulerVariant::kTwoPass;
      } else if (v == "continuous") {
        opts.scheduler.variant = core::SchedulerVariant::kContinuous;
      } else {
        usage_error("unknown variant '" + v + "'");
      }
    } else if (flag == "--idle-signal") {
      const std::string v = next_value(i, "--idle-signal");
      if (v == "os") opts.idle_signal = core::IdleSignal::kOsSignal;
      else if (v == "halted") opts.idle_signal = core::IdleSignal::kHaltedCounter;
      else if (v == "none") opts.idle_signal = core::IdleSignal::kNone;
      else usage_error("unknown idle signal '" + v + "'");
    } else if (flag == "--t") {
      opts.t_ms = parse_double(next_value(i, "--t"), "t");
    } else if (flag == "--multiplier") {
      opts.multiplier = static_cast<int>(
          parse_double(next_value(i, "--multiplier"), "multiplier"));
    } else if (flag == "--slow-nodes") {
      opts.slow_nodes = static_cast<std::size_t>(
          parse_double(next_value(i, "--slow-nodes"), "slow node count"));
    } else if (flag == "--smoothing") {
      opts.smoothing =
          parse_double(next_value(i, "--smoothing"), "smoothing");
      if (opts.smoothing < 0.0 || opts.smoothing >= 1.0) {
        usage_error("--smoothing must be in [0, 1)");
      }
    } else if (flag == "--governor") {
      const std::string v = next_value(i, "--governor");
      if (v == "performance") {
        opts.governor = baselines::GovernorPolicy::kPerformance;
      } else if (v == "powersave") {
        opts.governor = baselines::GovernorPolicy::kPowersave;
      } else if (v == "ondemand") {
        opts.governor = baselines::GovernorPolicy::kOndemand;
      } else if (v == "conservative") {
        opts.governor = baselines::GovernorPolicy::kConservative;
      } else {
        usage_error("unknown governor '" + v + "'");
      }
    } else if (flag == "--policy") {
      opts.policy = next_value(i, "--policy");
    } else if (flag == "--cluster") {
      opts.use_cluster_daemon = true;
    } else if (flag == "--threads") {
      opts.step_threads = static_cast<int>(
          parse_double(next_value(i, "--threads"), "thread count"));
      if (opts.step_threads < 1) usage_error("--threads must be >= 1");
    } else if (flag == "--topology") {
      opts.topology = next_value(i, "--topology");
      if (opts.topology != "flat" && opts.topology != "tree") {
        usage_error("unknown topology '" + opts.topology +
                    "' (flat|tree)");
      }
    } else if (flag == "--shards") {
      opts.shards = static_cast<std::size_t>(
          parse_double(next_value(i, "--shards"), "shard count"));
      if (opts.shards == 0) usage_error("--shards must be >= 1");
    } else if (flag == "--aggregates") {
      opts.aggregates = static_cast<std::size_t>(
          parse_double(next_value(i, "--aggregates"), "aggregate count"));
      if (opts.aggregates == 0) usage_error("--aggregates must be >= 1");
    } else if (flag == "--journal-topology") {
      opts.journal_topology = true;
    } else if (flag == "--margin-controller") {
      opts.margin_controller = true;
    } else if (flag == "--seed") {
      opts.seed = static_cast<std::uint64_t>(
          parse_double(next_value(i, "--seed"), "seed"));
    } else if (flag == "--json") {
      opts.json = true;
    } else if (flag == "--csv") {
      opts.csv_dir = next_value(i, "--csv");
    } else if (flag == "--journal") {
      opts.journal_path = next_value(i, "--journal");
    } else if (flag == "--journal-format") {
      opts.journal_format = next_value(i, "--journal-format");
      if (opts.journal_format != "jsonl" && opts.journal_format != "binary") {
        usage_error("--journal-format must be jsonl or binary, not '" +
                    opts.journal_format + "'");
      }
    } else if (flag == "--chrome-trace") {
      opts.chrome_trace_path = next_value(i, "--chrome-trace");
    } else if (flag == "--journal-cap") {
      opts.journal_cap = static_cast<std::size_t>(
          parse_double(next_value(i, "--journal-cap"), "journal cap"));
    } else if (flag == "--explain") {
      opts.explain = true;
    } else if (flag == "--fault-plan") {
      opts.fault_plan_path = next_value(i, "--fault-plan");
    } else if (flag == "--transport") {
      const std::string v = next_value(i, "--transport");
      if (v == "datagram") opts.transport = cluster::TransportMode::kDatagram;
      else if (v == "reliable") opts.transport = cluster::TransportMode::kReliable;
      else usage_error("unknown transport '" + v + "' (datagram|reliable)");
      opts.transport_set = true;
    } else if (flag == "--standby") {
      opts.standby = true;
    } else if (flag == "--failsafe") {
      opts.failsafe_factor =
          parse_double(next_value(i, "--failsafe"), "failsafe factor");
      if (opts.failsafe_factor <= 0.0) {
        usage_error("--failsafe must be > 0 (global periods of silence)");
      }
    } else if (flag == "--rules") {
      opts.rules_path = next_value(i, "--rules");
    } else if (flag == "--metrics-out") {
      opts.metrics_out = next_value(i, "--metrics-out");
    } else if (flag == "--metrics-every") {
      opts.metrics_every_s =
          parse_double(next_value(i, "--metrics-every"), "metrics period");
      if (opts.metrics_every_s <= 0.0) {
        usage_error("--metrics-every must be > 0 seconds");
      }
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  return opts;
}

/// Format for --journal: an explicit --journal-format wins, otherwise the
/// file extension decides (.jsonl / .fjb).  Anything else is rejected so a
/// typo never silently produces the wrong encoding.
sim::JournalFormat resolve_journal_format(const CliOptions& opts) {
  if (opts.journal_format == "jsonl") return sim::JournalFormat::kJsonl;
  if (opts.journal_format == "binary") return sim::JournalFormat::kBinary;
  const std::string ext =
      std::filesystem::path(opts.journal_path).extension().string();
  if (ext == ".jsonl") return sim::JournalFormat::kJsonl;
  if (ext == ".fjb") return sim::JournalFormat::kBinary;
  usage_error("--journal '" + opts.journal_path + "': cannot infer format" +
              (ext.empty() ? " (no extension)"
                           : " from extension '" + ext + "'") +
              "; use .jsonl or .fjb, or pass --journal-format jsonl|binary");
}

/// Which targets a fault plan may name in this run, following
/// sim::FaultKind: nodes for node and channel kinds, flattened CPUs for
/// actuation kinds, the run's one power sensor (id 0) for sensor kinds,
/// and the running coordinators for coordinator kinds (0 = primary or
/// root, 1 = standby, 2.. = the tree's leaf coordinators).
struct FaultTargets {
  std::size_t nodes = 1;
  std::size_t cpus = 1;
  bool standby = false;
  std::size_t leaf_coordinators = 0;
};

/// A one-line reason naming the first spec whose target the run does not
/// have (such a spec would inject nothing, silently); empty when every
/// target exists.  Target -1 names every target and always passes.
std::string missing_fault_target(const sim::FaultPlan& plan,
                                 const FaultTargets& run) {
  const auto range = [](std::size_t first, std::size_t last) {
    return first == last ? std::to_string(first)
                         : std::to_string(first) + "-" + std::to_string(last);
  };
  for (const sim::FaultSpec& spec : plan.specs()) {
    if (spec.target == -1) continue;
    const long long target = spec.target;
    const auto in = [target](std::size_t count) {
      return target >= 0 && static_cast<std::size_t>(target) < count;
    };
    const char* unit = "node";
    std::string valid = range(0, run.nodes - 1);
    switch (spec.kind) {
      case sim::FaultKind::kSensorDropout:
      case sim::FaultKind::kSensorNoise:
      case sim::FaultKind::kSensorStuck:
        if (target == 0) continue;
        unit = "sensor";
        valid = "0";
        break;
      case sim::FaultKind::kActuationReject:
      case sim::FaultKind::kActuationSticky:
      case sim::FaultKind::kActuationDelay:
        if (in(run.cpus)) continue;
        unit = "cpu";
        valid = range(0, run.cpus - 1);
        break;
      case sim::FaultKind::kCoordinatorCrash:
      case sim::FaultKind::kPartition: {
        const std::size_t leaves_end = 2 + run.leaf_coordinators;
        if (target == 0 || (target == 1 && run.standby) ||
            (target >= 2 && in(leaves_end))) {
          continue;
        }
        unit = "coordinator";
        valid = run.standby ? "0-1" : "0";
        if (run.leaf_coordinators > 0) valid += ", " + range(2, leaves_end - 1);
        break;
      }
      case sim::FaultKind::kChannelLoss:
      case sim::FaultKind::kNodeCrash:
      case sim::FaultKind::kStaleSummaries:
      case sim::FaultKind::kChannelReorder:
      case sim::FaultKind::kChannelDuplicate:
      case sim::FaultKind::kChannelDelaySpike:
      case sim::FaultKind::kChannelCorrupt:
        if (in(run.nodes)) continue;
        break;
    }
    return std::string(sim::fault_kind_name(spec.kind)) + " targets " +
           unit + " " + std::to_string(target) + "; this run's " + unit +
           " ids are " + valid;
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  sim::init_log_level_from_env();
  const CliOptions opts = parse_args(argc, argv);

  sim::Simulation sim;
  sim::Rng rng(opts.seed);
  mach::MachineConfig machine = mach::p630();
  if (opts.idle_signal == core::IdleSignal::kHaltedCounter) {
    machine.idles_by_halting = true;
  }
  if (opts.slow_nodes > opts.nodes) {
    usage_error("--slow-nodes exceeds --nodes");
  }
  if ((opts.standby || opts.failsafe_factor > 0.0) &&
      !opts.use_cluster_daemon) {
    usage_error("--standby/--failsafe require --cluster");
  }
  if (opts.transport_set && !opts.use_cluster_daemon) {
    usage_error("--transport requires --cluster");
  }
  if (opts.step_threads > 1 && !opts.use_cluster_daemon) {
    usage_error("--threads requires --cluster");
  }
  const bool tree_topology = opts.topology == "tree";
  if (tree_topology && !opts.use_cluster_daemon) {
    usage_error("--topology tree requires --cluster");
  }
  if ((opts.shards > 0 || opts.aggregates > 0 || opts.journal_topology) &&
      !tree_topology) {
    usage_error("--shards/--aggregates/--journal-topology require "
                "--topology tree");
  }
  if (tree_topology && opts.slow_nodes > 0) {
    // The tree's compressed histogram is indexed by table point; mixed
    // tables have no shared bucket space.
    usage_error("--topology tree requires a homogeneous cluster "
                "(no --slow-nodes)");
  }
  if (tree_topology && opts.governor) {
    usage_error("--topology tree and --governor are mutually exclusive");
  }
  if (tree_topology && !opts.policy.empty() && opts.policy != "fvsst") {
    usage_error("--topology tree runs the fvsst scheduler only "
                "(leaf pass 1 + root cap profile); --policy is flat-only");
  }
  if (tree_topology && opts.smoothing != 0.0) {
    usage_error("--smoothing is not supported with --topology tree");
  }
  std::vector<mach::MachineConfig> configs(opts.nodes, machine);
  for (std::size_t i = opts.nodes - opts.slow_nodes; i < opts.nodes; ++i) {
    configs[i] = mach::derated(machine, 600e6);
  }
  cluster::Cluster cluster =
      cluster::Cluster::heterogeneous(sim, configs, rng);

  for (const auto& a : opts.assignments) {
    if (a.node >= cluster.node_count() ||
        a.cpu >= cluster.node(a.node).cpu_count()) {
      usage_error("workload placement out of range");
    }
    cluster.core({a.node, a.cpu}).add_workload(a.spec);
  }

  const double peak =
      static_cast<double>(cluster.cpu_count()) * 140.0;
  power::PowerBudget budget(opts.budget_w > 0 ? opts.budget_w : peak);
  for (const auto& change : opts.budget_changes) {
    sim.schedule_at(change.at_s,
                    [&budget, w = change.watts] { budget.set_limit_w(w); });
  }

  // Journal: one log shared by whichever daemon runs; files written after
  // the run.  --explain works even without an output file (it enriches
  // ScheduleResult), but is most useful combined with --journal.
  const bool want_journal =
      !opts.journal_path.empty() || !opts.chrome_trace_path.empty();
  const sim::JournalFormat journal_format =
      opts.journal_path.empty() ? sim::JournalFormat::kJsonl
                                : resolve_journal_format(opts);
  sim::EventLog journal(opts.journal_cap);

  sim::FaultPlan fault_plan;
  if (!opts.fault_plan_path.empty()) {
    std::ifstream plan_in(opts.fault_plan_path);
    if (!plan_in) {
      usage_error("cannot open fault plan '" + opts.fault_plan_path + "'");
    }
    try {
      fault_plan = sim::FaultPlan::parse(plan_in);
    } catch (const std::runtime_error& err) {
      usage_error(opts.fault_plan_path + ": " + err.what());
    }
  }
  const bool have_faults = !fault_plan.empty();

  if (opts.metrics_every_s > 0.0 && opts.metrics_out.empty()) {
    usage_error("--metrics-every needs --metrics-out");
  }

  // The online monitor (declared before the daemons so it outlives them:
  // they feed it from their destructors' perspective until the run ends).
  std::unique_ptr<sim::monitor::Monitor> monitor;
  if (!opts.rules_path.empty()) {
    sim::monitor::RuleSet rules;
    try {
      if (opts.rules_path == "default") {
        rules = sim::monitor::RuleSet::parse_string(
            sim::monitor::default_rule_pack());
      } else {
        std::ifstream rules_in(opts.rules_path);
        if (!rules_in) {
          usage_error("cannot open rules '" + opts.rules_path + "'");
        }
        rules = sim::monitor::RuleSet::parse(rules_in);
      }
    } catch (const std::runtime_error& err) {
      usage_error(opts.rules_path + ": " + err.what());
    }
    sim::monitor::Monitor::Options mopts;
    if (want_journal) mopts.journal = &journal;
    monitor =
        std::make_unique<sim::monitor::Monitor>(rules, std::move(mopts));
  }

  // Comparator policy: wrap a baselines::Policy in a PolicyStageAdapter and
  // hand the daemons a factory — coordinators rebuild their engine on crash
  // restart, so they need the recipe, not a single instance.  "fvsst" means
  // the default scheduler stage (no factory).
  core::PolicyStageFactory policy_factory;
  if (!opts.policy.empty() && opts.policy != "fvsst") {
    if (opts.governor) {
      usage_error("--policy and --governor are mutually exclusive");
    }
    if (!baselines::make_policy(opts.policy, opts.scheduler)) {
      usage_error("unknown policy '" + opts.policy + "'");
    }
    policy_factory = [name = opts.policy](
                         const mach::FrequencyTable&,
                         const mach::MemoryLatencies&,
                         const core::FrequencyScheduler::Options& sched)
        -> std::unique_ptr<core::PolicyStage> {
      return std::make_unique<baselines::PolicyStageAdapter>(
          baselines::make_policy(name, sched));
    };
  }

  core::DaemonConfig dcfg;
  dcfg.t_sample_s = opts.t_ms * ms;
  dcfg.schedule_every_n_samples = opts.multiplier;
  dcfg.scheduler = opts.scheduler;
  dcfg.scheduler.explain = opts.explain;
  dcfg.idle_signal = opts.idle_signal;
  dcfg.estimate_smoothing = opts.smoothing;
  if (want_journal) dcfg.journal = &journal;
  if (have_faults) dcfg.fault_plan = &fault_plan;
  dcfg.monitor = monitor.get();
  dcfg.policy_factory = policy_factory;

  std::unique_ptr<core::FvsstDaemon> daemon;
  std::unique_ptr<core::ClusterDaemon> cluster_daemon;
  std::unique_ptr<core::TreeDaemon> tree_daemon;
  std::unique_ptr<baselines::GovernorDaemon> governor;
  if (opts.governor) {
    baselines::GovernorDaemon::Config gcfg;
    gcfg.policy = *opts.governor;
    gcfg.period_s = opts.t_ms * ms;
    if (want_journal) gcfg.journal = &journal;
    governor = std::make_unique<baselines::GovernorDaemon>(
        sim, cluster, machine.freq_table, gcfg);
  } else if (opts.use_cluster_daemon && tree_topology) {
    core::TreeDaemonConfig tcfg;
    tcfg.t_sample_s = dcfg.t_sample_s;
    tcfg.schedule_every_n_samples = dcfg.schedule_every_n_samples;
    tcfg.shards = opts.shards;
    tcfg.aggregates = opts.aggregates;
    tcfg.step_threads = opts.step_threads;
    tcfg.idle_signal = opts.idle_signal;
    tcfg.scheduler = dcfg.scheduler;
    tcfg.transport = opts.transport;
    tcfg.standby_root = opts.standby;
    tcfg.failsafe_factor = opts.failsafe_factor;
    if (want_journal) tcfg.journal = &journal;
    if (have_faults) tcfg.fault_plan = &fault_plan;
    tcfg.monitor = monitor.get();
    tcfg.journal_topology = opts.journal_topology;
    tree_daemon = std::make_unique<core::TreeDaemon>(
        sim, cluster, machine.freq_table, budget, tcfg);
  } else if (opts.use_cluster_daemon) {
    core::ClusterDaemonConfig ccfg;
    ccfg.t_sample_s = dcfg.t_sample_s;
    ccfg.schedule_every_n_samples = dcfg.schedule_every_n_samples;
    ccfg.scheduler = dcfg.scheduler;
    ccfg.idle_signal = opts.idle_signal;
    if (want_journal) ccfg.journal = &journal;
    if (have_faults) ccfg.fault_plan = &fault_plan;
    ccfg.failover.standby = opts.standby;
    ccfg.failover.node_failsafe_factor = opts.failsafe_factor;
    ccfg.transport = opts.transport;
    ccfg.step_threads = opts.step_threads;
    ccfg.monitor = monitor.get();
    ccfg.policy_factory = policy_factory;
    cluster_daemon = std::make_unique<core::ClusterDaemon>(
        sim, cluster, machine.freq_table, budget, ccfg);
  } else {
    daemon = std::make_unique<core::FvsstDaemon>(
        sim, cluster, machine.freq_table, budget, dcfg);
  }
  if (have_faults) {
    FaultTargets run;
    run.nodes = cluster.node_count();
    run.cpus = cluster.cpu_count();
    run.standby = opts.standby;
    if (tree_daemon) run.leaf_coordinators = tree_daemon->shard_count();
    const std::string missing = missing_fault_target(fault_plan, run);
    if (!missing.empty()) usage_error(opts.fault_plan_path + ": " + missing);
  }

  std::unique_ptr<cluster::JobManager> job_manager;
  if (!opts.batch_jobs.empty()) {
    job_manager =
        std::make_unique<cluster::JobManager>(sim, cluster, opts.placement);
    for (auto& [when, spec] : opts.batch_jobs) {
      job_manager->submit_at(when, spec);
    }
  }

  std::unique_ptr<power::MarginController> margin;
  power::PowerSensor* margin_sensor = nullptr;  // set once the sensor exists
  if (opts.margin_controller) {
    // Under fault injection the controller reads the (faultable) sensor —
    // noisy or stuck readings then feed back into the margin, as they
    // would in a real deployment.  Fault-free runs keep reading the model
    // directly so their outputs stay bit-for-bit unchanged.
    if (have_faults) {
      margin = std::make_unique<power::MarginController>(
          sim, budget,
          [&margin_sensor] { return margin_sensor->last_sample_w(); });
    } else {
      margin = std::make_unique<power::MarginController>(
          sim, budget, [&] { return cluster.cpu_power_w(); });
    }
  }

  power::PowerSensor sensor(sim, [&] { return cluster.cpu_power_w(); },
                            5 * ms);
  margin_sensor = &sensor;
  if (have_faults) {
    sensor.set_fault_plan(&fault_plan, want_journal ? &journal : nullptr);
  }

  // Prometheus exposition: snapshot semantics, so each write replaces the
  // file — a scraper (or scripts/check.sh) always sees one consistent
  // snapshot.  Works with or without --rules; without, it exports just the
  // active daemon's registry.
  sim::MetricRegistry* metrics_registry =
      daemon ? &daemon->telemetry()
             : cluster_daemon ? &cluster_daemon->telemetry()
                              : tree_daemon ? &tree_daemon->telemetry()
                                            : governor
                                                  ? &governor->telemetry()
                                                  : nullptr;
  bool metrics_write_failed = false;
  const auto write_metrics = [&]() {
    std::ofstream out(opts.metrics_out, std::ios::out | std::ios::trunc);
    if (out) sim::write_prometheus(out, metrics_registry, monitor.get(),
                                   sim.now());
    out.flush();
    if (!out) metrics_write_failed = true;
  };
  if (!opts.metrics_out.empty() && opts.metrics_every_s > 0.0) {
    sim.schedule_every(opts.metrics_every_s, write_metrics);
  }

  // Streaming journal: an unbounded journal headed for a plain JSONL or
  // binary file is flushed to disk as the run produces events, so memory
  // stays bounded at scale.  A chrome trace needs the whole log at the end
  // and a --journal-cap ring drops events after the fact, so either keeps
  // the buffered end-of-run path (as does a path that fails to open — the
  // buffered write reports that error).
  const bool journal_is_binary =
      journal_format == sim::JournalFormat::kBinary;
  std::ofstream journal_stream_out;
  std::unique_ptr<sim::JournalWriter> journal_stream;
  if (!opts.journal_path.empty() && opts.journal_cap == 0 &&
      opts.chrome_trace_path.empty()) {
    journal_stream_out.open(opts.journal_path,
                            journal_is_binary
                                ? std::ios::out | std::ios::binary
                                : std::ios::out);
    if (journal_stream_out) {
      if (journal_is_binary) {
        journal_stream =
            std::make_unique<sim::BinaryJournalWriter>(journal_stream_out);
      } else {
        journal_stream =
            std::make_unique<sim::JsonlStreamWriter>(journal_stream_out);
      }
      journal.stream_to(journal_stream.get());
    }
  }

  int exit_code = 0;
  try {
    sim.run_for(opts.duration_s);
  } catch (const sim::JournalWriteError& err) {
    // A mid-run flush hit a dead sink (disk full, closed pipe).  The run
    // is incomplete, so report and bail rather than print a bogus summary.
    std::fprintf(stderr, "fvsst_sim: journal '%s': %s\n",
                 opts.journal_path.c_str(), err.what());
    journal.stream_to(nullptr);
    return 1;
  }

  // ---- Journal exports --------------------------------------------------
  const bool streamed_journal = journal_stream != nullptr;
  if (journal_stream) {
    bool stream_failed = false;
    try {
      journal.flush_stream();
      journal_stream->flush();
    } catch (const sim::JournalWriteError& err) {
      std::fprintf(stderr, "fvsst_sim: journal '%s': %s\n",
                   opts.journal_path.c_str(), err.what());
      stream_failed = true;
    }
    journal.stream_to(nullptr);
    journal_stream.reset();
    journal_stream_out.flush();
    if (stream_failed || !journal_stream_out) {
      if (!stream_failed) {
        std::fprintf(stderr, "fvsst_sim: failed to write journal '%s'\n",
                     opts.journal_path.c_str());
      }
      exit_code = 1;
    } else {
      std::fprintf(stderr, "[journal] wrote %zu events to %s%s\n",
                   journal.streamed(), opts.journal_path.c_str(), "");
    }
  }
  const auto write_journal_file = [&](const std::string& path, auto writer,
                                      const char* what, bool binary) {
    std::ofstream out(path, binary ? std::ios::out | std::ios::binary
                                   : std::ios::out);
    try {
      if (out) writer(out, journal);
    } catch (const sim::JournalWriteError& err) {
      std::fprintf(stderr, "fvsst_sim: %s '%s': %s\n", what, path.c_str(),
                   err.what());
      exit_code = 1;
      return;
    }
    out.flush();
    if (!out) {
      std::fprintf(stderr, "fvsst_sim: failed to write %s '%s'\n", what,
                   path.c_str());
      exit_code = 1;
      return;
    }
    std::fprintf(stderr, "[journal] wrote %zu events to %s%s\n",
                 journal.size(), path.c_str(),
                 journal.dropped()
                     ? (" (" + std::to_string(journal.dropped()) +
                        " dropped by --journal-cap)").c_str()
                     : "");
  };
  if (!opts.journal_path.empty() && !streamed_journal) {
    write_journal_file(opts.journal_path,
                       [&](std::ostream& o, const sim::EventLog& l) {
                         if (journal_is_binary) sim::write_binary(o, l);
                         else sim::write_jsonl(o, l);
                       },
                       "journal", journal_is_binary);
  }
  if (!opts.chrome_trace_path.empty()) {
    write_journal_file(opts.chrome_trace_path,
                       [](std::ostream& o, const sim::EventLog& l) {
                         sim::write_chrome_trace(o, l);
                       },
                       "chrome trace", /*binary=*/false);
  }
  if (!opts.metrics_out.empty()) {
    write_metrics();
    if (metrics_write_failed) {
      std::fprintf(stderr, "fvsst_sim: failed to write metrics '%s'\n",
                   opts.metrics_out.c_str());
      exit_code = 1;
    } else {
      std::fprintf(stderr, "[metrics] wrote %s\n", opts.metrics_out.c_str());
    }
  }

  // ---- Report -----------------------------------------------------------
  if (opts.json) {
    std::printf("{\n");
    if (monitor) {
      // Extra top-level key, only with --rules, so existing consumers of
      // the plain summary see byte-identical output.
      std::printf("  \"alerts\": {\"raised\": %zu, \"cleared\": %zu, "
                  "\"firing\": [",
                  monitor->alerts_raised(), monitor->alerts_cleared());
      bool first_alert = true;
      for (std::size_t i = 0; i < monitor->rules().size(); ++i) {
        if (!monitor->alerts()[i].firing) continue;
        std::printf("%s\"%s\"", first_alert ? "" : ", ",
                    json_escape(monitor->rules()[i].name).c_str());
        first_alert = false;
      }
      std::printf("]},\n");
    }
    std::printf("  \"nodes\": %zu,\n  \"cpus\": %zu,\n"
                "  \"simulated_s\": %.6f,\n  \"budget_w\": %.3f,\n"
                "  \"effective_budget_w\": %.3f,\n  \"cpu_power_w\": %.3f,\n"
                "  \"compliant\": %s,\n  \"mean_power_w\": %.3f,\n"
                "  \"energy_j\": %.3f,\n  \"cpus_detail\": [\n",
                cluster.node_count(), cluster.cpu_count(), sim.now(),
                budget.limit_w(), budget.effective_limit_w(),
                cluster.cpu_power_w(),
                cluster.cpu_power_w() <= budget.effective_limit_w() + 1e-9
                    ? "true"
                    : "false",
                sensor.mean_power_w(), sensor.energy_j());
    bool first = true;
    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      for (std::size_t c = 0; c < cluster.node(n).cpu_count(); ++c) {
        auto& core_ref = cluster.core({n, c});
        std::printf(
            "%s    {\"node\": %zu, \"cpu\": %zu, \"freq_hz\": %.0f, "
            "\"idle\": %s, \"instructions\": %.6e, \"name\": \"%s\"}",
            first ? "" : ",\n", n, c, core_ref.frequency_hz(),
            core_ref.idle() ? "true" : "false",
            core_ref.instructions_retired(),
            json_escape(core_ref.name()).c_str());
        first = false;
      }
    }
    std::printf("\n  ]\n}\n");
    return exit_code;
  }
  std::printf("fvsst_sim: %zu node(s), %zu CPU(s), %.1f s simulated\n",
              cluster.node_count(), cluster.cpu_count(), sim.now());
  std::printf("budget: %.1f W effective (raw %.1f W, margin %.1f%%)\n",
              budget.effective_limit_w(), budget.limit_w(),
              budget.margin_fraction() * 100.0);
  std::printf("CPU power now: %.1f W (%s); mean %.1f W; energy %.1f J\n",
              cluster.cpu_power_w(),
              cluster.cpu_power_w() <= budget.effective_limit_w() + 1e-9
                  ? "compliant"
                  : "OVER BUDGET",
              sensor.mean_power_w(), sensor.energy_j());
  if (daemon) {
    if (policy_factory) std::printf("policy: %s\n", opts.policy.c_str());
    std::printf("schedules run: %zu\n", daemon->schedules_run());
  } else if (cluster_daemon) {
    if (policy_factory) std::printf("policy: %s\n", opts.policy.c_str());
    std::printf("global rounds: %zu\n", cluster_daemon->rounds());
  } else if (tree_daemon) {
    std::printf("topology: tree, %zu shard(s), %zu aggregate(s)\n",
                tree_daemon->shard_count(), tree_daemon->aggregate_count());
    std::printf("tree rounds: %zu; summaries %zu (%zu bytes up); "
                "last lag %.1f us; epoch %llu\n",
                tree_daemon->rounds(), tree_daemon->summaries_sent(),
                tree_daemon->summary_bytes_sent(),
                tree_daemon->last_lag_s() * 1e6,
                static_cast<unsigned long long>(tree_daemon->epoch()));
  } else if (governor) {
    std::printf("governor: %s, %zu evaluations\n",
                baselines::governor_name(*opts.governor).c_str(),
                governor->evaluations());
  }
  if (have_faults) {
    std::printf("faults: %zu spec(s), seed %llu; sensor samples faulted %zu",
                fault_plan.size(),
                static_cast<unsigned long long>(fault_plan.seed()),
                sensor.faulted_samples());
    if (daemon) {
      std::printf("; degraded CPUs now %zu, retrying %zu",
                  daemon->loop().degraded_cpu_count(),
                  daemon->loop().retrying_cpu_count());
    } else if (cluster_daemon) {
      std::printf("; messages lost %zu, stale nodes now %zu",
                  cluster_daemon->messages_lost(),
                  cluster_daemon->stale_node_count());
    } else if (tree_daemon) {
      std::printf("; fail-safe shards now %zu",
                  tree_daemon->failsafe_shard_count());
    }
    std::printf("\n");
  }
  if (monitor) {
    std::printf(
        "monitor: %zu rule(s), %zu evaluation(s); "
        "alerts raised %zu, cleared %zu, firing %zu\n",
        monitor->rules().size(), monitor->evaluations(),
        monitor->alerts_raised(), monitor->alerts_cleared(),
        monitor->firing_count());
    for (std::size_t i = 0; i < monitor->rules().size(); ++i) {
      const auto& state = monitor->alerts()[i];
      if (!state.firing) continue;
      std::printf("  ALERT %s [%s]: value %.6g since t=%.3f s (%s)\n",
                  monitor->rules()[i].name.c_str(),
                  std::string(sim::monitor::severity_name(
                                  monitor->rules()[i].severity))
                      .c_str(),
                  state.value, state.raised_t,
                  monitor->rules()[i].expression().c_str());
    }
  }

  sim::TextTable out("Per-CPU state at end of run");
  out.set_header({"cpu", "freq MHz", "idle", "instr retired", "mean IPC"});
  std::size_t flat = 0;
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    for (std::size_t c = 0; c < cluster.node(n).cpu_count(); ++c, ++flat) {
      auto& core_ref = cluster.core({n, c});
      const auto counters = core_ref.read_counters();
      out.add_row({"node" + std::to_string(n) + ".cpu" + std::to_string(c),
                   sim::TextTable::num(core_ref.frequency_hz() / MHz, 0),
                   core_ref.idle() ? "yes" : "no",
                   sim::TextTable::num(core_ref.instructions_retired() / 1e9,
                                       2) + "e9",
                   sim::TextTable::num(counters.ipc(), 3)});
    }
  }
  out.print();

  if (job_manager) {
    sim::TextTable batch("Batch jobs");
    batch.set_header({"job", "placed on", "turnaround"});
    for (std::size_t j = 0; j < job_manager->submitted(); ++j) {
      const auto& record = job_manager->job(j);
      batch.add_row(
          {record.name,
           "node" + std::to_string(record.placed_on.node) + ".cpu" +
               std::to_string(record.placed_on.cpu),
           record.finished_at >= 0
               ? sim::TextTable::num(record.finished_at - record.submitted_at,
                                     2) + " s"
               : "(running)"});
    }
    batch.print();
  }

  if (!opts.csv_dir.empty() && daemon) {
    std::error_code ec;
    std::filesystem::create_directories(opts.csv_dir, ec);
    std::size_t csv_failures = 0;
    for (std::size_t i = 0; i < daemon->cpu_count(); ++i) {
      const std::string path =
          opts.csv_dir + "/cpu" + std::to_string(i) + "_freq.csv";
      if (sim::write_series_csv(path, {&daemon->granted_freq_trace(i),
                                       &daemon->desired_freq_trace(i)},
                                dcfg.t_sample_s)) {
        std::printf("[csv] wrote %s\n", path.c_str());
      } else {
        ++csv_failures;
      }
    }
    const std::string ppath = opts.csv_dir + "/cpu_power.csv";
    if (sim::write_series_csv(ppath, {&sensor.trace()}, 5 * ms)) {
      std::printf("[csv] wrote %s\n", ppath.c_str());
    } else {
      ++csv_failures;
    }
    if (csv_failures > 0) {
      std::fprintf(stderr,
                   "fvsst_sim: warning: %zu CSV file(s) could not be written "
                   "under '%s'\n",
                   csv_failures, opts.csv_dir.c_str());
      exit_code = 1;
    }
  }
  return exit_code;
}
