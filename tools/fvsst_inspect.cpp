// fvsst_inspect - Reads a decision journal (fvsst_sim --journal) and prints
// a run summary, checks scheduling invariants, diffs two runs, or converts
// between encodings.
//
// Usage:
//   fvsst_inspect JOURNAL             per-run summary
//   fvsst_inspect JOURNAL --check     verify invariants; exit 1 on violation
//   fvsst_inspect JOURNAL --diff B    compare decisions; exit 1 on divergence
//   fvsst_inspect JOURNAL --to-jsonl OUT
//                                     re-emit as JSON lines ('-': stdout)
//   fvsst_inspect JOURNAL --chrome-trace OUT
//                                     export as Chrome trace-event JSON
//
// Journals may be JSON lines or the compact "FJB1" binary record
// (fvsst_sim --journal foo.fjb); the encoding is sniffed from the first
// bytes, so every mode accepts either.  --to-jsonl on a binary journal
// reproduces the exact JSONL bytes fvsst_sim's buffered JSONL path would
// have written for the same run — the lossless converter.  --chrome-trace
// renders any journal, including a binary one recorded without fvsst_sim's
// live --chrome-trace flag, into a file Perfetto / chrome://tracing loads
// directly.
//
// The checks (--check):
//   1. total power <= budget whenever the scheduler claims feasibility;
//   2. each granted frequency is an operating point of its CPU's table and
//      carries that point's minimum stable voltage (pass 3);
//   3. the scheduling period T restarts after a budget trigger (SMP daemon
//      journals only — declared by run_meta t_restarts).
// All checking logic lives in sim::JournalChecker / sim::diff_journals
// (src/simkit/event_log.h); this binary is the command-line face.  Summary,
// --check and --to-jsonl run as a single streaming pass (sim::for_each_jsonl
// / sim::for_each_binary), so a multi-gigabyte journal is inspected in
// bounded memory; only --diff loads journals whole.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "simkit/event_log.h"
#include "simkit/table.h"

using namespace fvsst;

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "fvsst_inspect: %s\n"
               "usage: fvsst_inspect JOURNAL [--check] [--diff OTHER] "
               "[--to-jsonl OUT] [--chrome-trace OUT]\n",
               message.c_str());
  std::exit(2);
}

/// One streaming pass in whichever encoding the sniff reported.  The two
/// readers share the delivery and torn-tail contracts, so callers only
/// differ in which decoder runs.
std::size_t for_each_event(std::istream& in, sim::JournalFormat format,
                           const std::function<void(sim::Event&&)>& fn,
                           sim::JsonlReadReport* report) {
  return format == sim::JournalFormat::kBinary
             ? sim::for_each_binary(in, fn, report)
             : sim::for_each_jsonl(in, fn, report);
}

sim::EventLog load(const std::string& path) {
  // std::ios::binary keeps the FJB1 byte stream untranslated; it is a
  // no-op for JSONL text.
  std::ifstream in(path, std::ios::binary);
  if (!in) usage_error("cannot open journal '" + path + "'");
  try {
    // Tolerant load: a torn final record (the writer died mid-record) is a
    // fact about the run worth inspecting, not a reason to refuse it.
    const sim::JournalFormat format = sim::detect_journal_format(in);
    sim::JsonlReadReport report;
    sim::EventLog log = format == sim::JournalFormat::kBinary
                            ? sim::read_binary(in, &report)
                            : sim::read_jsonl(in, &report);
    if (report.torn_tail) {
      std::fprintf(stderr,
                   "fvsst_inspect: %s: torn final record dropped (%s); "
                   "recovered %zu complete event(s)\n",
                   path.c_str(), report.error.c_str(), log.size());
    }
    return log;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fvsst_inspect: %s: %s\n", path.c_str(), e.what());
    std::exit(2);
  }
}

/// --to-jsonl: stream the journal out as JSON lines.  For a binary input
/// this emits, byte for byte, the JSONL that fvsst_sim's buffered JSONL
/// path would have written; a JSONL input round-trips unchanged.
int run_to_jsonl(const std::string& journal_path,
                 const std::string& out_path) {
  std::ifstream in(journal_path, std::ios::binary);
  if (!in) usage_error("cannot open journal '" + journal_path + "'");
  const sim::JournalFormat format = sim::detect_journal_format(in);

  std::ofstream file_out;
  std::ostream* out = &std::cout;
  if (out_path != "-") {
    file_out.open(out_path, std::ios::binary);
    if (!file_out) usage_error("cannot open output '" + out_path + "'");
    out = &file_out;
  }

  std::string buffer;
  sim::JsonlReadReport report;
  std::size_t delivered = 0;
  try {
    delivered = for_each_event(in, format,
                               [&](sim::Event&& e) {
                                 sim::append_event_jsonl(buffer, e);
                                 if (buffer.size() >= 64 * 1024) {
                                   out->write(buffer.data(),
                                              static_cast<std::streamsize>(
                                                  buffer.size()));
                                   buffer.clear();
                                 }
                               },
                               &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fvsst_inspect: %s: %s\n", journal_path.c_str(),
                 e.what());
    return 2;
  }
  out->write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out->flush();
  if (!*out) {
    std::fprintf(stderr, "fvsst_inspect: failed to write '%s'\n",
                 out_path.c_str());
    return 2;
  }
  if (report.torn_tail) {
    std::fprintf(stderr,
                 "fvsst_inspect: %s: torn final record dropped (%s); "
                 "converted %zu complete event(s)\n",
                 journal_path.c_str(), report.error.c_str(), delivered);
  }
  // Progress goes to stderr so '-' leaves pure JSONL on stdout.
  std::fprintf(stderr, "[convert] wrote %zu event(s) as JSONL to %s\n",
               delivered, out_path.c_str());
  return 0;
}

/// --chrome-trace: convert the journal into Chrome trace-event JSON.  The
/// trace writer takes a whole EventLog, so this mode loads the journal
/// whole — the tolerant load, like every other mode, so a torn tail still
/// converts.
int run_chrome_trace(const std::string& journal_path,
                     const std::string& out_path) {
  const sim::EventLog log = load(journal_path);
  std::ofstream out(out_path, std::ios::binary);
  if (!out) usage_error("cannot open output '" + out_path + "'");
  sim::write_chrome_trace(out, log);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "fvsst_inspect: failed to write '%s'\n",
                 out_path.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "[convert] wrote chrome trace for %zu event(s) to %s\n",
               log.size(), out_path.c_str());
  return 0;
}

// Summary aggregates, filled by one streaming pass over the journal.  The
// state here is bounded by the variety of the journal (event types, CPUs,
// distinct frequencies), not its length, so arbitrarily long journals
// summarise in constant memory.
struct SummaryStats {
  std::size_t count = 0;
  double t_lo = 0.0;
  double t_hi = 0.0;
  bool have_meta = false;
  std::string meta_daemon;
  bool meta_has_daemon = false;
  double meta_cpus = 0.0;
  double meta_t_sample = 0.0;
  double meta_multiplier = 0.0;
  double meta_t_restarts = 0.0;
  std::map<std::string, std::size_t> by_type;
  std::map<std::string, std::size_t> by_trigger;
  std::map<int, std::pair<std::size_t, std::map<double, std::size_t>>> by_cpu;
  std::size_t infeasible = 0;
  std::vector<double> budget_moves;
  std::map<std::string, std::size_t> faults_by_kind;
  std::map<std::string, std::size_t> degraded_by_reason;
  std::map<std::string, std::size_t> lost_by_cause;
  std::vector<std::pair<double, std::string>> epoch_moves;  // (epoch, reason)
  std::size_t settings_rejected = 0;
  std::map<std::string, std::size_t> snapshots_by_op;
  // Transport session-layer breakdowns (reliable mode / channel faults).
  std::string meta_transport;
  std::map<std::string, std::size_t> retransmit_by_direction;
  double retransmit_max_attempt = 0.0;
  std::map<std::string, std::size_t> duplicate_by_direction;
  std::map<std::string, std::size_t> expired_by_cause;
  std::map<std::string, std::size_t> corrupt_by_direction;
  // Tree-topology breakdowns (kAggregation events).  Root decisions carry
  // a "round" field; per-tier detail (--journal-topology runs) carries
  // "tier" 0 (leaf shard) or 1 (aggregate) instead.
  std::size_t agg_rounds = 0;
  double agg_lag_max = 0.0;
  double agg_lag_sum = 0.0;
  double agg_promoted = 0.0;
  double agg_last_cap_hz = 0.0;
  std::size_t agg_infeasible = 0;
  // shard/agg id -> (summaries, wire bytes, max mailbox depth)
  std::map<int, std::tuple<std::size_t, std::size_t, std::size_t>> by_shard;
  std::map<int, std::tuple<std::size_t, std::size_t, std::size_t>> by_agg;

  void observe(const sim::Event& e) {
    if (count == 0) {
      t_lo = t_hi = e.t;
    } else {
      t_lo = std::min(t_lo, e.t);
      t_hi = std::max(t_hi, e.t);
    }
    ++count;
    ++by_type[std::string(sim::event_type_name(e.type))];
    switch (e.type) {
      case sim::EventType::kRunMeta:
        if (!have_meta) {
          have_meta = true;
          if (const std::string* daemon = e.find_str("daemon")) {
            meta_daemon = *daemon;
            meta_has_daemon = true;
          }
          meta_cpus = e.num_or("cpus");
          meta_t_sample = e.num_or("t_sample_s");
          meta_multiplier = e.num_or("multiplier");
          meta_t_restarts = e.num_or("t_restarts");
          if (const std::string* transport = e.find_str("transport")) {
            meta_transport = *transport;
          }
        }
        break;
      case sim::EventType::kCycleStart:
        if (const std::string* trigger = e.find_str("trigger")) {
          ++by_trigger[*trigger];
        }
        break;
      case sim::EventType::kDecision: {
        auto& [decisions, freqs] = by_cpu[e.cpu];
        ++decisions;
        ++freqs[e.num_or("granted_hz")];
        break;
      }
      case sim::EventType::kInfeasibleBudget:
        ++infeasible;
        break;
      case sim::EventType::kBudgetChange:
        budget_moves.push_back(e.num_or("budget_w"));
        break;
      case sim::EventType::kFault: {
        const std::string* kind = e.find_str("kind");
        ++faults_by_kind[kind ? *kind : "?"];
        break;
      }
      case sim::EventType::kDegradedMode: {
        const std::string* state = e.find_str("state");
        if (state && *state == "enter") {
          const std::string* reason = e.find_str("reason");
          ++degraded_by_reason[reason ? *reason : "?"];
        }
        break;
      }
      case sim::EventType::kMessageLost: {
        const std::string* cause = e.find_str("cause");
        ++lost_by_cause[cause ? *cause : "?"];
        break;
      }
      case sim::EventType::kEpochChange: {
        const std::string* reason = e.find_str("reason");
        epoch_moves.emplace_back(e.num_or("epoch"), reason ? *reason : "?");
        break;
      }
      case sim::EventType::kSettingsRejected:
        ++settings_rejected;
        break;
      case sim::EventType::kSnapshot: {
        const std::string* op = e.find_str("op");
        ++snapshots_by_op[op ? *op : "?"];
        break;
      }
      case sim::EventType::kMessageRetransmit: {
        const std::string* direction = e.find_str("direction");
        ++retransmit_by_direction[direction ? *direction : "?"];
        retransmit_max_attempt =
            std::max(retransmit_max_attempt, e.num_or("attempt"));
        break;
      }
      case sim::EventType::kMessageDuplicate: {
        const std::string* direction = e.find_str("direction");
        ++duplicate_by_direction[direction ? *direction : "?"];
        break;
      }
      case sim::EventType::kMessageExpired: {
        const std::string* cause = e.find_str("cause");
        ++expired_by_cause[cause ? *cause : "?"];
        break;
      }
      case sim::EventType::kMessageCorrupt: {
        const std::string* direction = e.find_str("direction");
        ++corrupt_by_direction[direction ? *direction : "?"];
        break;
      }
      case sim::EventType::kAggregation: {
        if (e.has_num("round")) {
          ++agg_rounds;
          const double lag = e.num_or("lag_s");
          agg_lag_max = std::max(agg_lag_max, lag);
          agg_lag_sum += lag;
          agg_promoted += e.num_or("promoted");
          agg_last_cap_hz = e.num_or("cap_hz");
          if (e.num_or("feasible", 1.0) == 0.0) ++agg_infeasible;
        } else {
          // A tier event whose id or sizes are not integers in int range
          // is left out of the breakdown (casting them is undefined).
          const bool leaf = e.num_or("tier") == 0.0;
          const double id = e.num_or(leaf ? "shard" : "agg");
          const double wire = e.num_or("bytes");
          const double mailbox = e.num_or("mailbox");
          if (!sim::int_in_range(id, 0.0) || !sim::int_in_range(wire, 0.0) ||
              !sim::int_in_range(mailbox, 0.0)) {
            break;
          }
          auto& [n, bytes, mail] =
              (leaf ? by_shard : by_agg)[static_cast<int>(id)];
          ++n;
          bytes += static_cast<std::size_t>(wire);
          mail = std::max(mail, static_cast<std::size_t>(mailbox));
        }
        break;
      }
      default:
        break;
    }
  }
};

void print_summary(const std::string& path, const SummaryStats& s) {
  std::printf("journal: %s (%zu events)\n", path.c_str(), s.count);
  if (s.count == 0) return;

  const auto& by_type = s.by_type;
  const auto& by_trigger = s.by_trigger;
  const auto& by_cpu = s.by_cpu;
  const auto& budget_moves = s.budget_moves;
  const auto& faults_by_kind = s.faults_by_kind;
  const auto& degraded_by_reason = s.degraded_by_reason;
  const auto& lost_by_cause = s.lost_by_cause;
  const auto& epoch_moves = s.epoch_moves;
  const auto& snapshots_by_op = s.snapshots_by_op;
  const std::size_t infeasible = s.infeasible;
  const std::size_t settings_rejected = s.settings_rejected;

  if (s.have_meta) {
    const std::string cpus = sim::int_in_range(s.meta_cpus, 0.0)
                                 ? std::to_string(static_cast<int>(s.meta_cpus))
                                 : "?";
    std::printf(
        "run: daemon=%s, %s CPU(s), t=%.0f ms, T=%.0f ms%s%s%s\n",
        s.meta_has_daemon ? s.meta_daemon.c_str() : "?", cpus.c_str(),
        s.meta_t_sample * 1e3,
        s.meta_t_sample * s.meta_multiplier * 1e3,
        s.meta_t_restarts != 0.0 ? " (T restarts on budget trigger)" : "",
        s.meta_transport.empty() ? "" : ", transport=",
        s.meta_transport.c_str());
  }
  std::printf("time span: %.3f s .. %.3f s\n", s.t_lo, s.t_hi);

  sim::TextTable types("Events by type");
  types.set_header({"type", "count"});
  for (const auto& [type, count] : by_type) {
    types.add_row({type, sim::TextTable::num(count, 0)});
  }
  types.print();

  if (!by_trigger.empty()) {
    std::printf("cycles by trigger:");
    for (const auto& [trigger, count] : by_trigger) {
      std::printf(" %s=%zu", trigger.c_str(), count);
    }
    std::printf("\n");
  }
  if (!budget_moves.empty()) {
    std::printf("budget changes: %zu (", budget_moves.size());
    for (std::size_t i = 0; i < budget_moves.size(); ++i) {
      std::printf("%s%.0f W", i ? ", " : "", budget_moves[i]);
    }
    std::printf(")\n");
  }
  if (infeasible > 0) {
    std::printf("infeasible-budget cycles: %zu\n", infeasible);
  }
  if (!faults_by_kind.empty()) {
    std::printf("fault events by kind:");
    for (const auto& [kind, count] : faults_by_kind) {
      std::printf(" %s=%zu", kind.c_str(), count);
    }
    std::printf("\n");
  }
  if (!degraded_by_reason.empty()) {
    std::printf("degraded-mode entries by reason:");
    for (const auto& [reason, count] : degraded_by_reason) {
      std::printf(" %s=%zu", reason.c_str(), count);
    }
    std::printf("\n");
  }
  if (!lost_by_cause.empty()) {
    std::printf("messages lost by cause:");
    for (const auto& [cause, count] : lost_by_cause) {
      std::printf(" %s=%zu", cause.c_str(), count);
    }
    std::printf("\n");
  }
  if (!epoch_moves.empty()) {
    std::printf("coordinator epochs:");
    for (const auto& [epoch, reason] : epoch_moves) {
      std::printf(" %.0f(%s)", epoch, reason.c_str());
    }
    std::printf("\n");
  }
  if (settings_rejected > 0) {
    std::printf("settings fenced off (stale epoch): %zu\n", settings_rejected);
  }
  if (!snapshots_by_op.empty()) {
    std::printf("coordinator snapshots:");
    for (const auto& [op, count] : snapshots_by_op) {
      std::printf(" %s=%zu", op.c_str(), count);
    }
    std::printf("\n");
  }
  if (!s.retransmit_by_direction.empty()) {
    std::printf("retransmissions:");
    for (const auto& [direction, count] : s.retransmit_by_direction) {
      std::printf(" %s=%zu", direction.c_str(), count);
    }
    if (sim::int_in_range(s.retransmit_max_attempt, 0.0)) {
      std::printf(" (max attempt %d)\n",
                  static_cast<int>(s.retransmit_max_attempt));
    } else {
      std::printf(" (max attempt ?)\n");
    }
  }
  if (!s.duplicate_by_direction.empty()) {
    std::printf("duplicates suppressed:");
    for (const auto& [direction, count] : s.duplicate_by_direction) {
      std::printf(" %s=%zu", direction.c_str(), count);
    }
    std::printf("\n");
  }
  if (!s.expired_by_cause.empty()) {
    std::printf("messages expired by cause:");
    for (const auto& [cause, count] : s.expired_by_cause) {
      std::printf(" %s=%zu", cause.c_str(), count);
    }
    std::printf("\n");
  }
  if (!s.corrupt_by_direction.empty()) {
    std::printf("corrupt frames dropped:");
    for (const auto& [direction, count] : s.corrupt_by_direction) {
      std::printf(" %s=%zu", direction.c_str(), count);
    }
    std::printf("\n");
  }

  if (s.agg_rounds > 0) {
    std::printf(
        "tree rounds: %zu; lag mean %.0f us, max %.0f us; promotions %.0f; "
        "last cap %.0f MHz%s\n",
        s.agg_rounds, s.agg_lag_sum / static_cast<double>(s.agg_rounds) * 1e6,
        s.agg_lag_max * 1e6, s.agg_promoted, s.agg_last_cap_hz / 1e6,
        s.agg_infeasible
            ? (" (" + std::to_string(s.agg_infeasible) + " infeasible)")
                  .c_str()
            : "");
  }
  if (!s.by_shard.empty() || !s.by_agg.empty()) {
    sim::TextTable tiers("Tree tiers (--journal-topology runs)");
    tiers.set_header(
        {"tier", "id", "summaries", "wire bytes", "max mailbox"});
    for (const auto& [id, stats] : s.by_shard) {
      const auto& [n, bytes, mail] = stats;
      tiers.add_row({"leaf", "shard" + std::to_string(id),
                     sim::TextTable::num(n, 0), sim::TextTable::num(bytes, 0),
                     sim::TextTable::num(mail, 0)});
    }
    for (const auto& [id, stats] : s.by_agg) {
      const auto& [n, bytes, mail] = stats;
      tiers.add_row({"aggregate", "agg" + std::to_string(id),
                     sim::TextTable::num(n, 0), sim::TextTable::num(bytes, 0),
                     sim::TextTable::num(mail, 0)});
    }
    tiers.print();
  }

  if (!by_cpu.empty()) {
    sim::TextTable decisions("Decisions per CPU");
    decisions.set_header({"cpu", "decisions", "distinct freqs", "top freq MHz",
                          "share"});
    for (const auto& [cpu, stats] : by_cpu) {
      const auto& [count, freqs] = stats;
      double top_hz = 0.0;
      std::size_t top_count = 0;
      for (const auto& [hz, n] : freqs) {
        if (n > top_count) {
          top_count = n;
          top_hz = hz;
        }
      }
      decisions.add_row(
          {"cpu" + std::to_string(cpu), sim::TextTable::num(count, 0),
           sim::TextTable::num(freqs.size(), 0),
           sim::TextTable::num(top_hz / 1e6, 0),
           sim::TextTable::pct(static_cast<double>(top_count) /
                                   static_cast<double>(count),
                               1)});
    }
    decisions.print();
  }
}

int run_check(const sim::JournalCheckReport& report) {
  for (const std::string& s : report.skipped) {
    std::printf("skipped: %s\n", s.c_str());
  }
  for (const std::string& v : report.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  std::printf("%s: %zu check(s) run, %zu violation(s)\n",
              report.ok() ? "OK" : "FAILED", report.checks_run,
              report.violations.size());
  return report.ok() ? 0 : 1;
}

int run_diff(const std::string& path_a, const sim::EventLog& a,
             const std::string& path_b, const sim::EventLog& b) {
  const sim::JournalDiff diff = sim::diff_journals(a, b);
  sim::TextTable counts("Event counts: A=" + path_a + "  B=" + path_b);
  counts.set_header({"type", "A", "B"});
  for (const auto& tc : diff.type_counts) {
    counts.add_row({tc.type, sim::TextTable::num(tc.a, 0),
                    sim::TextTable::num(tc.b, 0)});
  }
  counts.print();
  std::printf("decisions: %zu compared, %zu differing, %zu unmatched\n",
              diff.decisions_compared, diff.decisions_differing,
              diff.decisions_unmatched);
  if (diff.first_divergence_t >= 0.0) {
    std::printf("first divergence: t=%.3f s cpu%d\n", diff.first_divergence_t,
                diff.first_divergence_cpu);
  }
  std::printf("%s\n", diff.identical_decisions() ? "runs agree"
                                                 : "runs DIVERGE");
  return diff.identical_decisions() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string journal_path;
  std::string diff_path;
  std::string to_jsonl_path;
  std::string chrome_trace_path;
  bool to_jsonl = false;
  bool chrome_trace = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::printf(
          "usage: fvsst_inspect JOURNAL [--check] [--diff OTHER] "
          "[--to-jsonl OUT] [--chrome-trace OUT]\n"
          "Reads a decision journal written by fvsst_sim --journal; both\n"
          "the JSON-lines and the binary (.fjb) encodings are detected\n"
          "automatically.\n"
          "  (no flags)     print a run summary\n"
          "  --check        verify scheduling invariants; exit 1 on "
          "violation\n"
          "  --diff B       compare decisions against journal B; exit 1 when "
          "they diverge\n"
          "  --to-jsonl OUT re-emit the journal as JSON lines ('-' for "
          "stdout);\n"
          "                 a binary journal converts to the exact bytes the\n"
          "                 JSONL writer would have produced\n"
          "  --chrome-trace OUT\n"
          "                 export as Chrome trace-event JSON (open in\n"
          "                 Perfetto or chrome://tracing); works on binary\n"
          "                 journals recorded without a live trace\n");
      return 0;
    } else if (flag == "--check") {
      check = true;
    } else if (flag == "--diff") {
      if (i + 1 >= argc) usage_error("--diff needs a journal path");
      diff_path = argv[++i];
    } else if (flag == "--to-jsonl") {
      if (i + 1 >= argc) {
        usage_error("--to-jsonl needs an output path (or - for stdout)");
      }
      to_jsonl = true;
      to_jsonl_path = argv[++i];
    } else if (flag == "--chrome-trace") {
      if (i + 1 >= argc) usage_error("--chrome-trace needs an output path");
      chrome_trace = true;
      chrome_trace_path = argv[++i];
    } else if (!flag.empty() && flag[0] == '-') {
      usage_error("unknown flag '" + flag + "'");
    } else if (journal_path.empty()) {
      journal_path = flag;
    } else {
      usage_error("more than one journal given; use --diff for comparisons");
    }
  }
  if (journal_path.empty()) usage_error("no journal given");
  if ((to_jsonl || chrome_trace) &&
      (check || !diff_path.empty() || (to_jsonl && chrome_trace))) {
    usage_error(
        "--to-jsonl / --chrome-trace are exclusive of each other and of "
        "--check / --diff");
  }

  if (to_jsonl) return run_to_jsonl(journal_path, to_jsonl_path);
  if (chrome_trace) return run_chrome_trace(journal_path, chrome_trace_path);

  if (!diff_path.empty()) {
    // Diffing genuinely needs both decision streams resident (events are
    // matched by (t, cpu) across the runs), so it keeps the in-memory load.
    const sim::EventLog log = load(journal_path);
    const sim::EventLog other = load(diff_path);
    return run_diff(journal_path, log, diff_path, other);
  }

  // Summary and --check share one streaming pass: memory stays bounded by
  // the journal's variety, never its length.
  std::ifstream in(journal_path, std::ios::binary);
  if (!in) usage_error("cannot open journal '" + journal_path + "'");
  const sim::JournalFormat format = sim::detect_journal_format(in);
  SummaryStats stats;
  sim::JournalChecker checker;
  sim::JsonlReadReport report;
  std::size_t delivered = 0;
  try {
    delivered = for_each_event(in, format,
                               [&](sim::Event&& e) {
                                 stats.observe(e);
                                 if (check) checker.observe(e);
                               },
                               &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fvsst_inspect: %s: %s\n", journal_path.c_str(),
                 e.what());
    return 2;
  }
  if (report.torn_tail) {
    std::fprintf(stderr,
                 "fvsst_inspect: %s: torn final record dropped (%s); "
                 "recovered %zu complete event(s)\n",
                 journal_path.c_str(), report.error.c_str(), delivered);
  }
  print_summary(journal_path, stats);
  if (check) {
    std::printf("\n");
    return run_check(checker.finish());
  }
  return 0;
}
