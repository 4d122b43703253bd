// Tests for the decision journal (simkit/event_log.h): ring-buffer
// semantics, JSONL round-trip, Chrome-trace shape, the end-to-end journal a
// daemon run emits, explain-mode rationale, the invariant checker, and the
// run differ.
#include "simkit/event_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/daemon.h"
#include "core/scheduler.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "proptest.h"
#include "simkit/rng.h"
#include "simkit/telemetry.h"
#include "simkit/units.h"
#include "workload/synthetic.h"

namespace fvsst {
namespace {

using units::GHz;
using units::MHz;

TEST(EventLog, TypeNamesRoundTrip) {
  for (sim::EventType type :
       {sim::EventType::kRunMeta, sim::EventType::kTablePoint,
        sim::EventType::kCycleStart, sim::EventType::kDecision,
        sim::EventType::kDowngrade, sim::EventType::kBudgetChange,
        sim::EventType::kIdleEnter, sim::EventType::kIdleExit,
        sim::EventType::kInfeasibleBudget, sim::EventType::kActuation}) {
    const auto name = sim::event_type_name(type);
    const auto back = sim::event_type_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, type) << name;
  }
  EXPECT_FALSE(sim::event_type_from_name("nonsense").has_value());
}

TEST(EventLog, UnboundedKeepsEverything) {
  sim::EventLog log;
  for (int i = 0; i < 100; ++i) {
    log.append(i * 0.01, sim::EventType::kCycleStart).set("cycle", i);
  }
  EXPECT_EQ(log.size(), 100u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLog, RingBufferDropsOldest) {
  sim::EventLog log(10);
  for (int i = 0; i < 25; ++i) {
    log.append(i * 0.01, sim::EventType::kCycleStart).set("cycle", i);
  }
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(log.dropped(), 15u);
  // Survivors are the newest ten, oldest first.
  EXPECT_DOUBLE_EQ(log.events().front().num_or("cycle"), 15.0);
  EXPECT_DOUBLE_EQ(log.events().back().num_or("cycle"), 24.0);
}

TEST(EventLog, JsonlRoundTripPreservesPayload) {
  sim::EventLog log;
  log.append(0.0, sim::EventType::kRunMeta)
      .set("t_sample_s", 0.010)
      .set("multiplier", 10.0)
      .set("daemon", std::string("fvsst"));
  log.append(0.1, sim::EventType::kDecision, 3)
      .set("granted_hz", 8e8)
      .set("predicted_loss", 0.031)
      .set("pass1", std::string("epsilon"));
  log.append(0.2, sim::EventType::kCycleStart)
      .set("trigger", std::string("line\nbreak\tand \"quote\" \x01 end"));

  std::ostringstream out;
  sim::write_jsonl(out, log);
  std::istringstream in(out.str());
  const sim::EventLog back = sim::read_jsonl(in);

  ASSERT_EQ(back.size(), 3u);
  const sim::Event& meta = back.events()[0];
  EXPECT_EQ(meta.type, sim::EventType::kRunMeta);
  EXPECT_DOUBLE_EQ(meta.num_or("t_sample_s"), 0.010);
  ASSERT_NE(meta.find_str("daemon"), nullptr);
  EXPECT_EQ(*meta.find_str("daemon"), "fvsst");

  const sim::Event& decision = back.events()[1];
  EXPECT_EQ(decision.cpu, 3);
  EXPECT_DOUBLE_EQ(decision.num_or("granted_hz"), 8e8);
  EXPECT_DOUBLE_EQ(decision.num_or("predicted_loss"), 0.031);
  ASSERT_NE(decision.find_str("pass1"), nullptr);
  EXPECT_EQ(*decision.find_str("pass1"), "epsilon");

  // Control characters survive the escape round trip.
  const sim::Event& cycle = back.events()[2];
  ASSERT_NE(cycle.find_str("trigger"), nullptr);
  EXPECT_EQ(*cycle.find_str("trigger"),
            "line\nbreak\tand \"quote\" \x01 end");
}

// The JSONL line of an event with one string field, split around the field
// so each case checks the escaped key and value bytes alone.
std::string jsonl_with(const std::string& key, const std::string& value) {
  sim::Event e;
  e.type = sim::EventType::kCycleStart;
  e.set(key, value);
  std::string out;
  sim::append_event_jsonl(out, e);
  return out;
}

TEST(EventLog, JsonlStringEscapingIsByteExact) {
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls += static_cast<char>(c);
  const std::string plain_run(5000, 'x');
  const std::string high = "caf\xc3\xa9 \x7f~";
  const struct {
    std::string raw;
    std::string escaped;
  } cases[] = {
      {"", ""},
      {"plain", "plain"},
      {"\"start", "\\\"start"},
      {"mid\\dle", "mid\\\\dle"},
      {"end\n", "end\\n"},
      {"\"\\\n\t\r\b\f", "\\\"\\\\\\n\\t\\r\\b\\f"},
      {"a\x01\x1f" "b", "a\\u0001\\u001fb"},
      {controls,
       "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
       "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
       "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
       "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"},
      {plain_run, plain_run},
      {"\t" + plain_run + "\"" + plain_run + "\\",
       "\\t" + plain_run + "\\\"" + plain_run + "\\\\"},
      {high, high},
  };
  const std::string prefix = "{\"t\":0,\"type\":\"cycle_start\",";
  for (const auto& c : cases) {
    const std::string quoted = "\"" + c.escaped + "\"";
    // As a value and as a key.
    EXPECT_EQ(jsonl_with("k", c.raw), prefix + "\"k\":" + quoted + "}\n");
    EXPECT_EQ(jsonl_with(c.raw, "v"), prefix + quoted + ":\"v\"}\n");
    // The ostream twin the telemetry writers use escapes identically.
    std::ostringstream twin;
    sim::write_json_string(twin, c.raw);
    EXPECT_EQ(twin.str(), quoted);
  }
  // Every control byte alone between plain characters.
  for (int c = 0; c < 0x20; ++c) {
    std::string escaped;
    switch (c) {
      case '\b': escaped = "\\b"; break;
      case '\t': escaped = "\\t"; break;
      case '\n': escaped = "\\n"; break;
      case '\f': escaped = "\\f"; break;
      case '\r': escaped = "\\r"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        escaped = buf;
      }
    }
    const std::string raw = std::string("<") + static_cast<char>(c) + ">";
    EXPECT_EQ(jsonl_with("k", raw),
              prefix + "\"k\":\"<" + escaped + ">\"}\n")
        << "byte " << c;
  }
}

TEST(EventLog, JsonlClampsNonFiniteNumbers) {
  sim::EventLog log;
  log.append(0.0, sim::EventType::kBudgetChange)
      .set("budget_w", std::numeric_limits<double>::infinity())
      .set("undefined", std::nan(""));
  std::ostringstream out;
  sim::write_jsonl(out, log);
  // Valid JSON: no bare inf/nan tokens on the wire.
  EXPECT_EQ(out.str().find("inf"), std::string::npos);
  EXPECT_EQ(out.str().find("nan"), std::string::npos);
  std::istringstream in(out.str());
  const sim::EventLog back = sim::read_jsonl(in);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_DOUBLE_EQ(back.events()[0].num_or("budget_w"),
                   std::numeric_limits<double>::max());
  EXPECT_DOUBLE_EQ(back.events()[0].num_or("undefined"), 0.0);
}

TEST(EventLog, ReaderRejectsMalformedLines) {
  std::istringstream bad_json("{\"t\":0.0,\"type\":\"decision\"");
  EXPECT_THROW(sim::read_jsonl(bad_json), std::runtime_error);
  std::istringstream bad_type("{\"t\":0.0,\"type\":\"warp_drive\"}");
  EXPECT_THROW(sim::read_jsonl(bad_type), std::runtime_error);
  std::istringstream blank_ok("\n{\"t\":1.5,\"type\":\"idle_enter\",\"cpu\":2}\n\n");
  const sim::EventLog log = sim::read_jsonl(blank_ok);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.events()[0].type, sim::EventType::kIdleEnter);
  EXPECT_EQ(log.events()[0].cpu, 2);
}

// --- Reader fuzzing ------------------------------------------------------

// A log of random events whose string payloads deliberately include control
// characters, quotes, backslashes, and the occasional multi-KB blob —
// everything the JSONL escaper has to survive.
sim::EventLog random_log(std::uint64_t seed) {
  sim::Rng rng(seed);
  static const sim::EventType kTypes[] = {
      sim::EventType::kCycleStart,   sim::EventType::kDecision,
      sim::EventType::kActuation,    sim::EventType::kFault,
      sim::EventType::kDegradedMode, sim::EventType::kMessageLost,
      sim::EventType::kIdleEnter};
  sim::EventLog log;
  const int events = static_cast<int>(rng.uniform_int(1, 60));
  double t = 0.0;
  for (int i = 0; i < events; ++i) {
    t += rng.uniform(0.0, 0.1);
    auto& e = log.append(t, kTypes[rng.uniform_int(0, 6)],
                         static_cast<int>(rng.uniform_int(-1, 7)));
    const int nums = static_cast<int>(rng.uniform_int(0, 4));
    for (int k = 0; k < nums; ++k) {
      e.set("n" + std::to_string(k),
            rng.uniform(-1e6, 1e6) *
                std::pow(10.0, static_cast<double>(rng.uniform_int(-9, 9))));
    }
    const int strs = static_cast<int>(rng.uniform_int(0, 2));
    for (int k = 0; k < strs; ++k) {
      const std::size_t len =
          rng.bernoulli(0.05)
              ? 4096
              : static_cast<std::size_t>(rng.uniform_int(0, 40));
      std::string payload;
      payload.reserve(len);
      for (std::size_t c = 0; c < len; ++c) {
        payload.push_back(static_cast<char>(rng.uniform_int(1, 126)));
      }
      e.set("s" + std::to_string(k), payload);
    }
  }
  return log;
}

TEST(EventLogFuzz, RandomLogsRoundTripThroughJsonl) {
  // write -> read -> write is the identity on the wire: every payload key,
  // control character, and double survives exactly.
  proptest::run_seeded(41000, 200, "./tests/test_event_log",
                       [](std::uint64_t seed) {
    const sim::EventLog log = random_log(seed);
    std::ostringstream first;
    sim::write_jsonl(first, log);
    std::istringstream in(first.str());
    const sim::EventLog back = sim::read_jsonl(in);
    ASSERT_EQ(back.size(), log.size());
    std::ostringstream second;
    sim::write_jsonl(second, back);
    EXPECT_EQ(second.str(), first.str());
  });
}

TEST(EventLogFuzz, TruncatedTailsRecoverCompleteEvents) {
  // Cutting a journal at any byte must never crash the tolerant reader: it
  // recovers exactly the complete lines, and flags a torn tail that the
  // strict reader would have rejected.
  proptest::run_seeded(43000, 100, "./tests/test_event_log",
                       [](std::uint64_t seed) {
    sim::Rng cuts(seed ^ 0x9e3779b97f4a7c15ull);
    const sim::EventLog log = random_log(seed);
    std::ostringstream out;
    sim::write_jsonl(out, log);
    const std::string full = out.str();
    ASSERT_FALSE(full.empty());
    for (int i = 0; i < 20; ++i) {
      const std::size_t at = static_cast<std::size_t>(
          cuts.uniform_int(0, static_cast<std::int64_t>(full.size())));
      const std::string torn = full.substr(0, at);
      const std::size_t complete_lines = static_cast<std::size_t>(
          std::count(torn.begin(), torn.end(), '\n'));
      std::istringstream in(torn);
      sim::JsonlReadReport report;
      sim::EventLog recovered;
      ASSERT_NO_THROW(recovered = sim::read_jsonl(in, &report))
          << "cut at byte " << at;
      // A cut exactly after a closing brace leaves a complete unterminated
      // final line; every other cut loses only the torn line.
      EXPECT_TRUE(recovered.size() == complete_lines ||
                  recovered.size() == complete_lines + 1)
          << "cut at byte " << at << " recovered " << recovered.size();
      if (report.torn_tail) {
        EXPECT_EQ(recovered.size(), complete_lines) << "cut at byte " << at;
        EXPECT_FALSE(report.error.empty());
        std::istringstream strict(torn);
        EXPECT_THROW(sim::read_jsonl(strict), std::runtime_error)
            << "cut at byte " << at;
      }
    }
  });
}

TEST(EventLogFuzz, MidFileCorruptionThrowsEvenWithReport) {
  // The tolerant overload forgives only the tail; a corrupt line with valid
  // lines after it is real damage and must still throw.
  sim::EventLog log;
  for (int i = 0; i < 3; ++i) {
    log.append(i * 0.1, sim::EventType::kCycleStart).set("cycle", i);
  }
  std::ostringstream out;
  sim::write_jsonl(out, log);
  std::string text = out.str();
  text[0] = 'X';
  std::istringstream in(text);
  sim::JsonlReadReport report;
  EXPECT_THROW(sim::read_jsonl(in, &report), std::runtime_error);
}

// --- End-to-end journals from a daemon run ------------------------------

sim::EventLog run_daemon_journal(bool explain, double budget_w = 300.0,
                                 std::size_t capacity = 0) {
  sim::EventLog journal(capacity);
  sim::Simulation simulation;
  sim::Rng rng(4242);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(simulation, machine, 1, rng);
  cluster.core({0, 0}).add_workload(
      workload::make_uniform_synthetic(100.0, 1e12));
  cluster.core({0, 1}).add_workload(
      workload::make_uniform_synthetic(25.0, 1e12));
  power::PowerBudget budget(budget_w);
  core::DaemonConfig config;
  config.journal = &journal;
  config.scheduler.explain = explain;
  core::FvsstDaemon daemon(simulation, cluster, machine.freq_table, budget,
                           config);
  simulation.run_for(1.0);
  budget.set_limit_w(budget_w * 0.6);  // exercise the budget trigger
  simulation.run_for(1.0);
  return journal;
}

std::size_t count_type(const sim::EventLog& log, sim::EventType type) {
  std::size_t n = 0;
  for (const sim::Event& e : log.events()) n += e.type == type;
  return n;
}

TEST(EventLogDaemon, JournalHasExpectedShape) {
  const sim::EventLog journal = run_daemon_journal(/*explain=*/false);
  ASSERT_FALSE(journal.empty());

  // run_meta leads, before the machine's operating-point dump.
  EXPECT_EQ(journal.events().front().type, sim::EventType::kRunMeta);
  EXPECT_DOUBLE_EQ(journal.events().front().num_or("t_restarts"), 1.0);
  // 4 CPUs x 16 operating points.
  EXPECT_EQ(count_type(journal, sim::EventType::kTablePoint), 64u);

  const std::size_t cycles = count_type(journal, sim::EventType::kCycleStart);
  EXPECT_GT(cycles, 15u);  // ~20 timer cycles over 2 s with T = 100 ms
  // Every cycle carries one decision per CPU and one actuation record.
  EXPECT_EQ(count_type(journal, sim::EventType::kDecision), cycles * 4);
  EXPECT_EQ(count_type(journal, sim::EventType::kActuation), cycles);
  EXPECT_EQ(count_type(journal, sim::EventType::kBudgetChange), 1u);

  // The budget move produced a budget-triggered cycle.
  std::size_t budget_cycles = 0;
  for (const sim::Event& e : journal.events()) {
    if (e.type != sim::EventType::kCycleStart) continue;
    const std::string* trigger = e.find_str("trigger");
    ASSERT_NE(trigger, nullptr);
    budget_cycles += *trigger == "budget";
  }
  EXPECT_EQ(budget_cycles, 1u);

  // Off-explain journals still carry the pass-1 rationale name.
  for (const sim::Event& e : journal.events()) {
    if (e.type != sim::EventType::kDecision) continue;
    ASSERT_NE(e.find_str("pass1"), nullptr);
    break;
  }
}

TEST(EventLogDaemon, CheckPassesOnRealRun) {
  const sim::EventLog journal = run_daemon_journal(/*explain=*/true);
  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
  EXPECT_GT(report.checks_run, 0u);
  // An SMP journal has no cluster-failover or transport data, so exactly
  // the three protocol checks (epoch fencing, failover window, transport
  // convergence) report as skipped.
  EXPECT_EQ(report.skipped.size(), 3u);
  for (const std::string& s : report.skipped) {
    EXPECT_TRUE(s.find("epoch") != std::string::npos ||
                s.find("failover") != std::string::npos ||
                s.find("transport-convergence") != std::string::npos)
        << s;
  }
}

TEST(EventLogDaemon, ExplainRecordsDowngradeSequence) {
  // Budget 150 W for four CPUs forces pass 2 below the 2x140 W peak ask.
  const sim::EventLog journal =
      run_daemon_journal(/*explain=*/true, /*budget_w=*/150.0);
  const std::size_t downgrades =
      count_type(journal, sim::EventType::kDowngrade);
  ASSERT_GT(downgrades, 0u);

  // Downgrade records carry the greedy-choice evidence and each step's
  // sequence number restarts per cycle.
  std::size_t last_seq = 0;
  for (const sim::Event& e : journal.events()) {
    if (e.type == sim::EventType::kActuation) last_seq = 0;
    if (e.type != sim::EventType::kDowngrade) continue;
    EXPECT_GE(e.cpu, 0);
    EXPECT_GT(e.num_or("from_hz"), e.num_or("to_hz"));
    EXPECT_GT(e.num_or("watts_saved"), 0.0);
    EXPECT_GE(e.num_or("marginal_loss"), 0.0);
    EXPECT_EQ(e.num_or("seq"), static_cast<double>(last_seq));
    ++last_seq;
  }

  // Explain decisions expose the pass-1 cutoff: when a lower setting was
  // rejected, its loss must be at or above epsilon (0.04 default).
  bool saw_rejection = false;
  for (const sim::Event& e : journal.events()) {
    if (e.type != sim::EventType::kDecision) continue;
    ASSERT_TRUE(e.has_num("pass1_loss"));
    const double rejected = e.num_or("rejected_loss", -1.0);
    if (rejected >= 0.0 && e.find_str("pass1") &&
        *e.find_str("pass1") == "epsilon") {
      EXPECT_GE(rejected, 0.04);
      saw_rejection = true;
    }
  }
  EXPECT_TRUE(saw_rejection);
}

TEST(EventLogDaemon, RingBufferJournalSkipsTableChecks) {
  // A small ring drops run_meta and the table dump; the checker must
  // degrade to "skipped", not report false violations.
  const sim::EventLog journal =
      run_daemon_journal(/*explain=*/false, 300.0, /*capacity=*/50);
  EXPECT_EQ(journal.size(), 50u);
  EXPECT_GT(journal.dropped(), 0u);
  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.skipped.empty());
}

TEST(EventLogDaemon, ChromeTraceIsBalancedJson) {
  const sim::EventLog journal = run_daemon_journal(/*explain=*/false);
  std::ostringstream out;
  sim::write_chrome_trace(out, journal);
  const std::string trace = out.str();
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("{\"name\":\"cycle\",\"ph\":\"i\""),
            std::string::npos);  // cycles as instants
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);  // counters

  // Structurally valid: braces and brackets balance outside strings.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const char c = trace[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

// --- Invariant checker on hand-built journals ---------------------------

sim::EventLog minimal_table_journal() {
  sim::EventLog log;
  log.append(0.0, sim::EventType::kRunMeta)
      .set("t_sample_s", 0.01)
      .set("multiplier", 10.0)
      .set("cpus", 1.0)
      .set("t_restarts", 1.0)
      .set("daemon", std::string("fvsst"));
  log.append(0.0, sim::EventType::kTablePoint, 0)
      .set("hz", 500 * MHz)
      .set("volts", 1.1)
      .set("watts", 35.0);
  log.append(0.0, sim::EventType::kTablePoint, 0)
      .set("hz", 1 * GHz)
      .set("volts", 1.3)
      .set("watts", 140.0);
  return log;
}

TEST(JournalCheck, DetectsBudgetOverrunClaimedFeasible) {
  sim::EventLog log = minimal_table_journal();
  log.append(0.1, sim::EventType::kActuation)
      .set("total_power_w", 180.0)
      .set("budget_w", 140.0)
      .set("feasible", 1.0)
      .set("downgrade_steps", 0.0);
  const auto report = sim::check_journal(log);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("budget"), std::string::npos);
}

TEST(JournalCheck, AcceptsOverrunWhenMarkedInfeasible) {
  sim::EventLog log = minimal_table_journal();
  log.append(0.1, sim::EventType::kActuation)
      .set("total_power_w", 180.0)
      .set("budget_w", 140.0)
      .set("feasible", 0.0)
      .set("downgrade_steps", 5.0);
  EXPECT_TRUE(sim::check_journal(log).ok());
}

TEST(JournalCheck, DetectsVoltageOffTableMinimum) {
  sim::EventLog log = minimal_table_journal();
  log.append(0.1, sim::EventType::kDecision, 0)
      .set("granted_hz", 500 * MHz)
      .set("volts", 1.3)  // table minimum for 500 MHz is 1.1 V
      .set("watts", 35.0);
  const auto report = sim::check_journal(log);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("volt"), std::string::npos);
}

TEST(JournalCheck, DetectsGrantOffTheFrequencyGrid) {
  sim::EventLog log = minimal_table_journal();
  log.append(0.1, sim::EventType::kDecision, 0)
      .set("granted_hz", 777 * MHz)
      .set("volts", 1.2);
  EXPECT_FALSE(sim::check_journal(log).ok());
}

TEST(JournalCheck, DetectsMissedPeriodRestart) {
  sim::EventLog log = minimal_table_journal();  // t = 10 ms, T = 100 ms
  auto cycle = [&log](double t, const char* trigger) {
    log.append(t, sim::EventType::kCycleStart)
        .set("cycle", 0.0)
        .set("budget_w", 200.0)
        .set("trigger", std::string(trigger));
  };
  cycle(0.10, "timer");
  cycle(0.15, "budget");
  // A restarted period would next fire no earlier than ~0.24; firing at
  // 0.20 means the old timer phase survived the trigger.
  cycle(0.20, "timer");
  const auto report = sim::check_journal(log);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("restart"), std::string::npos);

  // The same timeline is fine when the run declares no-restart semantics
  // (the cluster daemon's global timer).
  sim::EventLog global;
  global.append(0.0, sim::EventType::kRunMeta)
      .set("t_sample_s", 0.01)
      .set("multiplier", 10.0)
      .set("t_restarts", 0.0)
      .set("daemon", std::string("cluster"));
  global.push(log.events()[3]);
  global.push(log.events()[4]);
  global.push(log.events()[5]);
  const auto global_report = sim::check_journal(global);
  EXPECT_TRUE(global_report.ok());
}

// --- Diff ----------------------------------------------------------------

TEST(JournalDiff, IdenticalRunsAgree) {
  const sim::EventLog a = run_daemon_journal(/*explain=*/false);
  const sim::EventLog b = run_daemon_journal(/*explain=*/false);
  const sim::JournalDiff diff = sim::diff_journals(a, b);
  EXPECT_TRUE(diff.identical_decisions());
  EXPECT_GT(diff.decisions_compared, 0u);
  EXPECT_LT(diff.first_divergence_t, 0.0);
}

TEST(JournalDiff, DivergingBudgetsDetected) {
  const sim::EventLog a = run_daemon_journal(/*explain=*/false, 300.0);
  const sim::EventLog b = run_daemon_journal(/*explain=*/false, 150.0);
  const sim::JournalDiff diff = sim::diff_journals(a, b);
  EXPECT_FALSE(diff.identical_decisions());
  EXPECT_GT(diff.decisions_differing, 0u);
  EXPECT_GE(diff.first_divergence_t, 0.0);
  EXPECT_GE(diff.first_divergence_cpu, 0);
}

// --- Streaming writer -----------------------------------------------------

TEST(JsonlStream, StreamedBytesMatchEndOfRunExport) {
  // Attach the stream before the run: every event travels through the
  // writer incrementally, and the file must still be byte-identical to
  // what write_jsonl would have produced from the full in-memory log.
  sim::EventLog reference = run_daemon_journal(/*explain=*/true);
  // Payloads that shrink from one event to the next, with keys and values
  // past std::string's 15-char small buffer: a field carried over from
  // the previous event would show in the bytes.
  for (int i = 0; i < 6; ++i) {
    sim::Event& e =
        reference.append(2.0 + 0.01 * i, sim::EventType::kFault, i);
    for (int k = 0; k < 6 - i; ++k) {
      e.set("a_long_numeric_key_" + std::to_string(k), 0.5 * k + i);
    }
    for (int k = 0; k < 5 - i; ++k) {
      e.set("a_long_string_key_" + std::to_string(k),
            std::string(16 + k, static_cast<char>('a' + i)));
    }
  }
  std::ostringstream buffered;
  sim::write_jsonl(buffered, reference);

  // Streamed twice: pushing the finished events, and rebuilding each one
  // through append().set() as producers do, which reuses the payload
  // vectors of an event already streamed.
  for (const bool rebuild : {false, true}) {
    std::ostringstream streamed;
    {
      sim::JsonlStreamWriter writer(streamed, /*flush_bytes=*/256);
      sim::EventLog log;
      log.stream_to(&writer);
      for (const sim::Event& e : reference.events()) {
        if (!rebuild) {
          log.push(e);
          continue;
        }
        sim::Event& copy = log.append(e.t, e.type, e.cpu);
        for (const auto& [key, value] : e.num) copy.set(key, value);
        for (const auto& [key, value] : e.str) copy.set(key, value);
      }
      log.flush_stream();
      EXPECT_EQ(log.streamed(), reference.size());
      EXPECT_LE(log.size(), 1u);  // the tail never accumulates
    }
    EXPECT_EQ(streamed.str(), buffered.str()) << "rebuild " << rebuild;
  }
}

TEST(JsonlStream, AttachMidRunDrainsSealedPrefix) {
  sim::EventLog log;
  log.append(0.0, sim::EventType::kCycleStart).set("trigger", "timer");
  log.append(0.1, sim::EventType::kCycleStart).set("trigger", "timer");
  std::ostringstream out;
  sim::JsonlStreamWriter writer(out);
  log.stream_to(&writer);
  // Everything but the newest (still mutable) event is handed over.
  EXPECT_EQ(log.streamed(), 1u);
  EXPECT_EQ(log.size(), 1u);
  log.flush_stream();
  EXPECT_EQ(log.streamed(), 2u);
}

TEST(JsonlStream, CappedRingRefusesToStream) {
  sim::EventLog ring(8);
  std::ostringstream out;
  sim::JsonlStreamWriter writer(out);
  EXPECT_THROW(ring.stream_to(&writer), std::logic_error);
}

TEST(JsonlStream, ForEachMatchesReadJsonl) {
  const sim::EventLog reference = run_daemon_journal(/*explain=*/false);
  std::ostringstream out;
  sim::write_jsonl(out, reference);

  std::istringstream in(out.str());
  std::size_t seen = 0;
  const std::size_t delivered = sim::for_each_jsonl(in, [&](sim::Event&& e) {
    EXPECT_EQ(e.type, reference.events()[seen].type);
    EXPECT_DOUBLE_EQ(e.t, reference.events()[seen].t);
    ++seen;
  });
  EXPECT_EQ(delivered, reference.size());
  EXPECT_EQ(seen, reference.size());
}

TEST(JsonlStream, ForEachTolerantRecoversTornTail) {
  sim::EventLog log;
  log.append(0.0, sim::EventType::kCycleStart).set("trigger", "timer");
  log.append(0.1, sim::EventType::kDecision).set("granted_hz", 1e9);
  std::ostringstream out;
  sim::write_jsonl(out, log);
  std::string text = out.str();
  text.resize(text.size() - 10);  // tear the final line

  // Strict mode (no report) refuses the torn file outright.
  std::istringstream strict_in(text);
  EXPECT_THROW(sim::for_each_jsonl(strict_in, [](sim::Event&&) {}),
               std::runtime_error);

  // Tolerant mode delivers the complete prefix and reports the tear.
  std::istringstream tolerant_in(text);
  sim::JsonlReadReport report;
  std::size_t seen = 0;
  const std::size_t delivered = sim::for_each_jsonl(
      tolerant_in, [&](sim::Event&&) { ++seen; }, &report);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(seen, 1u);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_FALSE(report.error.empty());
}

// --- Incremental checker --------------------------------------------------

sim::JournalCheckReport check_incrementally(const sim::EventLog& log) {
  sim::JournalChecker checker;
  for (const sim::Event& e : log.events()) checker.observe(e);
  return checker.finish();
}

void expect_same_report(const sim::JournalCheckReport& a,
                        const sim::JournalCheckReport& b) {
  EXPECT_EQ(a.checks_run, b.checks_run);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.skipped, b.skipped);
}

TEST(JournalChecker, MatchesBatchCheckerOnRealRuns) {
  for (double budget_w : {300.0, 150.0}) {
    const sim::EventLog log = run_daemon_journal(/*explain=*/true, budget_w);
    expect_same_report(check_incrementally(log), sim::check_journal(log));
  }
}

TEST(JournalChecker, MatchesBatchCheckerOnViolations) {
  sim::EventLog log = minimal_table_journal();
  log.append(0.1, sim::EventType::kActuation)
      .set("total_power_w", 180.0)
      .set("budget_w", 140.0)
      .set("feasible", 1.0)
      .set("downgrade_steps", 0.0);
  log.append(0.2, sim::EventType::kDecision, 0)
      .set("granted_hz", 1 * GHz)
      .set("volts", 1.05)  // off the table's 1.3 V point for 1 GHz
      .set("watts", 140.0);
  const auto batch = sim::check_journal(log);
  ASSERT_FALSE(batch.ok());
  expect_same_report(check_incrementally(log), batch);
}

}  // namespace
}  // namespace fvsst
