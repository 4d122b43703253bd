// Tests for the online monitoring layer (simkit/monitor.h): the streaming
// aggregators' accuracy against exact references, the rule DSL, alert
// fire/clear semantics with journal payloads, registry bindings, and the
// Prometheus exposition.
#include "simkit/monitor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <vector>

#include "simkit/event_log.h"
#include "simkit/prometheus.h"
#include "simkit/stats.h"
#include "simkit/telemetry.h"

namespace fvsst::sim::monitor {
namespace {

// ---------------------------------------------------------------------------
// SlidingWindow

TEST(SlidingWindow, AggregatesInsideWindow) {
  SlidingWindow w(1.0, 10);
  w.observe(0.1, 4.0);
  w.observe(0.5, 2.0);
  w.observe(0.9, 6.0);
  EXPECT_EQ(w.count(1.0), 3u);
  EXPECT_DOUBLE_EQ(w.sum(1.0), 12.0);
  EXPECT_DOUBLE_EQ(w.mean(1.0), 4.0);
  EXPECT_DOUBLE_EQ(w.min(1.0), 2.0);
  EXPECT_DOUBLE_EQ(w.max(1.0), 6.0);
  EXPECT_DOUBLE_EQ(w.rate(1.0), 12.0);  // sum / 1 s window
}

TEST(SlidingWindow, ExpiresOldObservations) {
  SlidingWindow w(1.0, 10);
  w.observe(0.05, 100.0);
  w.observe(1.5, 1.0);
  // At t = 2.2 the window is [1.2, 2.2]: the first observation is gone.
  EXPECT_EQ(w.count(2.2), 1u);
  EXPECT_DOUBLE_EQ(w.max(2.2), 1.0);
  // Far past both, the window is empty again.
  EXPECT_EQ(w.count(10.0), 0u);
  EXPECT_TRUE(std::isnan(w.mean(10.0)));
  EXPECT_DOUBLE_EQ(w.sum(10.0), 0.0);
}

TEST(SlidingWindow, ExpiryIsBucketGranular) {
  // Expiry happens in whole buckets: an observation may expire up to one
  // bucket width *before* the nominal window edge, never after.
  const double window = 1.0;
  const std::size_t buckets = 10;
  const double bucket = window / static_cast<double>(buckets);
  SlidingWindow w(window, buckets);
  w.observe(0.0, 1.0);
  EXPECT_EQ(w.count(window - bucket), 1u);
  EXPECT_EQ(w.count(window), 0u);
}

TEST(SlidingWindow, MatchesExactReferenceOnRandomStream) {
  // The contract is exact at bucket granularity: the window ending at t
  // holds precisely the observations whose bucket index lies in
  // (idx(t) - buckets, idx(t)].  Check count and sum against a brute-force
  // reference applying that rule directly.
  std::mt19937 rng(20250807);
  std::uniform_real_distribution<double> value(0.0, 10.0);
  std::uniform_real_distribution<double> gap(0.001, 0.02);
  const double window = 0.5;
  const std::int64_t buckets = 16;
  const double bucket = window / static_cast<double>(buckets);
  SlidingWindow w(window, buckets);
  std::vector<std::pair<double, double>> all;
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t += gap(rng);
    const double v = value(rng);
    w.observe(t, v);
    all.emplace_back(t, v);
    const auto idx = [&](double at) {
      return static_cast<std::int64_t>(std::floor(at / bucket));
    };
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& [ot, ov] : all) {
      if (idx(ot) > idx(t) - buckets && idx(ot) <= idx(t)) {
        sum += ov;
        ++n;
      }
    }
    ASSERT_EQ(w.count(t), n) << "at t=" << t;
    ASSERT_NEAR(w.sum(t), sum, 1e-9) << "at t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Ewma

TEST(Ewma, ConvergesToConstantInput) {
  Ewma e(0.1);
  EXPECT_TRUE(e.empty());
  EXPECT_TRUE(std::isnan(e.value()));
  for (int i = 0; i <= 100; ++i) e.observe(i * 0.01, 5.0);
  EXPECT_NEAR(e.value(), 5.0, 1e-9);
}

TEST(Ewma, DecayDependsOnElapsedTimeNotSampleCount) {
  // One observation after 1 s must decay exactly as much as many
  // observations of the same value spread over that second: the property
  // that makes sparse and dense observation agree.
  Ewma sparse(0.5), dense(0.5);
  sparse.observe(0.0, 10.0);
  dense.observe(0.0, 10.0);
  sparse.observe(1.0, 0.0);
  for (int i = 1; i <= 100; ++i) dense.observe(i * 0.01, 0.0);
  // Both pulled from 10 toward 0 over the same second with tau = 0.5 s.
  EXPECT_NEAR(sparse.value(), 10.0 * std::exp(-2.0), 1e-9);
  EXPECT_NEAR(dense.value(), 10.0 * std::exp(-2.0), 1e-6);
}

// ---------------------------------------------------------------------------
// P2Quantile

TEST(P2Quantile, ExactForFirstFiveObservations) {
  P2Quantile q(0.5);
  EXPECT_TRUE(std::isnan(q.value()));
  q.observe(9.0);
  EXPECT_DOUBLE_EQ(q.value(), 9.0);
  q.observe(1.0);
  q.observe(5.0);
  EXPECT_DOUBLE_EQ(q.value(), 5.0);  // exact median of {1, 5, 9}
  q.observe(3.0);
  q.observe(7.0);
  EXPECT_DOUBLE_EQ(q.value(), 5.0);  // exact median of {1, 3, 5, 7, 9}
}

/// Shared harness: stream `samples` through a P² sketch and compare its
/// estimate against SampleSet's exact order statistic, as a fraction of
/// the distribution's interquartile-ish scale.
void expect_sketch_close(const std::vector<double>& samples, double q,
                         double tolerance_frac) {
  P2Quantile sketch(q);
  SampleSet exact;
  for (double x : samples) {
    sketch.observe(x);
    exact.add(x);
  }
  const double truth = exact.percentile(q);
  const double scale = exact.percentile(0.9) - exact.percentile(0.1);
  ASSERT_GT(scale, 0.0);
  EXPECT_NEAR(sketch.value(), truth, tolerance_frac * scale)
      << "q=" << q << " n=" << samples.size();
}

TEST(P2Quantile, AccurateOnUniform) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> d(0.0, 100.0);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(d(rng));
  for (double q : {0.5, 0.9, 0.99}) expect_sketch_close(samples, q, 0.02);
}

TEST(P2Quantile, AccurateOnBimodal) {
  std::mt19937 rng(22);
  std::normal_distribution<double> lo(10.0, 1.0), hi(50.0, 2.0);
  std::bernoulli_distribution pick(0.3);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(pick(rng) ? hi(rng) : lo(rng));
  }
  // The median sits inside the dense low mode; P² handles the gap between
  // modes worse than a smooth density, hence the looser p90 bound.
  expect_sketch_close(samples, 0.5, 0.02);
  expect_sketch_close(samples, 0.9, 0.10);
}

TEST(P2Quantile, AccurateOnHeavyTail) {
  std::mt19937 rng(33);
  std::lognormal_distribution<double> d(0.0, 1.0);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(d(rng));
  expect_sketch_close(samples, 0.5, 0.02);
  expect_sketch_close(samples, 0.9, 0.05);
}

TEST(P2Quantile, DeterministicInObservationSequence) {
  std::mt19937 rng(44);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(d(rng));
  P2Quantile a(0.9), b(0.9);
  for (double x : samples) {
    a.observe(x);
    b.observe(x);
  }
  // Bit-identical, not merely close: the estimator is pure state-machine.
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.count(), b.count());
}

// ---------------------------------------------------------------------------
// Rule DSL

TEST(RuleSet, ParsesFullRuleLine) {
  const RuleSet rules = RuleSet::parse_string(
      "# comment\n"
      "\n"
      "alert overshoot severity critical when min(over_budget_w, 600ms) "
      "> 0.001 for 2 windows\n");
  ASSERT_EQ(rules.size(), 1u);
  const Rule& r = rules.rules()[0];
  EXPECT_EQ(r.name, "overshoot");
  EXPECT_EQ(r.severity, Severity::kCritical);
  EXPECT_EQ(r.func, AggFunc::kMin);
  EXPECT_EQ(r.input, "over_budget_w");
  EXPECT_DOUBLE_EQ(r.window_s, 0.6);
  EXPECT_EQ(r.op, CmpOp::kGt);
  EXPECT_DOUBLE_EQ(r.threshold, 0.001);
  EXPECT_EQ(r.for_windows, 2);
}

TEST(RuleSet, SeverityDefaultsToWarningAndForToOne) {
  const RuleSet rules =
      RuleSet::parse_string("alert x when rate(drops, 5s) > 0\n");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.rules()[0].severity, Severity::kWarning);
  EXPECT_EQ(rules.rules()[0].for_windows, 1);
  EXPECT_DOUBLE_EQ(rules.rules()[0].window_s, 5.0);
}

TEST(RuleSet, ExpressionRendersBackInDslForm) {
  const std::string line =
      "alert x severity critical when max(frac, 1s) >= 0.25 for 3 windows";
  const RuleSet rules = RuleSet::parse_string(line + "\n");
  ASSERT_EQ(rules.size(), 1u);
  // expression() renders the when-clause; wrapped back into an alert line
  // it must re-parse to the same rule.
  const RuleSet again = RuleSet::parse_string(
      "alert x when " + rules.rules()[0].expression() + "\n");
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again.rules()[0].name, "x");
  EXPECT_EQ(again.rules()[0].func, AggFunc::kMax);
  EXPECT_DOUBLE_EQ(again.rules()[0].threshold, 0.25);
  EXPECT_EQ(again.rules()[0].for_windows, 3);
}

TEST(RuleSet, RejectsMalformedInputWithLineNumber) {
  const auto expect_throws_mentioning = [](const std::string& text,
                                           const std::string& needle) {
    try {
      RuleSet::parse_string(text);
      FAIL() << "expected parse failure for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "error was: " << e.what();
    }
  };
  expect_throws_mentioning("alert x when frob(a, 1s) > 0\n", "frob");
  expect_throws_mentioning("alert x when mean(a, 10) > 0\n", "suffix");
  expect_throws_mentioning("bogus line\n", "line 1");
  expect_throws_mentioning(
      "alert x when mean(a, 1s) > 0\nalert x when mean(b, 1s) > 0\n",
      "line 2");
}

TEST(RuleSet, DefaultRulePackParses) {
  const RuleSet rules = RuleSet::parse_string(default_rule_pack());
  EXPECT_GE(rules.size(), 6u);
  bool has_overshoot = false, has_silent = false, has_agg_lag = false;
  for (const Rule& r : rules.rules()) {
    if (r.name == "budget_overshoot") {
      has_overshoot = true;
      EXPECT_EQ(r.severity, Severity::kCritical);
    }
    if (r.name == "coordinator_silent") has_silent = true;
    if (r.name == "aggregation_lag") {
      has_agg_lag = true;
      EXPECT_EQ(r.severity, Severity::kWarning);
    }
  }
  EXPECT_TRUE(has_overshoot);
  EXPECT_TRUE(has_silent);
  EXPECT_TRUE(has_agg_lag);
}

// ---------------------------------------------------------------------------
// Monitor: fire/clear, journal payloads, bindings

TEST(Monitor, FiresAfterForWindowsAndJournalsPayload) {
  const RuleSet rules = RuleSet::parse_string(
      "alert hot severity critical when max(temp, 1s) > 50 for 2 windows\n");
  EventLog journal;
  Monitor::Options options;
  options.journal = &journal;
  Monitor mon(rules, std::move(options));
  const InputId temp = mon.input("temp");

  mon.observe(temp, 0.1, 80.0);
  mon.evaluate(0.1);  // predicate holds: 1 of 2 windows
  EXPECT_EQ(mon.alerts_raised(), 0u);
  EXPECT_EQ(mon.firing_count(), 0u);

  mon.observe(temp, 0.2, 81.0);
  mon.evaluate(0.2);  // 2 of 2: raise
  EXPECT_EQ(mon.alerts_raised(), 1u);
  EXPECT_EQ(mon.firing_count(), 1u);

  ASSERT_EQ(journal.size(), 1u);
  const Event& raised = journal.events()[0];
  EXPECT_EQ(raised.type, EventType::kAlertRaised);
  EXPECT_DOUBLE_EQ(raised.t, 0.2);
  ASSERT_NE(raised.find_str("rule"), nullptr);
  EXPECT_EQ(*raised.find_str("rule"), "hot");
  ASSERT_NE(raised.find_str("severity"), nullptr);
  EXPECT_EQ(*raised.find_str("severity"), "critical");
  ASSERT_NE(raised.find_str("expr"), nullptr);
  EXPECT_DOUBLE_EQ(raised.num_or("threshold"), 50.0);
  EXPECT_DOUBLE_EQ(raised.num_or("value"), 81.0);

  // Cool down past the window: the alert clears with its duration.
  mon.observe(temp, 2.0, 10.0);
  mon.evaluate(2.0);
  EXPECT_EQ(mon.alerts_cleared(), 1u);
  EXPECT_EQ(mon.firing_count(), 0u);
  ASSERT_EQ(journal.size(), 2u);
  const Event& cleared = journal.events()[1];
  EXPECT_EQ(cleared.type, EventType::kAlertCleared);
  EXPECT_DOUBLE_EQ(cleared.num_or("raised_t"), 0.2);
  EXPECT_NEAR(cleared.num_or("duration_s"), 1.8, 1e-9);
}

TEST(Monitor, InterruptedStreakDoesNotFire) {
  const RuleSet rules = RuleSet::parse_string(
      "alert hot when max(temp, 1s) > 50 for 3 windows\n");
  Monitor mon(rules);
  const InputId temp = mon.input("temp");
  const double hot = 60.0, cold = 0.0;
  const double seq[] = {hot, hot, cold, hot, hot};
  double t = 0.0;
  for (double v : seq) {
    // Advance past the window each step so only the newest value counts.
    t += 2.0;
    mon.observe(temp, t, v);
    mon.evaluate(t);
  }
  // Two streaks of length 2, never 3: must not raise.
  EXPECT_EQ(mon.alerts_raised(), 0u);
}

TEST(Monitor, BindCounterObservesDeltas) {
  MetricRegistry registry;
  double& drops = registry.counter("journal/dropped");
  const RuleSet rules =
      RuleSet::parse_string("alert loss when rate(drops, 2s) > 2\n");
  Monitor mon(rules);
  mon.bind_counter("drops", &registry, registry.intern_counter("journal/dropped"));

  mon.evaluate(0.5);  // counter still 0: no deltas, no alert
  EXPECT_EQ(mon.alerts_raised(), 0u);
  drops += 10.0;  // 10 drops land within one 2 s window -> rate 5 > 2
  mon.evaluate(1.0);
  EXPECT_EQ(mon.alerts_raised(), 1u);
  // No further counter movement: the delta stream goes to zero and the
  // rate falls back under the threshold once the window slides past.
  mon.evaluate(4.0);
  EXPECT_EQ(mon.alerts_cleared(), 1u);
}

TEST(Monitor, InputSketchesTrackQuantiles) {
  Monitor mon(RuleSet{});
  const InputId load = mon.input("load");
  std::mt19937 rng(55);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  SampleSet exact;
  for (int i = 0; i < 10000; ++i) {
    const double v = d(rng);
    mon.observe(load, i * 0.01, v);
    exact.add(v);
  }
  ASSERT_EQ(mon.sketch_quantiles().size(), 3u);  // default {0.5, 0.9, 0.99}
  EXPECT_NEAR(mon.input_quantile(load, 0), exact.percentile(0.5), 0.02);
  EXPECT_NEAR(mon.input_quantile(load, 1), exact.percentile(0.9), 0.02);
  EXPECT_EQ(mon.input_count(load), 10000u);
}

TEST(Monitor, EvaluationSequenceIsDeterministic) {
  // Two monitors fed the identical observation/evaluation sequence must
  // agree bit for bit on every exposed aggregate and alert transition.
  const RuleSet rules = RuleSet::parse_string(default_rule_pack());
  Monitor a(rules), b(rules);
  std::mt19937 rng(66);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  const InputId ia = a.input("over_budget_w");
  const InputId ib = b.input("over_budget_w");
  for (int i = 1; i <= 500; ++i) {
    const double t = i * 0.01;
    const double v = d(rng);
    a.observe(ia, t, v);
    b.observe(ib, t, v);
    a.evaluate(t);
    b.evaluate(t);
  }
  EXPECT_EQ(a.alerts_raised(), b.alerts_raised());
  EXPECT_EQ(a.alerts_cleared(), b.alerts_cleared());
  ASSERT_EQ(a.alerts().size(), b.alerts().size());
  for (std::size_t i = 0; i < a.alerts().size(); ++i) {
    EXPECT_EQ(a.alerts()[i].firing, b.alerts()[i].firing);
    // NaN == NaN is false; compare through bit-equality semantics.
    const double va = a.alerts()[i].value, vb = b.alerts()[i].value;
    EXPECT_TRUE(va == vb || (std::isnan(va) && std::isnan(vb)));
  }
  EXPECT_EQ(a.input_quantile(ia, 2), b.input_quantile(ib, 2));
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Prometheus, SanitizesMetricNames) {
  EXPECT_EQ(prometheus_metric_name("cpu0/granted_hz"),
            "fvsst_cpu0_granted_hz");
  EXPECT_EQ(prometheus_metric_name("a-b.c"), "fvsst_a_b_c");
}

TEST(Prometheus, WritesRegistryAndAlertState) {
  MetricRegistry registry;
  registry.counter("cycles/total") = 42.0;
  const RuleSet rules = RuleSet::parse_string(
      "alert hot severity critical when max(temp, 1s) > 50\n");
  Monitor mon(rules);
  const InputId temp = mon.input("temp");
  mon.observe(temp, 0.1, 80.0);
  mon.evaluate(0.1);
  ASSERT_EQ(mon.firing_count(), 1u);

  std::ostringstream out;
  write_prometheus(out, &registry, &mon, 0.1);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("fvsst_cycles_total 42"), std::string::npos);
  EXPECT_NE(text.find("rule=\"hot\""), std::string::npos);
  EXPECT_NE(text.find("fvsst_snapshot_time_seconds"), std::string::npos);
  // Every non-comment line is NAME{labels} VALUE or NAME VALUE.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.compare(0, 6, "fvsst_"), 0) << line;
  }

  // Null registry / null monitor are both legal.
  std::ostringstream none;
  write_prometheus(none, nullptr, nullptr, 0.0);
  EXPECT_NE(none.str().find("fvsst_snapshot_time_seconds"), std::string::npos);
}

}  // namespace
}  // namespace fvsst::sim::monitor
