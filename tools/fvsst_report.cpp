// fvsst_report - Renders a decision journal (fvsst_sim --journal) as one
// self-contained HTML page: run summary, alert timeline, frequency
// residency, and power-vs-budget — everything inline (CSS + SVG), no
// external assets, so the file mails/archives as-is.
//
// Usage:
//   fvsst_report JOURNAL [--metrics FILE] [--out OUT.html]
//
// Journals may be JSON lines or the compact "FJB1" binary encoding; the
// format is sniffed from the first bytes (sim::detect_journal_format), and
// the tolerant readers accept a torn final record.  --metrics embeds a
// Prometheus text snapshot (fvsst_sim --metrics-out) verbatim in its own
// section.  The page carries stable section ids (#summary, #alerts,
// #residency, #power, #metrics) so scripts and tests can anchor on them.
//
// The journal is consumed in one streaming pass; report state is bounded
// by the run's variety (rules, frequencies, event types) except the power
// trace, which is decimated to a fixed point budget as it accumulates, so
// multi-gigabyte journals render in bounded memory.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "simkit/event_log.h"
#include "simkit/stats.h"

using namespace fvsst;

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "fvsst_report: %s\n"
               "usage: fvsst_report JOURNAL [--metrics FILE] "
               "[--out OUT.html]\n",
               message.c_str());
  std::exit(2);
}

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

/// Compact general format for magnitudes whose scale varies (values,
/// thresholds): %g without the scientific-notation surprises for the
/// ranges this simulator produces.
std::string fmtg(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Journal aggregation

/// One firing interval of a rule.  `open` means the journal ended while the
/// alert was still firing (no alert_cleared arrived).
struct AlertSpan {
  double t0 = 0.0;
  double t1 = 0.0;
  bool open = true;
  double value = 0.0;  ///< Aggregate value at raise time.
};

/// Everything the report shows about one rule that raised at least once.
struct RuleLane {
  std::string severity;
  std::string expr;
  double threshold = 0.0;
  double window_s = 0.0;
  std::vector<AlertSpan> spans;
};

struct ReportData {
  std::size_t count = 0;
  double t_lo = 0.0;
  double t_hi = 0.0;
  bool have_meta = false;
  std::string daemon = "?";
  int cpus = 0;  ///< -1: run_meta's cpus is not an integer in int range.
  double t_sample_s = 0.0;
  double multiplier = 0.0;
  std::map<std::string, std::size_t> by_type;
  std::size_t infeasible = 0;

  // Alerts, keyed by rule name in order of first raise.
  std::vector<std::string> lane_order;
  std::map<std::string, RuleLane> lanes;
  std::size_t alerts_raised = 0;
  std::size_t alerts_cleared = 0;

  // Frequency residency: decision counts per granted frequency; decisions
  // land at uniform sampling instants, so counts track time share.
  sim::CategoryHistogram residency;

  // Power trace: (t, total_power_w, budget_w), decimated on the fly.
  std::vector<std::array<double, 3>> power;
  std::size_t power_stride = 1;
  std::size_t power_seen = 0;
  std::vector<std::pair<double, double>> budget_moves;  // (t, new budget)

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
          if (const std::string* d = e.find_str("daemon")) daemon = *d;
          const double meta_cpus = e.num_or("cpus");
          cpus = sim::int_in_range(meta_cpus, 0.0) ? static_cast<int>(meta_cpus)
                                                   : -1;
          t_sample_s = e.num_or("t_sample_s");
          multiplier = e.num_or("multiplier");
        }
        break;
      case sim::EventType::kDecision:
        residency.add(e.num_or("granted_hz"));
        break;
      case sim::EventType::kInfeasibleBudget:
        ++infeasible;
        break;
      case sim::EventType::kBudgetChange:
        budget_moves.emplace_back(e.t, e.num_or("budget_w"));
        break;
      case sim::EventType::kActuation: {
        // Cluster journals also emit deferred per-node applies (str
        // "stage" = node_apply); only top-level actuations carry the
        // aggregate power/budget pair.
        if (e.find_str("stage")) break;
        if (e.has_num("total_power_w")) {
          add_power_point(e.t, e.num_or("total_power_w"),
                          e.num_or("budget_w"));
        }
        break;
      }
      case sim::EventType::kAlertRaised: {
        const std::string* rule = e.find_str("rule");
        const std::string name = rule ? *rule : "?";
        auto [it, inserted] = lanes.try_emplace(name);
        if (inserted) {
          lane_order.push_back(name);
          if (const std::string* sev = e.find_str("severity")) {
            it->second.severity = *sev;
          }
          if (const std::string* expr = e.find_str("expr")) {
            it->second.expr = *expr;
          }
          it->second.threshold = e.num_or("threshold");
          it->second.window_s = e.num_or("window_s");
        }
        AlertSpan span;
        span.t0 = span.t1 = e.t;
        span.value = e.num_or("value");
        it->second.spans.push_back(span);
        ++alerts_raised;
        break;
      }
      case sim::EventType::kAlertCleared: {
        const std::string* rule = e.find_str("rule");
        auto it = lanes.find(rule ? *rule : "?");
        if (it != lanes.end() && !it->second.spans.empty() &&
            it->second.spans.back().open) {
          it->second.spans.back().t1 = e.t;
          it->second.spans.back().open = false;
        }
        ++alerts_cleared;
        break;
      }
      default:
        break;
    }
  }

  /// Closes still-open alert spans at the end of the journal's time span.
  void finish() {
    for (auto& [name, lane] : lanes) {
      (void)name;
      for (AlertSpan& span : lane.spans) {
        if (span.open) span.t1 = t_hi;
      }
    }
  }

 private:
  static constexpr std::size_t kMaxPowerPoints = 2048;

  /// Keeps every `power_stride`-th sample; when the kept set would exceed
  /// the point budget, drops every other kept point and doubles the
  /// stride, so memory stays O(kMaxPowerPoints) over any journal length.
  void add_power_point(double t, double power_w, double budget_w) {
    if (power_seen++ % power_stride == 0) {
      power.push_back({t, power_w, budget_w});
      if (power.size() > kMaxPowerPoints) {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < power.size(); i += 2) {
          power[keep++] = power[i];
        }
        power.resize(keep);
        power_stride *= 2;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// SVG rendering

struct Axis {
  double lo = 0.0, hi = 1.0;       // data range
  double px_lo = 0.0, px_hi = 1.0; // pixel range
  double map(double v) const {
    const double span = hi - lo;
    const double f = span > 0.0 ? (v - lo) / span : 0.0;
    return px_lo + f * (px_hi - px_lo);
  }
};

const char* severity_color(const std::string& severity) {
  if (severity == "critical") return "#c62828";
  if (severity == "warning") return "#ef6c00";
  return "#1565c0";  // info and anything unrecognised
}

/// Alert timeline: one horizontal lane per rule, firing intervals as
/// filled rects coloured by severity; open intervals (never cleared) get a
/// hatched right edge via reduced opacity.
void render_alert_svg(std::ostream& out, const ReportData& d) {
  const double label_w = 170.0, plot_w = 640.0, lane_h = 26.0;
  const double top = 8.0, bottom = 24.0;
  const double h = top + lane_h * static_cast<double>(d.lane_order.size()) +
                   bottom;
  const double w = label_w + plot_w + 16.0;
  Axis x{d.t_lo, std::max(d.t_hi, d.t_lo + 1e-9), label_w, label_w + plot_w};

  out << "<svg viewBox=\"0 0 " << fmt(w, 0) << " " << fmt(h, 0)
      << "\" width=\"" << fmt(w, 0) << "\" role=\"img\">\n";
  for (std::size_t i = 0; i < d.lane_order.size(); ++i) {
    const RuleLane& lane = d.lanes.at(d.lane_order[i]);
    const double y = top + lane_h * static_cast<double>(i);
    out << "<rect x=\"" << fmt(label_w, 0) << "\" y=\"" << fmt(y, 1)
        << "\" width=\"" << fmt(plot_w, 0) << "\" height=\"" << fmt(lane_h - 4, 1)
        << "\" fill=\"" << (i % 2 ? "#f4f4f4" : "#fafafa") << "\"/>\n";
    out << "<text x=\"" << fmt(label_w - 8, 0) << "\" y=\""
        << fmt(y + lane_h / 2 + 3, 1)
        << "\" text-anchor=\"end\" class=\"lane\">"
        << html_escape(d.lane_order[i]) << "</text>\n";
    for (const AlertSpan& span : lane.spans) {
      const double x0 = x.map(span.t0);
      const double x1 = std::max(x.map(span.t1), x0 + 2.0);  // visible sliver
      out << "<rect x=\"" << fmt(x0, 1) << "\" y=\"" << fmt(y + 2, 1)
          << "\" width=\"" << fmt(x1 - x0, 1) << "\" height=\""
          << fmt(lane_h - 8, 1) << "\" fill=\""
          << severity_color(lane.severity) << "\""
          << (span.open ? " fill-opacity=\"0.55\"" : "") << ">"
          << "<title>" << html_escape(d.lane_order[i]) << " "
          << fmt(span.t0) << "s .. " << fmt(span.t1) << "s"
          << (span.open ? " (still firing)" : "") << "</title></rect>\n";
    }
  }
  // Time axis with five ticks.
  const double axis_y = h - bottom + 4.0;
  out << "<line x1=\"" << fmt(label_w, 0) << "\" y1=\"" << fmt(axis_y, 1)
      << "\" x2=\"" << fmt(label_w + plot_w, 0) << "\" y2=\"" << fmt(axis_y, 1)
      << "\" stroke=\"#888\"/>\n";
  for (int k = 0; k <= 4; ++k) {
    const double t = d.t_lo + (d.t_hi - d.t_lo) * k / 4.0;
    const double px = x.map(t);
    out << "<line x1=\"" << fmt(px, 1) << "\" y1=\"" << fmt(axis_y, 1)
        << "\" x2=\"" << fmt(px, 1) << "\" y2=\"" << fmt(axis_y + 4, 1)
        << "\" stroke=\"#888\"/>\n"
        << "<text x=\"" << fmt(px, 1) << "\" y=\"" << fmt(axis_y + 15, 1)
        << "\" text-anchor=\"middle\" class=\"tick\">" << fmt(t, 2)
        << "s</text>\n";
  }
  out << "</svg>\n";
}

/// Power vs budget: power as a polyline, budget as a stepped line (the
/// budget is piecewise constant between change events).
void render_power_svg(std::ostream& out, const ReportData& d) {
  const double left = 56.0, plot_w = 640.0, plot_h = 200.0;
  const double top = 8.0, bottom = 28.0;
  const double w = left + plot_w + 16.0, h = top + plot_h + bottom;

  double y_hi = 1.0;
  for (const auto& p : d.power) y_hi = std::max({y_hi, p[1], p[2]});
  y_hi *= 1.08;
  Axis x{d.t_lo, std::max(d.t_hi, d.t_lo + 1e-9), left, left + plot_w};
  Axis y{0.0, y_hi, top + plot_h, top};  // SVG y grows downward

  out << "<svg viewBox=\"0 0 " << fmt(w, 0) << " " << fmt(h, 0)
      << "\" width=\"" << fmt(w, 0) << "\" role=\"img\">\n"
      << "<rect x=\"" << fmt(left, 0) << "\" y=\"" << fmt(top, 0)
      << "\" width=\"" << fmt(plot_w, 0) << "\" height=\"" << fmt(plot_h, 0)
      << "\" fill=\"#fafafa\" stroke=\"#ddd\"/>\n";

  // Budget: step line.  The sampled budget at each actuation already steps
  // at change instants; render with horizontal-then-vertical segments.
  std::ostringstream budget_path, power_path;
  for (std::size_t i = 0; i < d.power.size(); ++i) {
    const double px = x.map(d.power[i][0]);
    const double py_power = y.map(d.power[i][1]);
    const double py_budget = y.map(d.power[i][2]);
    power_path << (i ? " L" : "M") << fmt(px, 1) << " " << fmt(py_power, 1);
    if (i == 0) {
      budget_path << "M" << fmt(px, 1) << " " << fmt(py_budget, 1);
    } else {
      budget_path << " H" << fmt(px, 1) << " V" << fmt(py_budget, 1);
    }
  }
  out << "<path d=\"" << budget_path.str()
      << "\" fill=\"none\" stroke=\"#c62828\" stroke-width=\"1.5\" "
         "stroke-dasharray=\"6 3\"/>\n";
  out << "<path d=\"" << power_path.str()
      << "\" fill=\"none\" stroke=\"#1565c0\" stroke-width=\"1.5\"/>\n";

  // Axes: five ticks each.
  for (int k = 0; k <= 4; ++k) {
    const double t = d.t_lo + (d.t_hi - d.t_lo) * k / 4.0;
    const double px = x.map(t);
    out << "<text x=\"" << fmt(px, 1) << "\" y=\"" << fmt(top + plot_h + 16, 1)
        << "\" text-anchor=\"middle\" class=\"tick\">" << fmt(t, 2)
        << "s</text>\n";
    const double v = y_hi * k / 4.0;
    out << "<text x=\"" << fmt(left - 6, 1) << "\" y=\""
        << fmt(y.map(v) + 3, 1) << "\" text-anchor=\"end\" class=\"tick\">"
        << fmt(v, 0) << "W</text>\n";
  }
  out << "<text x=\"" << fmt(left + 8, 1) << "\" y=\"" << fmt(top + 14, 1)
      << "\" class=\"tick\"><tspan fill=\"#1565c0\">&#9632;</tspan> power"
         "  <tspan fill=\"#c62828\">&#9632;</tspan> budget</text>\n";
  out << "</svg>\n";
}

// ---------------------------------------------------------------------------
// HTML sections

void render_summary(std::ostream& out, const std::string& journal_path,
                    const ReportData& d) {
  out << "<section id=\"summary\"><h2>Run summary</h2>\n<table>\n";
  const auto row = [&](const std::string& k, const std::string& v) {
    out << "<tr><th>" << html_escape(k) << "</th><td>" << v << "</td></tr>\n";
  };
  row("journal", html_escape(journal_path));
  row("events", std::to_string(d.count));
  row("time span", fmt(d.t_lo) + " s .. " + fmt(d.t_hi) + " s");
  if (d.have_meta) {
    row("daemon", html_escape(d.daemon));
    row("CPUs", d.cpus >= 0 ? std::to_string(d.cpus) : "?");
    row("sampling period",
        fmt(d.t_sample_s * 1e3, 0) + " ms (T = " +
            fmt(d.t_sample_s * d.multiplier * 1e3, 0) + " ms)");
  }
  row("alerts", std::to_string(d.alerts_raised) + " raised, " +
                    std::to_string(d.alerts_cleared) + " cleared");
  if (d.infeasible > 0) {
    row("infeasible-budget cycles", std::to_string(d.infeasible));
  }
  if (!d.budget_moves.empty()) {
    std::string moves;
    for (const auto& [t, budget] : d.budget_moves) {
      if (!moves.empty()) moves += ", ";
      moves += fmt(budget, 0) + " W @ " + fmt(t, 2) + " s";
    }
    row("budget changes", html_escape(moves));
  }
  out << "</table>\n<details><summary>Events by type</summary><table>\n"
      << "<tr><th>type</th><th>count</th></tr>\n";
  for (const auto& [type, count] : d.by_type) {
    out << "<tr><td>" << html_escape(type) << "</td><td class=\"num\">"
        << count << "</td></tr>\n";
  }
  out << "</table></details>\n</section>\n";
}

void render_alerts(std::ostream& out, const ReportData& d) {
  out << "<section id=\"alerts\"><h2>Alerts</h2>\n";
  if (d.lane_order.empty()) {
    out << "<p class=\"empty\">No alerts fired during this run.</p>\n"
        << "</section>\n";
    return;
  }
  render_alert_svg(out, d);
  out << "<table>\n<tr><th>rule</th><th>severity</th><th>raised</th>"
         "<th>cleared</th><th>duration</th><th>value at raise</th>"
         "<th>rule expression</th></tr>\n";
  for (const std::string& name : d.lane_order) {
    const RuleLane& lane = d.lanes.at(name);
    for (const AlertSpan& span : lane.spans) {
      out << "<tr><td>" << html_escape(name) << "</td><td><span class=\"sev\" "
          << "style=\"background:" << severity_color(lane.severity) << "\">"
          << html_escape(lane.severity) << "</span></td><td class=\"num\">"
          << fmt(span.t0) << " s</td><td class=\"num\">"
          << (span.open ? std::string("&mdash; (still firing)")
                        : fmt(span.t1) + " s")
          << "</td><td class=\"num\">" << fmt(span.t1 - span.t0)
          << " s</td><td class=\"num\">" << fmtg(span.value)
          << "</td><td><code>" << html_escape(lane.expr)
          << "</code></td></tr>\n";
    }
  }
  out << "</table>\n</section>\n";
}

void render_residency(std::ostream& out, const ReportData& d) {
  out << "<section id=\"residency\"><h2>Frequency residency</h2>\n";
  const auto entries = d.residency.sorted();
  if (entries.empty()) {
    out << "<p class=\"empty\">No decision events in this journal.</p>\n"
        << "</section>\n";
    return;
  }
  out << "<p>Share of scheduling decisions granting each frequency "
         "(decisions land at uniform sampling instants, so shares track "
         "time).</p>\n<table>\n"
      << "<tr><th>frequency</th><th>decisions</th><th>share</th>"
         "<th></th></tr>\n";
  for (const auto& entry : entries) {
    const double share = d.residency.fraction(entry.key);
    out << "<tr><td>" << fmt(entry.key / 1e6, 0)
        << " MHz</td><td class=\"num\">" << fmt(entry.weight, 0)
        << "</td><td class=\"num\">" << fmt(share * 100.0, 1)
        << "%</td><td class=\"barcell\"><div class=\"bar\" style=\"width:"
        << fmt(share * 100.0, 1) << "%\"></div></td></tr>\n";
  }
  out << "</table>\n</section>\n";
}

void render_power(std::ostream& out, const ReportData& d) {
  out << "<section id=\"power\"><h2>Power vs budget</h2>\n";
  if (d.power.empty()) {
    out << "<p class=\"empty\">No actuation events carried power "
           "readings.</p>\n</section>\n";
    return;
  }
  if (d.power_stride > 1) {
    out << "<p class=\"tick\">Trace decimated: every "
        << d.power_stride << "th sample shown (" << d.power.size() << " of "
        << d.power_seen << " points).</p>\n";
  }
  render_power_svg(out, d);
  out << "</section>\n";
}

void render_metrics(std::ostream& out, const std::string& metrics_path,
                    const std::string& metrics_text) {
  out << "<section id=\"metrics\"><h2>Metrics snapshot</h2>\n";
  if (metrics_path.empty()) {
    out << "<p class=\"empty\">No metrics file supplied (run fvsst_sim with "
           "--metrics-out and pass --metrics here).</p>\n";
  } else {
    out << "<p>Prometheus text snapshot from <code>"
        << html_escape(metrics_path) << "</code>:</p>\n<pre>"
        << html_escape(metrics_text) << "</pre>\n";
  }
  out << "</section>\n";
}

void render_page(std::ostream& out, const std::string& journal_path,
                 const ReportData& d, const std::string& metrics_path,
                 const std::string& metrics_text) {
  out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
         "<meta charset=\"utf-8\">\n"
         "<title>fvsst run report</title>\n"
         "<style>\n"
         "body{font:14px/1.5 system-ui,sans-serif;margin:24px auto;"
         "max-width:920px;color:#222}\n"
         "h1{font-size:22px}h2{font-size:17px;border-bottom:1px solid #ddd;"
         "padding-bottom:4px;margin-top:28px}\n"
         "table{border-collapse:collapse;margin:8px 0}\n"
         "th,td{border:1px solid #ddd;padding:3px 9px;text-align:left;"
         "font-size:13px}\n"
         "th{background:#f5f5f5}\n"
         "td.num{text-align:right;font-variant-numeric:tabular-nums}\n"
         "td.barcell{min-width:220px;border-left:none}\n"
         ".bar{background:#1565c0;height:11px;border-radius:2px}\n"
         ".sev{color:#fff;border-radius:3px;padding:1px 6px;font-size:12px}\n"
         ".empty{color:#777;font-style:italic}\n"
         ".tick{font-size:11px;fill:#666;color:#666}\n"
         ".lane{font-size:12px;fill:#333}\n"
         "code,pre{font:12px/1.45 ui-monospace,monospace;background:#f6f6f6}\n"
         "pre{padding:10px;overflow-x:auto;border:1px solid #e0e0e0}\n"
         "nav a{margin-right:14px}\n"
         "</style>\n</head>\n<body>\n"
         "<h1>fvsst run report</h1>\n"
         "<nav><a href=\"#summary\">summary</a><a href=\"#alerts\">alerts</a>"
         "<a href=\"#residency\">residency"
         "</a><a href=\"#power\">power</a><a href=\"#metrics\">metrics</a>"
         "</nav>\n";
  render_summary(out, journal_path, d);
  render_alerts(out, d);
  render_residency(out, d);
  render_power(out, d);
  render_metrics(out, metrics_path, metrics_text);
  out << "</body>\n</html>\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string journal_path;
  std::string metrics_path;
  std::string out_path = "report.html";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::printf(
          "usage: fvsst_report JOURNAL [--metrics FILE] [--out OUT.html]\n"
          "Renders a decision journal (fvsst_sim --journal; JSONL or .fjb,\n"
          "sniffed automatically) as one self-contained HTML page: run\n"
          "summary, alert timeline, frequency residency and\n"
          "power-vs-budget, all inline SVG/CSS.\n"
          "  --metrics FILE  embed a Prometheus text snapshot\n"
          "                  (fvsst_sim --metrics-out) in the report\n"
          "  --out OUT.html  output path (default report.html)\n");
      return 0;
    } else if (flag == "--metrics") {
      if (i + 1 >= argc) usage_error("--metrics needs a file path");
      metrics_path = argv[++i];
    } else if (flag == "--out" || flag == "-o") {
      if (i + 1 >= argc) usage_error("--out needs a file path");
      out_path = argv[++i];
    } else if (!flag.empty() && flag[0] == '-') {
      usage_error("unknown flag '" + flag + "'");
    } else if (journal_path.empty()) {
      journal_path = flag;
    } else {
      usage_error("more than one journal given");
    }
  }
  if (journal_path.empty()) usage_error("no journal given");

  std::ifstream in(journal_path, std::ios::binary);
  if (!in) usage_error("cannot open journal '" + journal_path + "'");
  const sim::JournalFormat format = sim::detect_journal_format(in);

  ReportData data;
  sim::JsonlReadReport report;
  std::size_t delivered = 0;
  try {
    const auto observe = [&](sim::Event&& e) { data.observe(e); };
    delivered = format == sim::JournalFormat::kBinary
                    ? sim::for_each_binary(in, observe, &report)
                    : sim::for_each_jsonl(in, observe, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fvsst_report: %s: %s\n", journal_path.c_str(),
                 e.what());
    return 2;
  }
  if (report.torn_tail) {
    std::fprintf(stderr,
                 "fvsst_report: %s: torn final record dropped (%s); "
                 "recovered %zu complete event(s)\n",
                 journal_path.c_str(), report.error.c_str(), delivered);
  }
  data.finish();

  std::string metrics_text;
  if (!metrics_path.empty()) {
    std::ifstream metrics_in(metrics_path, std::ios::binary);
    if (!metrics_in) {
      usage_error("cannot open metrics file '" + metrics_path + "'");
    }
    std::ostringstream buf;
    buf << metrics_in.rdbuf();
    metrics_text = buf.str();
  }

  std::ofstream out(out_path, std::ios::binary);
  if (!out) usage_error("cannot open output '" + out_path + "'");
  render_page(out, journal_path, data, metrics_path, metrics_text);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "fvsst_report: failed to write '%s'\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "[report] wrote %s (%zu event(s), %zu alert(s))\n",
               out_path.c_str(), delivered, data.alerts_raised);
  return 0;
}
