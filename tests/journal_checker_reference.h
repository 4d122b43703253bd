// journal_checker_reference.h - A map-based JournalChecker, the oracle
// for the array-indexed one.
//
// sim::JournalChecker keeps per-node state and per-CPU voltage tables in
// arrays indexed by id and reads a node_apply's fields in one pass.  This
// is the checker it replaced, kept verbatim in its checks and report
// wording: std::map state per node and a map-of-maps table per CPU, every
// field read with num_or / has_num.  The differential test in
// test_journal_checker.cc feeds both the same journals and requires the
// same JournalCheckReport, field by field.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "simkit/event_log.h"

namespace fvsst::sim {

namespace reference_detail {

inline std::string at_time(double t) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, t);
  return " at t=" + std::string(buf, res.ptr) + "s";
}

constexpr double kPowerTolW = 1e-6;
constexpr double kVoltTol = 1e-9;

}  // namespace reference_detail

class ReferenceJournalChecker {
 public:
  void observe(const Event& e);
  JournalCheckReport finish();

 private:
  std::size_t checks_run_ = 0;
  // 1. Budget compliance.
  std::vector<std::string> budget_violations_;
  // 2. Voltage-table minimum: cpu -> hz -> table volts, grown as
  //    table_point events arrive.
  std::map<int, std::map<double, double>> tables_;
  std::vector<std::string> voltage_violations_;
  // 3. T-restart: (budget-cycle t, next timer-cycle t) gaps, judged at
  //    finish() once the first run_meta has declared (or not) the period.
  bool have_meta_ = false;
  double meta_t_sample_ = 0.0;
  double meta_multiplier_ = 0.0;
  double meta_t_restarts_ = 0.0;
  double meta_failover_window_ = 0.0;
  double pending_budget_cycle_t_ = -1.0;
  std::vector<std::pair<double, double>> restart_gaps_;
  // 4. Epoch fencing.
  bool any_epoch_data_ = false;
  double last_announced_ = -1.0;
  double max_announced_ = -1.0;
  bool saw_announcement_ = false;
  std::map<int, double> node_epoch_;
  std::vector<std::string> epoch_violations_;
  // 5. Failover window: at most one window is open at a time (a newer
  //    budget change supersedes the previous window).
  double prev_budget_ = -1.0;
  bool window_open_ = false;
  double window_t_ = 0.0;
  double window_deadline_ = 0.0;
  double window_budget_ = 0.0;
  std::vector<std::string> failover_violations_;
  // 6. Transport (needs a kRunMeta with convergence_window_s > 0):
  //    monotone applied sequence per (node, epoch) — no duplicate or
  //    stale apply — and bounded convergence: after the last channel
  //    disturbance (message_lost / message_corrupt / message_expired),
  //    every node applies settings within the declared window.
  double meta_convergence_window_ = 0.0;
  double meta_nodes_ = 0.0;
  double last_disturb_t_ = -1.0;
  double last_event_t_ = 0.0;
  bool any_disturbance_ = false;
  std::map<int, std::pair<double, double>> node_seq_;  ///< node -> (epoch, seq).
  /// Per node: earliest node_apply after the latest disturbance seen so
  /// far (a value < last_disturb_t_ means none yet).
  std::map<int, double> node_apply_after_;
  std::vector<std::string> transport_violations_;
};

// The bodies below are the replaced checker's, unchanged but for its name
// and the reference_detail:: qualification of its helpers.

inline void ReferenceJournalChecker::observe(const Event& e) {
  if (e.t > last_event_t_) last_event_t_ = e.t;
  switch (e.type) {
    case EventType::kRunMeta:
      // First run_meta wins, matching the historical whole-journal scan.
      if (!have_meta_) {
        have_meta_ = true;
        meta_t_sample_ = e.num_or("t_sample_s");
        meta_multiplier_ = e.num_or("multiplier");
        meta_t_restarts_ = e.num_or("t_restarts");
        meta_failover_window_ = e.num_or("failover_window_s");
        meta_convergence_window_ = e.num_or("convergence_window_s");
        meta_nodes_ = e.num_or("nodes");
      }
      return;

    case EventType::kMessageLost:
    case EventType::kMessageCorrupt:
    case EventType::kMessageExpired:
      // 6. Every drop (including a retransmission's) is a disturbance: the
      //    convergence clock restarts at the *last* one, after which every
      //    message goes through and repair is bounded.
      any_disturbance_ = true;
      if (e.t > last_disturb_t_) last_disturb_t_ = e.t;
      return;

    case EventType::kTablePoint:
      tables_[e.cpu][e.num_or("hz")] = e.num_or("volts");
      return;

    case EventType::kDecision: {
      // 2. Voltage is the table minimum for every granted frequency.
      const auto table_it = tables_.find(e.cpu);
      if (table_it == tables_.end()) return;
      ++checks_run_;
      const double hz = e.num_or("granted_hz");
      const auto point_it = table_it->second.find(hz);
      if (point_it == table_it->second.end()) {
        voltage_violations_.push_back(
            "cpu" + std::to_string(e.cpu) + " granted " +
            std::to_string(hz / 1e6) + " MHz" + reference_detail::at_time(e.t) +
            ", not an operating point of its table");
        return;
      }
      const double table_volts = point_it->second;
      if (std::abs(e.num_or("volts") - table_volts) > reference_detail::kVoltTol) {
        voltage_violations_.push_back(
            "cpu" + std::to_string(e.cpu) + reference_detail::at_time(e.t) + ": voltage " +
            std::to_string(e.num_or("volts")) + " V is not the table minimum " +
            std::to_string(table_volts) + " V for its granted frequency");
      }
      return;
    }

    case EventType::kCycleStart: {
      // 3. Record each budget-cycle -> next-timer-cycle gap; judged at
      //    finish() once we know whether the journal declares a
      //    tick-counted period (there is one gap per budget trigger, so
      //    this list stays tiny).
      const std::string* trigger = e.find_str("trigger");
      if (!trigger) return;
      if (*trigger == "budget") {
        pending_budget_cycle_t_ = e.t;
      } else if (*trigger == "timer" && pending_budget_cycle_t_ >= 0.0) {
        restart_gaps_.emplace_back(pending_budget_cycle_t_, e.t);
        pending_budget_cycle_t_ = -1.0;
      }
      return;
    }

    case EventType::kEpochChange: {
      // 4. Announced epochs never regress.
      any_epoch_data_ = true;
      saw_announcement_ = true;
      ++checks_run_;
      const double epoch = e.num_or("epoch");
      if (epoch < last_announced_) {
        epoch_violations_.push_back(
            "epoch regressed" + reference_detail::at_time(e.t) + ": coordinator " +
            std::to_string(static_cast<int>(e.num_or("coordinator", -1.0))) +
            " announced epoch " + std::to_string(epoch) + " after epoch " +
            std::to_string(last_announced_));
      }
      last_announced_ = std::max(last_announced_, epoch);
      max_announced_ = std::max(max_announced_, epoch);
      return;
    }

    case EventType::kBudgetChange: {
      // 5. A newer limit supersedes (and closes) any open window; a drop
      //    opens the next one.
      const double budget = e.num_or("budget_w");
      if (window_open_) {
        window_open_ = false;
        ++checks_run_;
      }
      const bool drop = prev_budget_ >= 0.0 && budget < prev_budget_;
      prev_budget_ = budget;
      if (drop && have_meta_ && meta_failover_window_ > 0.0) {
        window_open_ = true;
        window_t_ = e.t;
        window_deadline_ = e.t + meta_failover_window_;
        window_budget_ = budget;
      }
      return;
    }

    case EventType::kActuation: {
      const std::string* stage = e.find_str("stage");
      if (!stage) {
        // 1. Budget compliance: whenever the scheduler claims
        //    feasibility, the total it granted must fit under the budget
        //    it was given.
        ++checks_run_;
        const double total = e.num_or("total_power_w");
        const double budget =
            e.num_or("budget_w", std::numeric_limits<double>::max());
        if (e.num_or("feasible", 1.0) != 0.0 && total > budget + reference_detail::kPowerTolW) {
          budget_violations_.push_back(
              "feasible actuation exceeds budget" + reference_detail::at_time(e.t) + ": " +
              std::to_string(total) + " W > " + std::to_string(budget) +
              " W");
        }
        return;
      }
      if (*stage != "node_apply") return;
      // 4. Per-node applied epochs never regress and never come from an
      //    unannounced epoch.
      if (e.has_num("epoch")) {
        any_epoch_data_ = true;
        ++checks_run_;
        const double epoch = e.num_or("epoch");
        const int node = static_cast<int>(e.num_or("node", -1.0));
        auto [it, inserted] = node_epoch_.try_emplace(node, epoch);
        if (!inserted) {
          if (epoch < it->second) {
            epoch_violations_.push_back(
                "node" + std::to_string(node) + reference_detail::at_time(e.t) +
                " applied settings from deposed epoch " +
                std::to_string(epoch) + " after epoch " +
                std::to_string(it->second));
          }
          it->second = std::max(it->second, epoch);
        }
        if (saw_announcement_ && epoch > max_announced_) {
          epoch_violations_.push_back(
              "node" + std::to_string(node) + reference_detail::at_time(e.t) +
              " applied settings from unannounced epoch " +
              std::to_string(epoch) + " (highest announced: " +
              std::to_string(max_announced_) + ")");
        }
      }
      // 6. Monotone applied sequence per (node, epoch): the reliable
      //    transport's effectively-once guarantee — a duplicate or stale
      //    reordered settings message must never be applied.
      if (e.has_num("seq") && e.has_num("epoch")) {
        ++checks_run_;
        const int node = static_cast<int>(e.num_or("node", -1.0));
        const double epoch = e.num_or("epoch");
        const double seq = e.num_or("seq");
        auto [it, inserted] =
            node_seq_.try_emplace(node, std::make_pair(epoch, seq));
        if (!inserted) {
          if (epoch == it->second.first && seq <= it->second.second) {
            transport_violations_.push_back(
                "node" + std::to_string(node) + reference_detail::at_time(e.t) +
                " applied seq " + std::to_string(seq) +
                " at or below the already-applied seq " +
                std::to_string(it->second.second) + " in epoch " +
                std::to_string(epoch) + " (duplicate or stale apply)");
          }
          if (epoch > it->second.first ||
              (epoch == it->second.first && seq > it->second.second)) {
            it->second = {epoch, seq};
          }
        }
      }
      // 6. Convergence bookkeeping: remember each node's earliest apply
      //    after the latest disturbance seen so far.
      {
        const int node = static_cast<int>(e.num_or("node", -1.0));
        auto [it, inserted] = node_apply_after_.try_emplace(node, e.t);
        if (!inserted && it->second < last_disturb_t_) it->second = e.t;
      }
      // 5. The open window closes on the first node_apply past the
      //    deadline (violation) or the first one back under the limit.
      if (window_open_) {
        if (e.t > window_deadline_) {
          ++checks_run_;
          failover_violations_.push_back(
              "cluster still over the " + std::to_string(window_budget_) +
              " W budget " + std::to_string(meta_failover_window_) +
              "s after the drop" + reference_detail::at_time(window_t_) +
              " (failover window missed)");
          window_open_ = false;
        } else if (e.num_or("cluster_power_w",
                            std::numeric_limits<double>::max()) <=
                   window_budget_ + reference_detail::kPowerTolW) {
          ++checks_run_;
          window_open_ = false;
        }
      }
      return;
    }

    default:
      return;
  }
}

inline JournalCheckReport ReferenceJournalChecker::finish() {
  JournalCheckReport report;
  report.checks_run = checks_run_;

  // 3. T restarts after a budget trigger (only meaningful for daemons
  //    with tick-counted periods, declared via run_meta t_restarts = 1).
  std::vector<std::string> restart_violations;
  const bool declares_period = have_meta_ && meta_t_restarts_ != 0.0 &&
                               meta_t_sample_ > 0.0 && meta_multiplier_ > 0.0;
  if (declares_period) {
    // After a budget cycle the tick count restarts, so the next timer
    // cycle comes at least (n - 1) ticks later.
    const double min_gap = (meta_multiplier_ - 1.0) * meta_t_sample_ - 1e-9;
    for (const auto& [budget_t, timer_t] : restart_gaps_) {
      ++report.checks_run;
      if (timer_t - budget_t < min_gap) {
        restart_violations.push_back(
            "timer cycle" + reference_detail::at_time(timer_t) + " fired only " +
            std::to_string(timer_t - budget_t) +
            "s after the budget trigger" + reference_detail::at_time(budget_t) +
            "; T did not restart");
      }
    }
  }

  // Skips and violations keep check_journal's historical 1..5 ordering.
  if (tables_.empty()) {
    report.skipped.push_back(
        "voltage-table check: no table_point events in journal");
  }
  if (!declares_period) {
    report.skipped.push_back(
        "T-restart check: journal does not declare a tick-counted period");
  }
  if (!any_epoch_data_) {
    report.skipped.push_back("epoch-fence check: no epoch data in journal");
  }
  if (!have_meta_ || meta_failover_window_ <= 0.0) {
    report.skipped.push_back(
        "failover-window check: journal does not declare failover_window_s");
  } else if (window_open_) {
    report.skipped.push_back(
        "failover-window check: journal ends inside the window of the "
        "budget drop" + reference_detail::at_time(window_t_));
    window_open_ = false;
  }

  // 6. Bounded convergence, judged at finish() once the last disturbance
  //    is known.  Monotone-seq violations were collected inline.
  if (!have_meta_ || meta_convergence_window_ <= 0.0) {
    report.skipped.push_back(
        "transport-convergence check: journal does not declare "
        "convergence_window_s");
  } else if (!any_disturbance_) {
    report.skipped.push_back(
        "transport-convergence check: no channel disturbances in journal");
  } else {
    const double deadline = last_disturb_t_ + meta_convergence_window_;
    if (last_event_t_ < deadline) {
      report.skipped.push_back(
          "transport-convergence check: journal ends inside the "
          "convergence window of the disturbance" + reference_detail::at_time(last_disturb_t_));
    } else {
      for (int n = 0; n < static_cast<int>(meta_nodes_); ++n) {
        ++report.checks_run;
        const auto it = node_apply_after_.find(n);
        const double applied =
            it == node_apply_after_.end() ? -1.0 : it->second;
        if (applied < last_disturb_t_ || applied > deadline) {
          transport_violations_.push_back(
              "node" + std::to_string(n) +
              " did not re-apply settings within " +
              std::to_string(meta_convergence_window_) +
              "s of the last channel disturbance" + reference_detail::at_time(last_disturb_t_) +
              " (bounded convergence missed)");
        }
      }
    }
  }

  const auto take = [&report](std::vector<std::string>& from) {
    for (std::string& v : from) report.violations.push_back(std::move(v));
    from.clear();
  };
  take(budget_violations_);
  take(voltage_violations_);
  take(restart_violations);
  take(epoch_violations_);
  take(failover_violations_);
  take(transport_violations_);
  return report;
}

}  // namespace fvsst::sim
