#include "core/scheduler.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace fvsst::core {

std::string_view pass1_reason_name(Pass1Reason reason) {
  switch (reason) {
    case Pass1Reason::kUnspecified: return "unspecified";
    case Pass1Reason::kIdle: return "idle";
    case Pass1Reason::kNoEstimate: return "no_estimate";
    case Pass1Reason::kEpsilon: return "epsilon";
    case Pass1Reason::kFmax: return "fmax";
  }
  return "?";
}

FrequencyScheduler::FrequencyScheduler(mach::FrequencyTable table,
                                       mach::MemoryLatencies nominal_latencies,
                                       Options options)
    : table_(std::move(table)),
      predictor_(nominal_latencies),
      options_(options) {
  if (table_.empty()) {
    throw std::invalid_argument("FrequencyScheduler: empty frequency table");
  }
  if (options_.epsilon <= 0.0 || options_.epsilon >= 1.0) {
    throw std::invalid_argument("FrequencyScheduler: epsilon out of (0,1)");
  }
}

double FrequencyScheduler::loss_at(const WorkloadEstimate& est, double hz,
                                   double f_max) const {
  const double perf_max = predictor_.predict_performance(est, f_max);
  const double perf_f = predictor_.predict_performance(est, hz);
  return perf_loss(perf_max, perf_f);
}

double FrequencyScheduler::predicted_loss(const WorkloadEstimate& est,
                                          double hz) const {
  return loss_at(est, hz, table_.max_hz());
}

std::size_t FrequencyScheduler::pass1_index(const ProcView& proc,
                                            const mach::FrequencyTable& table,
                                            Pass1Reason* reason) const {
  const auto classified = [&](std::size_t i, Pass1Reason r) {
    if (reason) *reason = r;
    return i;
  };
  if (proc.idle && options_.idle_detection) {
    // Idle: ignore the predictor, go to the minimum point.
    return classified(0, Pass1Reason::kIdle);
  }
  if (!proc.estimate.valid) {
    // No usable counter data yet (first interval): run at f_max; the next
    // interval will produce an estimate.
    return classified(table.size() - 1, Pass1Reason::kNoEstimate);
  }
  const double perf_max =
      predictor_.predict_performance(proc.estimate, table.max_hz());
  for (std::size_t i = 0; i + 1 < table.size(); ++i) {
    if (loss_from(perf_max, proc.estimate, table[i].hz) < options_.epsilon) {
      return classified(i, Pass1Reason::kEpsilon);
    }
  }
  // Loss at f_max itself is 0 < epsilon; no lower setting qualified.
  return classified(table.size() - 1, Pass1Reason::kFmax);
}

void FrequencyScheduler::record_downgrade(std::size_t proc,
                                          std::size_t from_idx,
                                          const std::vector<ProcView>& procs,
                                          const Tables& tables,
                                          ScheduleResult& result) const {
  const auto& table = *tables[proc];
  DowngradeStep step;
  step.proc = proc;
  step.from_hz = table[from_idx].hz;
  step.to_hz = table[from_idx - 1].hz;
  step.watts_saved = table[from_idx].watts - table[from_idx - 1].watts;
  const bool no_loss =
      (procs[proc].idle && options_.idle_detection) ||
      !procs[proc].estimate.valid;
  if (!no_loss) {
    const double before =
        loss_at(procs[proc].estimate, step.from_hz, table.max_hz());
    step.loss_after =
        loss_at(procs[proc].estimate, step.to_hz, table.max_hz());
    step.marginal_loss = std::max(step.loss_after - before, 0.0);
  }
  result.downgrades.push_back(step);
}

void FrequencyScheduler::pass2_power_fit(std::vector<std::size_t>& idx,
                                         const std::vector<ProcView>& procs,
                                         const Tables& tables,
                                         double power_budget_w,
                                         ScheduleResult& result) const {
  double power = 0.0;
  for (std::size_t p = 0; p < idx.size(); ++p) {
    power += (*tables[p])[idx[p]].watts;
  }
  // kPowerSlackW: `power` is maintained incrementally across downgrades,
  // so at a budget that equals a reachable configuration exactly the
  // running total can sit an ulp above it; a strict comparison would then
  // take a spurious extra downgrade (or report infeasible at the floor).
  const auto over_budget = [&] {
    return power > power_budget_w + mach::kPowerSlackW;
  };
  if (!over_budget()) return;

  // Each processor above its floor offers one candidate: its next-lower
  // setting, keyed by the predicted loss there ("select n,p with smallest
  // PerfLoss(f_max, f_less)").  A min-heap on (loss, proc) yields the
  // greedy's choice in O(log N) per downgrade, ties to the lowest proc.
  // Only losses < +inf are admitted — a scan keeping the strict minimum
  // from +inf never picks anything else, NaN included.
  struct Candidate {
    double loss;
    std::size_t proc;
  };
  const auto later = [](const Candidate& a, const Candidate& b) {
    if (a.loss != b.loss) return a.loss > b.loss;
    return a.proc > b.proc;
  };
  std::vector<Candidate> heap;
  heap.reserve(procs.size());
  const auto offer = [&](std::size_t p) {
    if (idx[p] == 0) return;  // already at the floor
    const auto& table = *tables[p];
    const double candidate_hz = table[idx[p] - 1].hz;
    // Idle or estimate-less processors lose nothing by slowing down.
    const double loss =
        (procs[p].idle && options_.idle_detection) || !procs[p].estimate.valid
            ? 0.0
            : loss_at(procs[p].estimate, candidate_hz, table.max_hz());
    if (loss < std::numeric_limits<double>::infinity()) {
      heap.push_back({loss, p});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  };
  for (std::size_t p = 0; p < procs.size(); ++p) offer(p);

  while (over_budget()) {
    if (heap.empty()) {
      // Everyone is at the minimum point and the budget is still exceeded:
      // frequency scaling alone cannot satisfy it.
      result.feasible = false;
      break;
    }
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::size_t best = heap.back().proc;
    heap.pop_back();
    if (options_.explain) {
      record_downgrade(best, idx[best], procs, tables, result);
    }
    power -= (*tables[best])[idx[best]].watts;
    --idx[best];
    power += (*tables[best])[idx[best]].watts;
    ++result.downgrade_steps;
    offer(best);
  }
}

ScheduleResult FrequencyScheduler::finalize(
    const std::vector<ProcView>& procs, const Tables& tables,
    const std::vector<std::size_t>& desired_idx,
    std::vector<std::size_t> granted_idx,
    const std::vector<Pass1Reason>& reasons, ScheduleResult partial) const {
  ScheduleResult result = std::move(partial);
  result.explained = options_.explain;
  result.decisions.resize(procs.size());
  result.total_cpu_power_w = 0.0;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    auto& d = result.decisions[p];
    const auto& table = *tables[p];
    const auto& granted = table[granted_idx[p]];
    const bool no_loss =
        (procs[p].idle && options_.idle_detection) || !procs[p].estimate.valid;
    d.desired_hz = table[desired_idx[p]].hz;
    d.hz = granted.hz;
    d.volts = granted.volts;  // pass 3: minimum-voltage table look-up
    d.watts = granted.watts;
    // f_max's predicted performance, once per processor.
    const WorkloadEstimate& est = procs[p].estimate;
    const double perf_max =
        no_loss ? 0.0 : predictor_.predict_performance(est, table.max_hz());
    const auto loss = [&](double hz) {
      return no_loss ? 0.0 : loss_from(perf_max, est, hz);
    };
    d.predicted_loss = loss(granted.hz);
    d.pass1_reason = reasons[p];
    if (options_.explain) {
      d.pass1_loss = loss(d.desired_hz);
      if (desired_idx[p] > 0 && !no_loss) {
        d.rejected_loss = loss(table[desired_idx[p] - 1].hz);
      }
    }
    result.total_cpu_power_w += granted.watts;
  }
  return result;
}

ScheduleResult FrequencyScheduler::schedule_two_pass(
    const std::vector<ProcView>& procs, const Tables& tables,
    double power_budget_w) const {
  ScheduleResult result;
  std::vector<std::size_t> idx(procs.size());
  std::vector<Pass1Reason> reasons(procs.size());
  for (std::size_t p = 0; p < procs.size(); ++p) {
    idx[p] = pass1_index(procs[p], *tables[p], &reasons[p]);
  }
  const std::vector<std::size_t> desired = idx;
  pass2_power_fit(idx, procs, tables, power_budget_w, result);
  return finalize(procs, tables, desired, std::move(idx), reasons,
                  std::move(result));
}

ScheduleResult FrequencyScheduler::schedule_continuous(
    const std::vector<ProcView>& procs, const Tables& tables,
    double power_budget_w) const {
  ScheduleResult result;
  std::vector<std::size_t> idx(procs.size());
  std::vector<Pass1Reason> reasons(procs.size());
  for (std::size_t p = 0; p < procs.size(); ++p) {
    const auto& proc = procs[p];
    const auto& table = *tables[p];
    if (proc.idle && options_.idle_detection) {
      idx[p] = 0;
      reasons[p] = Pass1Reason::kIdle;
    } else if (!proc.estimate.valid) {
      idx[p] = table.size() - 1;
      reasons[p] = Pass1Reason::kNoEstimate;
    } else {
      const double f_ideal =
          ideal_frequency(proc.estimate, table.max_hz(), options_.epsilon);
      // Snap upward: any grid point below f_ideal loses more than epsilon.
      const auto& point = table.ceil_point(f_ideal);
      idx[p] = *table.index_of(point.hz);
      reasons[p] = idx[p] + 1 == table.size() ? Pass1Reason::kFmax
                                              : Pass1Reason::kEpsilon;
    }
  }
  const std::vector<std::size_t> desired = idx;
  pass2_power_fit(idx, procs, tables, power_budget_w, result);
  return finalize(procs, tables, desired, std::move(idx), reasons,
                  std::move(result));
}

ScheduleResult FrequencyScheduler::schedule_watts_per_loss(
    const std::vector<ProcView>& procs, const Tables& tables,
    double power_budget_w) const {
  ScheduleResult result;
  std::vector<std::size_t> idx(procs.size());
  std::vector<Pass1Reason> reasons(procs.size());
  double power = 0.0;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    idx[p] = pass1_index(procs[p], *tables[p], &reasons[p]);
    power += (*tables[p])[idx[p]].watts;
  }
  const std::vector<std::size_t> desired = idx;

  while (power > power_budget_w + mach::kPowerSlackW) {
    // Pick the downgrade with the most watts saved per unit of *extra*
    // predicted loss (the marginal cost, not the absolute loss).
    std::size_t best_proc = procs.size();
    double best_score = -1.0;
    for (std::size_t p = 0; p < procs.size(); ++p) {
      if (idx[p] == 0) continue;
      const auto& table = *tables[p];
      const double watts_saved =
          table[idx[p]].watts - table[idx[p] - 1].watts;
      double marginal_loss = 0.0;
      if (!((procs[p].idle && options_.idle_detection) ||
            !procs[p].estimate.valid)) {
        const double loss_now =
            loss_at(procs[p].estimate, table[idx[p]].hz, table.max_hz());
        const double loss_next = loss_at(procs[p].estimate,
                                         table[idx[p] - 1].hz,
                                         table.max_hz());
        marginal_loss = std::max(loss_next - loss_now, 0.0);
      }
      const double score = watts_saved / (marginal_loss + 1e-6);
      if (score > best_score) {
        best_score = score;
        best_proc = p;
      }
    }
    if (best_proc == procs.size()) {
      result.feasible = false;
      break;
    }
    if (options_.explain) {
      record_downgrade(best_proc, idx[best_proc], procs, tables, result);
    }
    power -= (*tables[best_proc])[idx[best_proc]].watts;
    --idx[best_proc];
    power += (*tables[best_proc])[idx[best_proc]].watts;
    ++result.downgrade_steps;
  }
  return finalize(procs, tables, desired, std::move(idx), reasons,
                  std::move(result));
}

ScheduleResult FrequencyScheduler::schedule(
    const std::vector<ProcView>& procs,
    const std::vector<const mach::FrequencyTable*>& tables,
    double power_budget_w) const {
  if (tables.size() != procs.size()) {
    throw std::invalid_argument(
        "FrequencyScheduler: tables must parallel procs");
  }
  for (const auto* t : tables) {
    if (t == nullptr || t->empty()) {
      throw std::invalid_argument("FrequencyScheduler: null/empty table");
    }
  }
  switch (options_.variant) {
    case SchedulerVariant::kTwoPass:
      return schedule_two_pass(procs, tables, power_budget_w);
    case SchedulerVariant::kContinuous:
      return schedule_continuous(procs, tables, power_budget_w);
    case SchedulerVariant::kWattsPerLoss:
      return schedule_watts_per_loss(procs, tables, power_budget_w);
  }
  throw std::logic_error("FrequencyScheduler: unknown variant");
}

ScheduleResult FrequencyScheduler::schedule(const std::vector<ProcView>& procs,
                                            double power_budget_w) const {
  const Tables tables(procs.size(), &table_);
  return schedule(procs, tables, power_budget_w);
}

}  // namespace fvsst::core
