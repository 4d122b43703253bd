#include "baselines/policies.h"

#include <algorithm>
#include <numeric>

#include "baselines/optimal.h"

namespace fvsst::baselines {

std::vector<Assignment> MaxFrequencyPolicy::decide(
    const std::vector<ProcSample>& procs, const mach::FrequencyTable& table,
    double) const {
  return std::vector<Assignment>(procs.size(),
                                 Assignment{table.max_hz(), true});
}

std::vector<Assignment> UniformScalingPolicy::decide(
    const std::vector<ProcSample>& procs, const mach::FrequencyTable& table,
    double budget_w) const {
  // Even the lowest setting may not fit; uniform scaling has no further
  // recourse, so it runs at the floor and overshoots the budget.
  return std::vector<Assignment>(
      procs.size(), Assignment{table.equal_share_hz(budget_w, procs.size()),
                               true});
}

std::vector<Assignment> PowerDownPolicy::decide(
    const std::vector<ProcSample>& procs, const mach::FrequencyTable& table,
    double budget_w) const {
  std::vector<Assignment> out(procs.size(),
                              Assignment{table.max_hz(), true});
  const double per_proc_w = table.max_point().watts;
  double power = per_proc_w * static_cast<double>(procs.size());

  // Shut-down order: idle processors first, then ascending saturation
  // performance (the cheapest real work to sacrifice).
  std::vector<std::size_t> order(procs.size());
  std::iota(order.begin(), order.end(), 0);
  auto demand = [&](std::size_t p) {
    if (procs[p].idle) return -1.0;
    const auto& e = procs[p].estimate;
    if (!e.valid) return 1e30;
    // Performance at f_max as the demand proxy.
    return table.max_hz() / (e.alpha_inv + e.mem_time_per_instr *
                                               table.max_hz());
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return demand(a) < demand(b);
                   });
  for (std::size_t k = 0; k < order.size() && power > budget_w; ++k) {
    out[order[k]].powered_on = false;
    out[order[k]].hz = 0.0;
    power -= per_proc_w;
  }
  return out;
}

std::vector<Assignment> ConsolidationPolicy::decide(
    const std::vector<ProcSample>& procs, const mach::FrequencyTable& table,
    double budget_w) const {
  // Hosts that fit at f_max under the budget; at least one survives.
  const double per_proc_w = table.max_point().watts;
  std::size_t hosts = static_cast<std::size_t>(budget_w / per_proc_w);
  hosts = std::min(std::max<std::size_t>(hosts, 1), procs.size());
  std::vector<Assignment> out(procs.size());
  for (std::size_t p = 0; p < procs.size(); ++p) {
    if (p < hosts) {
      out[p] = {table.max_hz(), true};
    } else {
      out[p] = {0.0, false};
    }
  }
  return out;
}

double ConsolidationPolicy::consolidated_performance(
    const std::vector<workload::Phase>& jobs, const std::vector<bool>& idle,
    std::size_t hosts, double hz, const mach::MemoryLatencies& lat) {
  if (hosts == 0) return 0.0;
  // Count real jobs; each host time-shares its share of them.  A host
  // running k jobs delivers its full throughput split among them, so the
  // aggregate is simply min(jobs, hosts-worth) of full-speed pipelines —
  // but never more than one pipeline per job.
  double total = 0.0;
  std::size_t real_jobs = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!idle[j]) ++real_jobs;
  }
  if (real_jobs == 0) return 0.0;
  // Each of the `hosts` processors contributes one pipeline of mixed work;
  // with fewer jobs than hosts, only `real_jobs` pipelines are busy.
  const std::size_t busy = std::min(hosts, real_jobs);
  // Aggregate throughput: busy pipelines running the average job mix.
  double mean_perf = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!idle[j]) {
      mean_perf += workload::true_performance(jobs[j], lat, hz) /
                   static_cast<double>(real_jobs);
    }
  }
  total = mean_perf * static_cast<double>(busy);
  return total;
}

std::vector<Assignment> DemandBasedSwitchingPolicy::decide(
    const std::vector<ProcSample>& procs, const mach::FrequencyTable& table,
    double budget_w) const {
  std::vector<Assignment> out(procs.size());
  for (std::size_t p = 0; p < procs.size(); ++p) {
    // Frequency follows utilisation; hot-idle cores report 1.0 and are
    // driven to f_max — the failure mode the paper calls out.
    const double target = procs[p].naive_utilization * table.max_hz();
    out[p] = {table.ceil_point(target).hz, true};
  }
  if (budget_capped_) {
    // Budget compliance bolted on: uniform per-processor cap.
    const double cap_hz = table.equal_share_hz(budget_w, procs.size());
    for (auto& a : out) a.hz = std::min(a.hz, cap_hz);
  }
  return out;
}

std::vector<Assignment> FvsstPolicy::decide(
    const std::vector<ProcSample>& procs, const mach::FrequencyTable& table,
    double budget_w) const {
  // Latencies are irrelevant here: estimates are already distilled.
  mach::MemoryLatencies unused{1e-9, 1e-9, 1e-9};
  core::FrequencyScheduler scheduler(table, unused, options_);
  std::vector<core::ProcView> views(procs.size());
  for (std::size_t p = 0; p < procs.size(); ++p) {
    views[p].estimate = procs[p].estimate;
    views[p].idle = procs[p].idle;
  }
  const core::ScheduleResult result = scheduler.schedule(views, budget_w);
  std::vector<Assignment> out(procs.size());
  for (std::size_t p = 0; p < procs.size(); ++p) {
    out[p] = {result.decisions[p].hz, true};
  }
  return out;
}

core::WorkloadEstimate oracle_estimate(const workload::Phase& phase,
                                       const mach::MemoryLatencies& lat) {
  core::WorkloadEstimate est;
  est.alpha_inv = 1.0 / phase.alpha;
  est.mem_time_per_instr = workload::mem_time_per_instruction(phase, lat);
  est.valid = true;
  return est;
}

Evaluation evaluate(const std::vector<Assignment>& assignments,
                    const std::vector<workload::Phase>& truth,
                    const std::vector<bool>& idle,
                    const mach::MemoryLatencies& lat,
                    const mach::FrequencyTable& table, double budget_w) {
  Evaluation ev;
  ev.per_proc_performance.resize(assignments.size(), 0.0);
  for (std::size_t p = 0; p < assignments.size(); ++p) {
    const auto& a = assignments[p];
    if (!a.powered_on) continue;  // off: no power, no performance
    ev.total_power_w += table.power(a.hz);
    if (idle[p]) continue;  // idle burns power but produces nothing
    const double perf = workload::true_performance(truth[p], lat, a.hz);
    const double perf_max =
        workload::true_performance(truth[p], lat, table.max_hz());
    ev.per_proc_performance[p] = perf;
    ev.total_performance += perf;
    ev.worst_proc_loss =
        std::max(ev.worst_proc_loss, core::perf_loss(perf_max, perf));
  }
  // A powered-off processor hosting real work means total loss for it.
  for (std::size_t p = 0; p < assignments.size(); ++p) {
    if (!assignments[p].powered_on && !idle[p]) ev.worst_proc_loss = 1.0;
  }
  ev.within_budget = ev.total_power_w <= budget_w + 1e-9;
  return ev;
}

core::ScheduleResult PolicyStageAdapter::decide(
    const std::vector<core::ProcView>& views,
    const std::vector<const mach::FrequencyTable*>& tables,
    double power_budget_w) {
  std::vector<ProcSample> samples(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    samples[i].estimate = views[i].estimate;
    samples[i].idle = views[i].idle;
    samples[i].naive_utilization = views[i].utilization;
  }
  const mach::FrequencyTable& table = *tables.front();
  const std::vector<Assignment> assignments =
      policy_->decide(samples, table, power_budget_w);

  core::ScheduleResult result;
  result.decisions.resize(assignments.size());
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    const Assignment& a = assignments[i];
    auto& d = result.decisions[i];
    d.desired_hz = a.hz;
    d.hz = a.hz;
    if (a.powered_on) {
      const auto& point = table.ceil_point(a.hz);
      d.volts = point.volts;
      d.watts = point.watts;
    }
    result.total_cpu_power_w += d.watts;
  }
  result.feasible = result.total_cpu_power_w <= power_budget_w + 1e-9;
  return result;
}

std::vector<std::unique_ptr<Policy>> standard_policies() {
  std::vector<std::unique_ptr<Policy>> out;
  out.push_back(std::make_unique<MaxFrequencyPolicy>());
  out.push_back(std::make_unique<UniformScalingPolicy>());
  out.push_back(std::make_unique<PowerDownPolicy>());
  out.push_back(std::make_unique<ConsolidationPolicy>());
  out.push_back(std::make_unique<DemandBasedSwitchingPolicy>(true));
  out.push_back(std::make_unique<TwoFrequencySplitPolicy>());
  out.push_back(std::make_unique<LpFrequencySelectionPolicy>());
  out.push_back(std::make_unique<FvsstPolicy>());
  return out;
}

}  // namespace fvsst::baselines
