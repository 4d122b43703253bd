// pass2_reference.h - A linear-scan pass 2, the oracle for the heap.
//
// FrequencyScheduler takes each pass-2 downgrade from a min-heap.  This is
// the procedure it replaced, kept verbatim in its selection logic: every
// step rescans all processors and keeps the strict minimum predicted loss,
// starting from +inf, so ties go to the lowest processor and a NaN or +inf
// loss is never picked.  expect_pass2_matches_scan() re-runs it from the
// result's own pass-1 frequencies and requires the heap's outcome to match
// it bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <vector>

#include "core/predictor.h"
#include "core/scheduler.h"
#include "mach/frequency_table.h"

namespace fvsst::core {

struct ScanStep {
  std::size_t proc = 0;
  double from_hz = 0.0;
  double to_hz = 0.0;
};

struct ScanOutcome {
  std::vector<std::size_t> idx;  ///< Granted table index per processor.
  std::vector<ScanStep> steps;
  bool feasible = true;
  double total_cpu_power_w = 0.0;
};

inline ScanOutcome scan_pass2(
    const FrequencyScheduler& sched, const std::vector<ProcView>& procs,
    const std::vector<const mach::FrequencyTable*>& tables,
    const ScheduleResult& result, double power_budget_w) {
  const bool idle_detection = sched.options().idle_detection;
  const auto loss_at = [&](const WorkloadEstimate& est, double hz,
                           double f_max) {
    return perf_loss(sched.predictor().predict_performance(est, f_max),
                     sched.predictor().predict_performance(est, hz));
  };
  ScanOutcome out;
  std::vector<std::size_t>& idx = out.idx;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    idx.push_back(*tables[p]->index_of(result.decisions[p].desired_hz));
  }
  auto total_power = [&] {
    double w = 0.0;
    for (std::size_t p = 0; p < idx.size(); ++p) {
      w += (*tables[p])[idx[p]].watts;
    }
    return w;
  };

  double power = total_power();
  while (power > power_budget_w + mach::kPowerSlackW) {
    std::size_t best_proc = procs.size();
    double best_loss = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < procs.size(); ++p) {
      if (idx[p] == 0) continue;  // already at the floor
      const auto& table = *tables[p];
      const double candidate_hz = table[idx[p] - 1].hz;
      const double loss =
          (procs[p].idle && idle_detection) || !procs[p].estimate.valid
              ? 0.0
              : loss_at(procs[p].estimate, candidate_hz, table.max_hz());
      if (loss < best_loss) {
        best_loss = loss;
        best_proc = p;
      }
    }
    if (best_proc == procs.size()) {
      out.feasible = false;
      break;
    }
    const auto& table = *tables[best_proc];
    out.steps.push_back({best_proc, table[idx[best_proc]].hz,
                         table[idx[best_proc] - 1].hz});
    power -= table[idx[best_proc]].watts;
    --idx[best_proc];
    power += table[idx[best_proc]].watts;
  }
  for (std::size_t p = 0; p < procs.size(); ++p) {
    out.total_cpu_power_w += (*tables[p])[idx[p]].watts;
  }
  return out;
}

/// Schedules `procs` with `sched` and checks every pass-2 outcome against
/// scan_pass2: granted hz, the downgrade sequence (explain mode), step
/// count, feasibility and total power, all bit for bit.
inline ScheduleResult expect_pass2_matches_scan(
    const FrequencyScheduler& sched, const std::vector<ProcView>& procs,
    const std::vector<const mach::FrequencyTable*>& tables,
    double power_budget_w) {
  const ScheduleResult r = sched.schedule(procs, tables, power_budget_w);
  const ScanOutcome ref = scan_pass2(sched, procs, tables, r, power_budget_w);
  EXPECT_EQ(r.decisions.size(), procs.size());
  for (std::size_t p = 0; p < procs.size() && p < r.decisions.size(); ++p) {
    EXPECT_EQ(r.decisions[p].hz, (*tables[p])[ref.idx[p]].hz) << "proc " << p;
  }
  EXPECT_EQ(r.downgrade_steps, ref.steps.size());
  EXPECT_EQ(r.feasible, ref.feasible);
  EXPECT_EQ(r.total_cpu_power_w, ref.total_cpu_power_w);
  if (sched.options().explain) {
    EXPECT_EQ(r.downgrades.size(), ref.steps.size());
    for (std::size_t i = 0; i < r.downgrades.size() && i < ref.steps.size();
         ++i) {
      EXPECT_EQ(r.downgrades[i].proc, ref.steps[i].proc) << "step " << i;
      EXPECT_EQ(r.downgrades[i].from_hz, ref.steps[i].from_hz) << "step " << i;
      EXPECT_EQ(r.downgrades[i].to_hz, ref.steps[i].to_hz) << "step " << i;
    }
  }
  return r;
}

}  // namespace fvsst::core
