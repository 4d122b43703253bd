// Tests for the heterogeneous (per-processor table) scheduler overload —
// the paper's process-variation case and mixed-generation clusters.
#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "mach/machine_config.h"
#include "pass2_reference.h"
#include "simkit/rng.h"
#include "simkit/units.h"

namespace fvsst::core {
namespace {

using units::GHz;
using units::MHz;

const mach::MemoryLatencies kLat = mach::p630().latencies;

WorkloadEstimate make_estimate(double alpha, double stall_cpi_at_1ghz) {
  WorkloadEstimate est;
  est.valid = true;
  est.alpha_inv = 1.0 / alpha;
  est.mem_time_per_instr = stall_cpi_at_1ghz / 1e9;
  return est;
}

// A "leaky part" table: same frequencies, higher minimum voltage and power
// at every point (the paper's process-variation scenario).
mach::FrequencyTable leaky_table() {
  const mach::FrequencyTable base = mach::p630_frequency_table();
  std::vector<mach::OperatingPoint> points;
  for (const auto& p : base.points()) {
    points.push_back({p.hz, p.volts * 1.05, p.watts * 1.20});
  }
  return mach::FrequencyTable(std::move(points));
}

// A slower machine generation: 600 MHz top, its own voltage/power points.
mach::FrequencyTable slow_table() {
  return mach::p630_frequency_table().capped_at(600 * MHz);
}

TEST(HeteroScheduler, ValidatesTableVector) {
  const FrequencyScheduler sched(mach::p630_frequency_table(), kLat, {});
  std::vector<ProcView> procs(2, ProcView{make_estimate(1.6, 1.0), false});
  std::vector<const mach::FrequencyTable*> wrong_size{nullptr};
  EXPECT_THROW(sched.schedule(procs, wrong_size, 1e9),
               std::invalid_argument);
  std::vector<const mach::FrequencyTable*> with_null{nullptr, nullptr};
  EXPECT_THROW(sched.schedule(procs, with_null, 1e9), std::invalid_argument);
}

TEST(HeteroScheduler, HomogeneousOverloadMatchesSingleTable) {
  const FrequencyScheduler sched(mach::p630_frequency_table(), kLat, {});
  const mach::FrequencyTable table = mach::p630_frequency_table();
  std::vector<ProcView> procs{{make_estimate(1.6, 0.06), false},
                              {make_estimate(1.6, 6.4), false},
                              {make_estimate(1.3, 10.4), true}};
  std::vector<const mach::FrequencyTable*> tables(procs.size(), &table);
  const auto a = sched.schedule(procs, 294.0);
  const auto b = sched.schedule(procs, tables, 294.0);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.decisions[i].hz, b.decisions[i].hz);
    EXPECT_DOUBLE_EQ(a.decisions[i].volts, b.decisions[i].volts);
  }
}

TEST(HeteroScheduler, ProcessVariationUsesPerPartVoltages) {
  const FrequencyScheduler sched(mach::p630_frequency_table(), kLat, {});
  const mach::FrequencyTable nominal = mach::p630_frequency_table();
  const mach::FrequencyTable leaky = leaky_table();
  std::vector<ProcView> procs(2, ProcView{make_estimate(1.6, 6.4), false});
  const auto r = sched.schedule(procs, {&nominal, &leaky}, 1e9);
  // Same epsilon frequency (same workload, same frequency grid)...
  EXPECT_DOUBLE_EQ(r.decisions[0].hz, r.decisions[1].hz);
  // ...but the leaky part needs its own, higher minimum voltage and burns
  // its own, higher power.
  EXPECT_GT(r.decisions[1].volts, r.decisions[0].volts);
  EXPECT_NEAR(r.decisions[1].watts, r.decisions[0].watts * 1.20, 1e-9);
}

TEST(HeteroScheduler, LeakyPartsAbsorbBudgetCutsFirst) {
  // Under a tight budget the leaky processor is the cheaper downgrade in
  // watts-per-loss terms only through the loss metric — both lose equally
  // per step here, so the tie-break picks the lower index; what matters is
  // that the *aggregate* uses per-part watts and lands under budget.
  const FrequencyScheduler sched(mach::p630_frequency_table(), kLat, {});
  const mach::FrequencyTable nominal = mach::p630_frequency_table();
  const mach::FrequencyTable leaky = leaky_table();
  std::vector<ProcView> procs(2, ProcView{make_estimate(1.6, 0.06), false});
  // Full-speed demand: 140 + 168 = 308 W.  Budget 280 W.
  const auto r = sched.schedule(procs, {&nominal, &leaky}, 280.0);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(r.total_cpu_power_w, 280.0);
  EXPECT_DOUBLE_EQ(r.total_cpu_power_w,
                   r.decisions[0].watts + r.decisions[1].watts);
}

TEST(HeteroScheduler, MixedGenerationsUseOwnFmax) {
  // A CPU-bound job on the slow machine is "at f_max" for *its* table: no
  // predicted loss, no pointless upgrade attempts.
  const FrequencyScheduler sched(mach::p630_frequency_table(), kLat, {});
  const mach::FrequencyTable fast = mach::p630_frequency_table();
  const mach::FrequencyTable slow = slow_table();
  std::vector<ProcView> procs(2, ProcView{make_estimate(1.6, 0.06), false});
  const auto r = sched.schedule(procs, {&fast, &slow}, 1e9);
  EXPECT_DOUBLE_EQ(r.decisions[0].hz, 1 * GHz);
  EXPECT_DOUBLE_EQ(r.decisions[1].hz, 600 * MHz);
  EXPECT_DOUBLE_EQ(r.decisions[1].predicted_loss, 0.0);
}

TEST(HeteroScheduler, MemoryBoundOnSlowMachineStillSaturates) {
  const FrequencyScheduler sched(mach::p630_frequency_table(), kLat, {});
  const mach::FrequencyTable slow = slow_table();
  // Very memory-bound: saturates below even the slow machine's 600 MHz.
  std::vector<ProcView> procs{{make_estimate(1.3, 20.0), false}};
  const auto r = sched.schedule(procs, {&slow}, 1e9);
  EXPECT_LT(r.decisions[0].hz, 600 * MHz);
  EXPECT_LT(r.decisions[0].predicted_loss, 0.04);
}

TEST(HeteroScheduler, HeapPass2MatchesScanReferenceHeterogeneous) {
  const mach::FrequencyTable fast = mach::p630_frequency_table();
  const mach::FrequencyTable slow = slow_table();
  const mach::FrequencyTable leaky = leaky_table();
  // Non-integer watts: running power totals round differently per order.
  const mach::FrequencyTable derated =
      mach::derated(mach::p630(), 800 * MHz, 0.913).freq_table;
  const mach::FrequencyTable* options[] = {&fast, &slow, &leaky, &derated};
  sim::Rng rng(314);
  for (int trial = 0; trial < 61; ++trial) {
    const std::size_t n = trial < 50 ? 6 : std::size_t{2} << (trial - 50);
    // Shared estimates on shared tables tie; so do estimate-less CPUs.
    const WorkloadEstimate shared[] = {
        make_estimate(rng.uniform(0.9, 2.0), rng.uniform(0.0, 15.0)),
        make_estimate(rng.uniform(0.9, 2.0), rng.uniform(0.0, 15.0))};
    std::vector<ProcView> procs(n);
    std::vector<const mach::FrequencyTable*> tables(n);
    for (std::size_t p = 0; p < n; ++p) {
      const double kind = rng.uniform();
      if (kind < 0.3) {
        procs[p].estimate = shared[rng.uniform_int(0, 1)];
      } else {
        procs[p].estimate =
            make_estimate(rng.uniform(0.9, 2.0), rng.uniform(0.0, 15.0));
        procs[p].estimate.valid = kind > 0.4;
      }
      procs[p].idle = rng.bernoulli(0.2);
      tables[p] = options[rng.uniform_int(0, 3)];
    }
    // One processor whose every predicted loss is NaN.
    WorkloadEstimate nan_loss;
    nan_loss.valid = true;
    nan_loss.alpha_inv = 1e-320;
    nan_loss.mem_time_per_instr = 0.0;
    procs[n / 2] = ProcView{nan_loss, false};
    // Between 90% of the all-minimum floor and the pass-1 demand, so most
    // trials run pass 2 and some are infeasible.
    double floor = 0.0;
    for (const auto* t : tables) floor += t->min_point().watts;
    const double demand = FrequencyScheduler(fast, kLat, {})
                              .schedule(procs, tables, 1e12)
                              .total_cpu_power_w;
    const double budget = rng.uniform(0.9 * floor, demand);
    for (const auto variant :
         {SchedulerVariant::kTwoPass, SchedulerVariant::kContinuous}) {
      for (const bool explain : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " variant "
                     << static_cast<int>(variant) << " explain " << explain);
        FrequencyScheduler::Options opts;
        opts.variant = variant;
        opts.explain = explain;
        expect_pass2_matches_scan(FrequencyScheduler(fast, kLat, opts), procs,
                                  tables, budget);
      }
    }
  }
}

}  // namespace
}  // namespace fvsst::core
