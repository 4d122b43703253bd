// replay.h - Daemon-free replays of the layers the daemons call
// internally, timed in isolation on a fresh cluster built from the same
// seeded inputs.
#pragma once

#include <cstddef>
#include <vector>

#include "scenario.h"

namespace perfbench {

struct ReplayResult {
  std::size_t rounds = 0;      ///< Scheduling rounds replayed.
  /// One Cluster::cpu_power_w() over every node (median of batches).
  double power_query_s = 0.0;
  /// StepPool::run over Shard::advance_to on the sampling lattice, per
  /// round, on 1 thread and (tree only, else 0) on the workload's parallel
  /// step threads.
  double model_s_per_round_1t = 0.0;
  double model_s_per_round_mt = 0.0;
  /// Tree workload only (0 on the others, whose daemons have no leaves):
  /// serial leaf close per round, i.e. SimCoreSampler collect/end_interval,
  /// IpcEstimator::update, pass-1 FrequencyScheduler::schedule and the
  /// shard summary, over every shard.
  double leaf_close_s_per_round = 0.0;
  /// Host cost of each pass-1 schedule() call (one per shard per round).
  std::vector<double> schedule_call_s;
  /// ShardSummary::merge up the tree, compute_cap_profile, split_quota
  /// down and apply_cap_profile per shard, per round.
  double summary_tree_s_per_round = 0.0;
};

/// Runs every replay at the workload's size.  `budget_w` is the budget
/// the cap profile is computed against.
ReplayResult run_replays(const Inputs& in, double budget_w);

}  // namespace perfbench
