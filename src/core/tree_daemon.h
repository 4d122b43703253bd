// tree_daemon.h - The hierarchical (sharded) cluster daemon: a coordinator
// tree over contiguous node shards, scaling the paper's global scheduler
// to O(10k-100k) nodes.
//
// The flat ClusterDaemon keeps one agent, two channel endpoints and one
// coordinator mailbox slot per *node* — O(N) state at a single actor and
// O(N) messages per round through one pair of channels.  TreeDaemon
// restructures the same control loop as a three-tier tree:
//
//   leaf (rack)       one coordinator per Shard (cluster/shard.h): samples
//                     only its slab's CPUs, runs the paper's pass 1
//                     locally, and ships one *compressed summary*
//                     (core/summary_tree.h) upward per round;
//   aggregate (row)   merges its child leaves' summaries (exact integer
//                     sums) and forwards one summary per round;
//   root (datacenter) folds the aggregate summaries, computes the cap
//                     profile under the global budget — the histogram
//                     analogue of the paper's pass 2 — and pushes
//                     (cap, promotion-quota) splits back down the tree.
//
// No actor ever touches more than O(sqrt N) children or O(slab) CPUs.
// Protocol machinery from the flat daemon carries over at every tier:
// every downward message is epoch-fenced (cluster::EpochFence per leaf),
// both tiers' links run through cluster::Transport sessions (reliable
// mode: sequenced, acked via piggyback on the next upward summary,
// retransmitted, epoch-fenced) that journal every lost, retransmitted,
// expired and corrupt message, a standby root can take over with a
// deterministic takeover delay, and a leaf that stops hearing grants
// drops its shard to the autonomous budget/N fail-safe frequency, which
// follows every budget change until grants return.
//
// Determinism: tree rounds use fixed link latency (no jitter), integer
// summary aggregation and the closed-form cap profile, so the journal is
// bit-identical across shard counts and thread counts — see
// summary_tree.h for why.  Per-shard journal detail (which *does*
// depend on the shard count) is emitted only when
// TreeDaemonConfig::journal_topology is set, the same opt-in pattern the
// flat daemon uses for transport-level events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/channel.h"
#include "cluster/cluster.h"
#include "cluster/election.h"
#include "cluster/parallel_stepper.h"
#include "cluster/shard.h"
#include "cluster/transport.h"
#include "core/control_loop.h"
#include "core/scheduler.h"
#include "core/summary_tree.h"
#include "power/budget.h"
#include "simkit/event_log.h"
#include "simkit/event_queue.h"
#include "simkit/fault_plan.h"
#include "simkit/monitor.h"
#include "simkit/telemetry.h"

namespace fvsst::core {

/// One-hop link latency of the tree (leaf->aggregate, aggregate->root,
/// and the two downward hops).  Fixed, with no jitter, so round timing
/// cannot depend on the shard count (the tree determinism guarantee).
inline constexpr double kTreeLinkLatencyS = 100e-6;
/// Root silence, in units of T, before the standby root claims.
inline constexpr double kTreeTakeoverFactor = 3.0;

struct TreeDaemonConfig {
  double t_sample_s = 0.010;          ///< The paper's dispatch interval t.
  int schedule_every_n_samples = 10;  ///< T = n * t.
  /// Leaf shards; 0 picks ~sqrt(nodes) (ShardMap::auto_shards).
  std::size_t shards = 0;
  /// Aggregate-tier fan-in; 0 picks ~sqrt(shards).
  std::size_t aggregates = 0;
  /// Inert (see AdvanceMode); nothing reads it.
  AdvanceMode advance_mode = AdvanceMode::kEvent;
  /// Worker threads for the shard sweeps (1 = serial).
  int step_threads = 1;
  IdleSignal idle_signal = IdleSignal::kOsSignal;
  FrequencyScheduler::Options scheduler;
  cluster::TransportMode transport = cluster::TransportMode::kDatagram;
  /// Enable the standby root (takes over after kTreeTakeoverFactor T of
  /// root silence).
  bool standby_root = false;
  /// Shard fail-safe: a leaf silent for this many T drops its slab to the
  /// budget/N share frequency.  0 disables.
  double failsafe_factor = 0.0;
  const sim::FaultPlan* fault_plan = nullptr;
  sim::EventLog* journal = nullptr;
  /// Online monitor (not owned; may be null).  Fed at every summary
  /// instant: aggregation_lag_s, over_budget_w, since_round_s,
  /// failsafe_frac, messages_lost, retransmits and journal_dropped.
  sim::monitor::Monitor* monitor = nullptr;
  /// Emit per-shard / per-tier journal detail (aggregation events with
  /// shard ids, mailbox depths and summary bytes).  Off by default: the
  /// detail depends on the shard count, and default journals must not.
  bool journal_topology = false;
};

/// The hierarchical coordinator tree.  Construction requires a
/// homogeneous cluster (one shared operating-point table): the compressed
/// histogram is indexed by table point, so mixed tables have no shared
/// bucket space — heterogeneous clusters keep the flat daemon.
class TreeDaemon {
 public:
  TreeDaemon(sim::Simulation& sim, cluster::Cluster& cluster,
             const mach::FrequencyTable& table, power::PowerBudget& budget,
             TreeDaemonConfig config);
  ~TreeDaemon();

  TreeDaemon(const TreeDaemon&) = delete;
  TreeDaemon& operator=(const TreeDaemon&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t aggregate_count() const { return agg_children_.size(); }
  std::size_t rounds() const { return rounds_applied_; }
  cluster::Epoch epoch() const { return epoch_; }
  double last_lag_s() const { return last_lag_s_; }
  std::size_t summaries_sent() const { return summaries_sent_; }
  std::size_t summary_bytes_sent() const { return summary_bytes_sent_; }
  std::size_t failsafe_shard_count() const;
  const cluster::Shard& shard(std::size_t s) const { return shards_[s]; }
  sim::MetricRegistry& telemetry() { return telemetry_; }

 private:
  struct Leaf {
    std::size_t id = 0;
    std::unique_ptr<SimCoreSampler> sampler;
    std::unique_ptr<IpcEstimator> estimator;
    std::vector<ProcView> views;
    std::vector<std::uint16_t> desired;   ///< Pass-1 indices, per CPU.
    cluster::EpochFence fence;
    std::vector<IntervalSample> interval;  ///< Reused end_interval buffer.
    double last_grant_t = 0.0;
    bool failsafe = false;
    double failsafe_hz = 0.0;  ///< Share the fail-safe last applied.
  };

  struct RootState {
    int id = 0;           ///< 0 = primary, 1 = standby.
    bool leader = false;
    /// Latest summary per aggregate child (the warm mailbox both roots
    /// keep, so a takeover decides from shadowed state immediately).
    std::vector<ShardSummary> agg_mail;
    std::vector<char> agg_have;
    std::vector<std::uint64_t> agg_above;  ///< Scratch: per-agg above-cap.
    double last_decide_t = 0.0;
    bool any_mail() const {
      for (char h : agg_have)
        if (h) return true;
      return false;
    }
  };

  /// Downward grant payload (travels inside the delivery closure; the
  /// Frame carries only the protocol envelope).
  struct Grant {
    std::uint64_t round = 0;
    /// Instant the decision answers: the round's summary instant, or the
    /// budget change that triggered it.
    double sample_t = 0.0;
    std::uint32_t cap = 0;   ///< Cap index c*.
    std::uint64_t quota = 0; ///< Promotions granted to this subtree.
    bool feasible = true;
  };

  // --- Round pipeline (times relative to the summary instant t_k) ------
  void arm_summary_wake();           // next summary on the tick lattice
  void summary_wake();               // the summary instant
  void summary_instant(double now);  // t_k: close intervals, send up
  void leaf_close_interval(Leaf& leaf, double now);
  void agg_flush(std::size_t agg);   // t_k + L: merge, forward up
  void root_flush();                 // t_k + 2L: decide, fan down
  void root_decide(RootState& root, CycleTrigger trigger);
  void agg_receive_down(std::size_t agg, const Grant& grant,
                        const cluster::Frame& frame);
  void leaf_apply(std::size_t leaf_id, const Grant& grant,
                  const cluster::Frame& frame);

  // --- Protocol helpers -------------------------------------------------
  /// Why `leaf`'s coordinator is down at `now` — "coordinator_crash" or
  /// "partition", crash first as the flat daemon checks — or nullptr
  /// while it is up.
  const char* leaf_down(std::size_t leaf, double now) const;
  bool node_crashed(std::size_t node, double now) const;
  bool root_down(const RootState& root, double now) const;
  void maybe_take_over(double now);
  void failsafe_check(double now);
  /// Sets the live nodes' cores of `leaf`'s shard to `hz`, the fail-safe
  /// budget/N share.
  void failsafe_apply(Leaf& leaf, double hz, double now);
  /// Moves every fail-safe shard whose coordinator is up to the current
  /// budget's share.
  void failsafe_follow_budget(double now);
  double failsafe_hz() const;
  void monitor_sample(double now);

  sim::Simulation& sim_;
  cluster::Cluster& cluster_;
  power::PowerBudget& budget_;
  TreeDaemonConfig config_;
  const mach::FrequencyTable& table_;

  cluster::ShardMap shard_map_;
  std::vector<cluster::Shard> shards_;
  std::vector<Leaf> leaves_;
  /// agg_children_[a] = leaf ids under aggregate a (contiguous range).
  std::vector<std::vector<std::size_t>> agg_children_;
  std::vector<std::size_t> leaf_agg_;   ///< Aggregate owning each leaf.
  /// Per-aggregate mailbox: the latest summary per child leaf (needed at
  /// down time to split the promotion quota by child demand).
  std::vector<std::vector<ShardSummary>> agg_child_mail_;
  std::vector<std::vector<char>> agg_child_have_;
  std::vector<std::uint64_t> agg_above_scratch_;  ///< Per-child above-cap.

  RootState primary_;
  RootState standby_;
  cluster::Epoch epoch_ = 1;
  cluster::FailureDetector root_watch_{1.0};

  // Four physical hops, each its own channel + transport session layer.
  cluster::Channel up_leaf_channel_, up_root_channel_;
  cluster::Channel down_root_channel_, down_leaf_channel_;
  std::unique_ptr<cluster::Transport> up_leaf_, up_root_;
  std::unique_ptr<cluster::Transport> down_root_, down_leaf_;

  std::unique_ptr<cluster::StepPool> step_pool_;
  std::unique_ptr<FrequencyScheduler> scheduler_;
  sim::MetricRegistry telemetry_;
  sim::TimeSeries* power_trace_ = nullptr;

  /// Integer microwatts per table point (the summary compression basis).
  std::vector<MicroWatts> pw_uw_;
  std::size_t total_cpus_ = 0;
  double start_t_ = 0.0;

  /// Tick-lattice origin (start + t); summary wakes fire at
  /// grid_origin_ + (next_summary_k_ - 1) * t, the exact arithmetic of
  /// Core's sampling grid.
  double grid_origin_ = 0.0;
  std::uint64_t next_summary_k_ = 0;
  sim::EventId summary_wake_event_ = 0;

  std::uint64_t round_seq_ = 0;        ///< Summary instants so far.
  std::size_t rounds_applied_ = 0;
  std::uint64_t last_applied_round_ = 0;
  ShardSummary totals_scratch_;
  double last_sample_t_ = 0.0;
  /// Latest applied grant's apply time minus the instant it answers.
  double last_lag_s_ = 0.0;
  std::size_t summaries_sent_ = 0;
  std::size_t summary_bytes_sent_ = 0;
  std::size_t agg_flushed_ = 0;        ///< Aggregates flushed this round.
  bool protocol_visible_ = false;

  // Interned monitor inputs (resolved at construction when a monitor is
  // attached; the flat daemon's idiom).
  sim::monitor::InputId mon_lag_, mon_over_budget_, mon_since_round_,
      mon_failsafe_frac_, mon_messages_lost_, mon_retransmits_,
      mon_journal_dropped_;
  double mon_last_round_t_ = 0.0;
  std::size_t mon_last_messages_lost_ = 0;
  std::size_t mon_last_retransmits_ = 0;
  std::size_t mon_last_dropped_ = 0;
};

}  // namespace fvsst::core
