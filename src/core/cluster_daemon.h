// cluster_daemon.h - Distributed fvsst for clusters.
//
// The paper's prototype ran on a single SMP; "the development of a
// prototype for the cluster environment remains as future work."  This is
// that future work, built to the design the paper sketches: per-node agents
// gather counter data locally and a global scheduler enforces the single,
// global power limit, with the inter-node communication the paper's large
// T amortises modelled as explicit message latency.
//
//   node agent  --(summary, latency)-->  global scheduler
//   node agent  <--(freq vector, latency)--  global scheduler
//
// Both halves are built from the shared control-loop stages: every node
// agent is a SimCoreSampler + IpcEstimator pair whose views are shipped as
// the summary message, and the global side is a core::Coordinator — a
// ControlLoop whose Sampler is the summary mailbox and whose Actuator fans
// settings back out over the down channel.
//
// The global scheduler runs on the paper's two triggers: the periodic timer
// and a power-budget change.  Because summaries and settings both cross the
// network, there is a measurable delay between a supply failure and cluster
// compliance — bench_abl_response_time compares it against the supply's
// cascade tolerance DT.
//
// The coordinator role itself is made survivable (see core/coordinator.h):
// an optional standby shadows the summary traffic and elects itself over
// epoch-fenced heartbeats when the leader goes silent, every settings
// message carries the sender's epoch so nodes reject grants from a deposed
// coordinator, and a node-local fail-safe drops a node to its budget/N
// frequency when no coordinator has been heard from at all.  All of it is
// off by default: with FailoverConfig at defaults and no coordinator
// faults in the plan, the daemon is bit-for-bit the single-coordinator
// scheduler (messages, randomness and journal included).
//
// Every message — summaries up, settings and heartbeats down — crosses a
// cluster::Transport, which journals each loss, retransmission, expiry
// and corrupt frame; the daemon reports the protocol's own losses (a
// crashed or partitioned coordinator, a crashed node) through the same
// transports, so its loss and corruption counts are theirs.
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
#include "core/coordinator.h"
#include "core/scheduler.h"
#include "power/budget.h"
#include "simkit/telemetry.h"
#include "simkit/time_series.h"

namespace fvsst::core {

/// Distributed scheduler configuration.
struct ClusterDaemonConfig {
  double t_sample_s = 0.010;         ///< Node-local sampling period.
  int schedule_every_n_samples = 10; ///< Global period T = n * t.
  FrequencyScheduler::Options scheduler;
  double channel_latency_s = 200e-6; ///< One-way network latency.
  double channel_jitter_s = 50e-6;
  /// Message-loss probability on each channel direction.  The protocol is
  /// loss-tolerant: the global round runs on its own timer from the
  /// freshest summaries it has, and a lost settings message is repaired by
  /// the next round.
  double channel_loss_probability = 0.0;
  IdleSignal idle_signal = IdleSignal::kOsSignal;
  /// Decision journal (not owned; must outlive the daemon).  Records the
  /// global scheduler's rounds plus deferred per-node applies (actuation
  /// events with stage = "node_apply") and degraded modes; the transports
  /// record the message events into it.
  sim::EventLog* journal = nullptr;
  /// Injected faults (not owned; must outlive the daemon).  Cluster kinds
  /// consulted here: kNodeCrash (agent stops sampling/summarising and
  /// arriving settings are lost), kStaleSummaries (agent ships frozen
  /// views), kChannelLoss (per-node loss bursts on both directions),
  /// kCoordinatorCrash (a coordinator is down until the window closes,
  /// then recovers from its stable store) and kPartition (every message to
  /// or from a coordinator is dropped).  Null or empty: no injection,
  /// bit-for-bit identical behaviour.
  const sim::FaultPlan* fault_plan = nullptr;
  /// Coordinator high availability (standby election, epoch fencing,
  /// node-local fail-safe).  Defaults keep everything off.
  FailoverConfig failover;
  /// Worker threads for the deterministic parallel node stepper.  At every
  /// summary instant (every n ticks) the live nodes' core models are
  /// advanced to the tick time on a fixed partition of this many threads
  /// *before* the serial, node-ordered commits run.  Any value produces
  /// bit-identical journals, telemetry and schedules to 1 (the default):
  /// parallelism only relocates the pure per-core state advance, never the
  /// ordered event processing, and a lattice instant is a sync boundary
  /// of every live core whoever advances it.
  int step_threads = 1;
  /// Inert (see AdvanceMode); nothing reads it.
  AdvanceMode advance_mode = AdvanceMode::kEvent;
  /// Online monitor (not owned; must outlive the daemon).  The daemon
  /// feeds the cluster rule inputs (over_budget_w, failsafe_frac,
  /// stale_frac, failover_breach, since_round_s, messages_lost,
  /// journal_dropped) and evaluates once per summary instant (every n
  /// ticks).  Evaluation runs on the daemon's own clock, not the
  /// coordinators', so alerting keeps working while every coordinator is
  /// crashed (that silence is itself a rule).  Observation only: null
  /// leaves the run bit-for-bit unchanged.
  sim::monitor::Monitor* monitor = nullptr;
  /// Replaces the coordinators' default SchedulerPolicyStage when set (see
  /// core::PolicyStageFactory).  Both coordinators share the factory, and
  /// a crash-restarted coordinator rebuilds its stage through it, so the
  /// policy in force survives failover.  Null keeps the paper's scheduler.
  PolicyStageFactory policy_factory;
  /// Transport mode for coordinator <-> node messaging (see
  /// cluster/transport.h).  kDatagram keeps the fire-and-forget protocol
  /// and is byte-identical to runs built before the session layer existed;
  /// kReliable sequences settings, piggybacks cumulative acks on the
  /// summaries, retransmits unacked settings with bounded backoff and
  /// suppresses duplicates, all epoch-fenced across failover.  The four
  /// transport-level channel faults (kChannelReorder, kChannelDuplicate,
  /// kChannelDelaySpike, kChannelCorrupt) act in both modes.
  cluster::TransportMode transport = cluster::TransportMode::kDatagram;
};

/// Global scheduler plus one agent per node.
///
/// Time advance: every core carries the sampling lattice
/// (Core::set_sampling_grid), so a node agent reads its cores only when its
/// summary is due.  One merged clock still fires every tick for the
/// per-tick protocol state (crash edges, fail-safe clocks, live-tick
/// counts, the monitor's every-n sample), but advances no core.
///
/// Heterogeneous clusters are handled natively: each processor is
/// scheduled against its own node's operating-point table (paper Sec. 5's
/// process-variation case and mixed machine generations); `table` is only
/// the scheduler's default/validation table.
class ClusterDaemon {
 public:
  ClusterDaemon(sim::Simulation& sim, cluster::Cluster& cluster,
                const mach::FrequencyTable& table, power::PowerBudget& budget,
                ClusterDaemonConfig config);
  ~ClusterDaemon();

  ClusterDaemon(const ClusterDaemon&) = delete;
  ClusterDaemon& operator=(const ClusterDaemon&) = delete;

  /// Global scheduling rounds completed (across both coordinators; a
  /// coordinator's count survives its own crash via the stable store).
  std::size_t rounds() const {
    return static_cast<std::size_t>(primary_->rounds() +
                                    (standby_ ? standby_->rounds() : 0));
  }

  /// Result of the latest global round (from the current leader).
  const ScheduleResult& last_result() const {
    return leader_coordinator().loop().last_result();
  }

  /// Simulated time of the most recent budget-triggered round (< 0: none).
  double last_budget_trigger_time() const { return last_trigger_time_; }

  /// Simulated time when the last budget-triggered settings finished
  /// applying on every node (< 0 until it happens).  The difference to
  /// last_budget_trigger_time() is the cluster's response latency.  A node
  /// whose triggered settings were lost closes its slot with the next
  /// settings message it accepts (the protocol's repair round), so a lost
  /// message delays the measurement instead of wedging it open forever.
  double last_trigger_applied_time() const { return last_applied_time_; }

  /// Trace of aggregate cluster CPU power as the scheduler believes it
  /// (updated when settings are applied).
  const sim::TimeSeries& scheduled_power_trace() const { return *power_trace_; }

  /// Summary messages lost on the up (agents -> global) channel so far.
  std::size_t summaries_dropped() const { return up_channel_.dropped(); }

  /// Settings messages lost on the down (global -> agents) channel so far.
  /// Each loss leaves one node on stale settings until the next round.
  std::size_t settings_dropped() const { return down_channel_.dropped(); }

  /// Messages lost on either transport: channel and fault-shim drops plus
  /// the protocol's own losses (the journal's message_lost events).
  std::size_t messages_lost() const {
    return up_transport_->messages_lost() + down_transport_->messages_lost();
  }

  /// Settings messages a node's epoch fence rejected (grants from a
  /// deposed coordinator; the journal's settings_rejected events).
  std::size_t settings_rejected() const { return settings_rejected_; }

  /// Settings retransmissions performed by the reliable transport (the
  /// journal's message_retransmit events); 0 in datagram mode.
  std::size_t messages_retransmitted() const {
    return down_transport_->retransmits() + up_transport_->retransmits();
  }

  /// Frames the reliable transport's duplicate suppression swallowed (the
  /// journal's message_duplicate events).
  std::size_t messages_duplicate() const {
    return down_transport_->duplicates_suppressed() +
           up_transport_->duplicates_suppressed();
  }

  /// Tracked settings the transport gave up on — retransmit budget
  /// exhausted or epoch-fenced (the journal's message_expired events).
  std::size_t messages_expired() const {
    return down_transport_->expired() + up_transport_->expired();
  }

  /// Frames dropped because their checksum no longer matched (the
  /// channel_corrupt fault; the journal's message_corrupt events).
  std::size_t messages_corrupt() const {
    return up_transport_->messages_corrupt() +
           down_transport_->messages_corrupt();
  }

  const cluster::Transport& up_transport() const { return *up_transport_; }
  const cluster::Transport& down_transport() const { return *down_transport_; }

  /// Nodes currently treated as silent (accounted at f_max).
  std::size_t stale_node_count() const {
    return leader_coordinator().stale_node_count();
  }

  /// Nodes currently in the coordinator-silence fail-safe (running at
  /// their autonomous budget/N frequency).
  std::size_t failsafe_node_count() const;

  /// Whether `node` was crashed (a node_crash window of the fault plan
  /// open) at the latest tick.
  bool node_crashed(std::size_t node) const {
    return node_crashed_.at(node) != 0;
  }

  /// The current leader's epoch (what nodes' fences converge to).
  cluster::Epoch epoch() const { return leader_coordinator().epoch(); }

  /// The global scheduler's engine (latest mailbox views),
  /// from the current leader.
  const ControlLoop& loop() const { return leader_coordinator().loop(); }

  const Coordinator& primary() const { return *primary_; }
  /// The standby coordinator; null unless failover.standby was configured.
  const Coordinator* standby() const { return standby_.get(); }
  Coordinator* mutable_primary() { return primary_.get(); }

  sim::MetricRegistry& telemetry() { return telemetry_; }
  const sim::MetricRegistry& telemetry() const { return telemetry_; }

 private:
  /// One per node: the local half of the distributed daemon, built from the
  /// same stages the SMP daemon uses.
  struct NodeAgent {
    NodeAgent(cluster::Cluster& cluster,
              std::vector<cluster::ProcAddress> procs,
              const mach::MemoryLatencies& latencies,
              IpcEstimator::Options options, double start_time)
        : sampler(cluster, std::move(procs),
                  SimCoreSampler::ResetPolicy::kOnElapsed, start_time),
          estimator(latencies, options) {
      views.resize(sampler.cpu_count());
    }

    SimCoreSampler sampler;
    IpcEstimator estimator;
    /// Latest local views; shipped wholesale as the summary message.
    std::vector<ProcView> views;
    /// The buffer the last summary rode in: reused for the next one once
    /// no in-flight delivery holds it, replaced otherwise.
    std::shared_ptr<std::vector<ProcView>> summary;
    std::size_t first_cpu = 0;  ///< Flattened index of this node's cpu 0.
    int samples = 0;
  };

  const Coordinator& leader_coordinator() const {
    if (standby_ && standby_->leader() && !primary_->leader()) {
      return *standby_;
    }
    return *primary_;
  }

  Coordinator::Wiring make_wiring(int id, bool initially_leader,
                                  const mach::FrequencyTable& table);
  void agents_tick();
  /// Tracks node crash edges at this tick, suspending or resuming the
  /// crashing or restarting nodes' grids.
  void crash_edges(double now);
  void node_tick(std::size_t node);
  void node_failsafe_tick(std::size_t node);
  double node_failsafe_hz(std::size_t node) const;
  void node_send_summary(std::size_t node);
  void deliver_summary(std::size_t node, const std::vector<ProcView>& summary,
                       const cluster::Frame& frame);
  void global_round(CycleTrigger trigger);
  void monitor_tick();
  /// Feeds the cluster rule inputs and evaluates the monitor (one summary
  /// instant's worth); no-op without a configured monitor.
  void monitor_sample();
  void send_heartbeat(Coordinator& from);
  void deliver_heartbeat(const cluster::Envelope& envelope,
                         const std::vector<double>& grants, double budget_w);
  void fan_out(const Coordinator& from, const ScheduleResult& result,
               bool budget_triggered);
  void apply_on_node(std::size_t node,
                     const std::shared_ptr<const std::vector<double>>& freqs,
                     const cluster::Frame& frame);
  void journal_duplicate(int node, std::uint64_t seq, std::uint64_t applied,
                         const char* direction);

  sim::Simulation& sim_;
  cluster::Cluster& cluster_;
  power::PowerBudget& budget_;
  ClusterDaemonConfig config_;
  cluster::Channel up_channel_;    ///< Agents -> global.
  cluster::Channel down_channel_;  ///< Global -> agents.
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  /// Per flattened processor: its node's operating-point table.
  std::vector<const mach::FrequencyTable*> proc_tables_;
  /// Owned copy of the scheduler's default table: a coordinator rebuilding
  /// its engine on restart must not chase the caller's (possibly
  /// temporary) table argument.
  mach::FrequencyTable default_table_;
  sim::MetricRegistry telemetry_;
  /// The failover protocol is in play (failover enabled or coordinator
  /// faults planned): gates every new journal field/event and the run-meta
  /// additions, so default runs keep byte-identical journals.
  bool protocol_visible_ = false;
  /// The session layer is in play (reliable mode selected or transport
  /// faults planned): gates the transport run-meta fields and the seq
  /// field on node applies, so default datagram runs keep byte-identical
  /// journals.
  bool transport_visible_ = false;
  /// Bounded-convergence promise recorded in run_meta when
  /// transport_visible_: every live node re-applies settings within this
  /// many seconds of the last channel disturbance (checked by
  /// JournalChecker).
  double convergence_window_s_ = 0.0;
  std::unique_ptr<cluster::Transport> up_transport_;
  std::unique_ptr<cluster::Transport> down_transport_;
  std::unique_ptr<Coordinator> primary_;
  std::unique_ptr<Coordinator> standby_;  ///< Null unless configured.
  sim::EventId agents_tick_event_ = 0;  ///< The merged per-node tick clock.
  sim::EventId global_event_ = 0;   ///< The global scheduler's own timer.
  sim::EventId monitor_event_ = 0;  ///< Heartbeat/election clock (standby).
  /// The FIRST tick instant (ctor time + t); tick m fires at grid_origin_
  /// + (m-1) * t_sample_s in that exact floating-point form (the event
  /// queue's re-arm expression), so ticks land on the cores' lattice.
  double grid_origin_ = 0.0;
  std::uint64_t ticks_ = 0;  ///< Clock ticks so far (the current tick's number).
  /// Worker pool for the parallel pre-sync; null when step_threads <= 1.
  std::unique_ptr<cluster::StepPool> step_pool_;
  /// Locality-aware partition for the pre-sync: one contiguous node slab
  /// per worker (cluster/shard.h).  Built only when step_pool_ exists.
  std::unique_ptr<cluster::ShardMap> shard_map_;
  std::vector<cluster::Shard> shards_;
  /// Per node: crashed at the latest tick.  A crashed node's cores have
  /// their grids suspended and must gain no sync boundary, so this is also
  /// the parallel pre-sync's skip mask.
  std::vector<char> node_crashed_;
  std::size_t crashed_count_ = 0;  ///< Nodes flagged in node_crashed_.
  /// The buffer the latest round's grants rode in, shared by every node's
  /// deliver closure: reused once no in-flight delivery or retransmit slot
  /// holds it, replaced otherwise.
  std::shared_ptr<std::vector<double>> grants_;
  std::vector<IntervalSample> interval_scratch_;
  double last_trigger_time_ = -1.0;
  double last_applied_time_ = -1.0;
  std::size_t pending_trigger_applies_ = 0;
  /// Per node: still owes an apply for the latest budget-triggered round.
  std::vector<char> pending_apply_;
  sim::TimeSeries* power_trace_ = nullptr;  ///< Registry-owned.
  std::size_t settings_rejected_ = 0;
  // --- Node-side protocol state (each node's own tiny piece of the
  // failover machinery; lives here because the daemon *is* the nodes'
  // receive path). ---
  std::vector<cluster::EpochFence> node_fence_;    ///< Per node.
  std::vector<double> node_last_contact_;          ///< Coordinator heard at.
  std::vector<char> node_failsafe_;                ///< In budget/N mode.
  std::vector<double> node_failsafe_hz_;           ///< Current fail-safe grant.
  // --- Monitor state (unused when config_.monitor is null). ---
  /// Compliance deadline after a budget drop (the run_meta
  /// failover_window_s value); the failover_breach rule input trips when a
  /// triggered round's applies are still pending past it.
  double failover_window_s_ = 0.0;
  /// Round count at the last evaluate, to timestamp coordinator progress:
  /// since_round_s grows from the last evaluate that saw a fresh round.
  std::size_t mon_rounds_seen_ = 0;
  double mon_last_round_time_ = 0.0;
  std::size_t mon_last_messages_lost_ = 0;
  std::size_t mon_last_dropped_ = 0;
  std::size_t mon_last_retransmits_ = 0;
  sim::monitor::InputId mon_over_budget_;
  sim::monitor::InputId mon_failsafe_frac_;
  sim::monitor::InputId mon_stale_frac_;
  sim::monitor::InputId mon_failover_breach_;
  sim::monitor::InputId mon_since_round_;
  sim::monitor::InputId mon_messages_lost_;
  sim::monitor::InputId mon_journal_dropped_;
  sim::monitor::InputId mon_retransmits_;
};

}  // namespace fvsst::core
