// coordinator.h - The cluster's global-scheduler role, made survivable.
//
// PR 3 could crash node agents but never the coordinator — the one
// remaining single point of failure in the paper's cluster design.  This
// module factors the global-scheduler role out of ClusterDaemon into a
// Coordinator object so the daemon can host two of them (a primary and a
// shadowing standby) and so the role itself is crash-safe:
//
//   * Leadership and epochs.  Exactly one coordinator should lead; every
//     settings/heartbeat message it sends is stamped with its epoch
//     (cluster::Epoch).  A standby that stops hearing leader heartbeats
//     elects itself after a deterministic, seeded timeout and announces a
//     strictly higher epoch; nodes fence off anything older, so a deposed
//     leader can never over-grant power (see cluster/election.h).
//
//   * Crash-safe state.  Every round appends a grant record to the
//     coordinator's StableStore (its private "disk"), and a checksummed
//     snapshot of (epoch, round, budget, last grants, mailbox freshness)
//     is saved every few rounds, truncating the record log.  A restarted
//     coordinator loses all volatile state (mailbox, engine) and recovers
//     snapshot + replay, then waits one period T for fresh summaries
//     before scheduling again — so it resumes from its pre-crash grants
//     instead of cold-starting into a power spike.
//
//   * Shadowing.  A passive standby consumes the same summary traffic as
//     the leader (its mailbox stays fresh) and records the grants the
//     leader replicates over heartbeats, so takeover needs no warm-up.
//
// The Coordinator owns the mailbox, the ControlLoop engine and the
// silent-node accounting; the ClusterDaemon keeps owning the node agents,
// the channels, and all node-side state (epoch fences, the node-local
// fail-safe, response-latency accounting).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/election.h"
#include "core/control_loop.h"
#include "core/scheduler.h"

namespace fvsst::core {

/// Leader heartbeat period, in units of the global period T.
inline constexpr double kHeartbeatFactor = 0.5;
/// Maximum deterministic election jitter on top of the takeover timeout,
/// in T.
inline constexpr double kTakeoverJitterFactor = 0.5;
/// A coordinator snapshots its state every this many rounds.
inline constexpr std::uint64_t kSnapshotEveryRounds = 4;
/// Seed for the deterministic election jitter.
inline constexpr std::uint64_t kElectionSeed = 0x5eed;
/// A node silent for more than this many T is pinned at f_max in the
/// coordinator's power accounting (the conservative assumption that keeps
/// the global budget honoured when its true draw is unknown).
inline constexpr double kSilentNodeFactor = 3.0;

/// Coordinator high-availability knobs.  Timing knobs are in units of the
/// global period T; the defaults keep the whole feature off, which is
/// bit-for-bit identical to the single-coordinator daemon.
struct FailoverConfig {
  /// Build a standby coordinator that shadows summaries and elects itself
  /// when leader heartbeats stop.
  bool standby = false;
  /// Leader silence before a standby starts an election, in T.
  double takeover_factor = 3.0;
  /// A node that has seen no coordinator settings/heartbeat for this many
  /// T autonomously drops to the frequency that keeps budget/N per node
  /// (0: disabled).  Honours the global budget through total coordinator
  /// loss — the budget signal itself is a hardware broadcast (paper
  /// Sec. 2), so nodes know the post-failure limit without a coordinator.
  double node_failsafe_factor = 0.0;

  /// Any behaviour-changing part of the protocol on?
  bool enabled() const { return standby || node_failsafe_factor > 0.0; }
};

/// One scheduling round's durable record: what was granted, under which
/// budget, in which epoch.
struct GrantRecord {
  double t = 0.0;
  cluster::Epoch epoch = 0;
  double budget_w = 0.0;
  std::uint64_t round = 0;
  std::vector<double> grants_hz;  ///< Per flattened CPU.
};

/// The coordinator state worth surviving a crash: enough to resume
/// scheduling from the pre-crash operating point instead of cold-starting.
struct CoordinatorSnapshot {
  cluster::Epoch epoch = 0;
  std::uint64_t round = 0;
  double taken_at = 0.0;
  double budget_w = 0.0;
  std::vector<double> grants_hz;        ///< Last grants, per flattened CPU.
  std::vector<double> last_summary_at;  ///< Mailbox freshness, per node.

  /// Serialises to a self-checking blob (FNV-1a checksum over the body).
  std::string encode() const;
  /// Decodes what encode() wrote; nullopt on length/checksum mismatch —
  /// a torn or corrupted snapshot is discarded, never half-applied.
  static std::optional<CoordinatorSnapshot> decode(const std::string& blob);
};

/// A coordinator's private durable store: the latest checksummed snapshot
/// plus every grant record appended since (a write-ahead log the snapshot
/// truncates).  Recovery = decode snapshot, then replay the log in order.
class StableStore {
 public:
  /// Saves `snap` and truncates the grant log (records are folded in).
  void save_snapshot(const CoordinatorSnapshot& snap);

  void append_grant(GrantRecord record);

  struct Recovery {
    bool had_snapshot = false;   ///< A snapshot blob existed.
    bool checksum_ok = false;    ///< ... and decoded cleanly.
    std::size_t replayed = 0;    ///< Grant records applied on top.
    CoordinatorSnapshot state;   ///< The recovered state (default-empty on
                                 ///< a cold start with nothing stored).
  };

  /// Rebuilds the freshest consistent state: snapshot (if it verifies)
  /// plus the grant log replayed in append order.  A corrupt snapshot is
  /// discarded and recovery proceeds from the log alone.
  Recovery recover() const;

  std::size_t grant_log_size() const { return log_.size(); }
  bool has_snapshot() const { return !snapshot_blob_.empty(); }

  /// Test hook: flip one byte of the stored snapshot blob, as a torn or
  /// bit-rotted write would.
  void corrupt_snapshot_for_test(std::size_t byte_index);

 private:
  std::string snapshot_blob_;
  std::vector<GrantRecord> log_;
};

/// The global-scheduler role: mailbox + engine + silent-node accounting +
/// leadership/epoch state + stable store.  Passive objects — the daemon
/// owns all timers and channels and drives every entry point.
class Coordinator {
 public:
  struct Wiring {
    int id = 0;                    ///< 0 = primary, 1 = standby.
    bool initially_leader = false;
    sim::Simulation* sim = nullptr;
    sim::EventLog* journal = nullptr;     ///< Not owned; may be null.
    /// Emit protocol events (epoch_change / snapshot) into the journal.
    /// Off in the default single-coordinator mode so journals stay
    /// byte-identical to the pre-failover daemon.
    bool journal_protocol = false;
    const sim::FaultPlan* faults = nullptr;  ///< Not owned; may be null.
    FailoverConfig failover;
    double period_s = 0.1;               ///< The global period T.
    /// Per node: (first flattened CPU, CPU count).
    std::vector<std::pair<std::size_t, std::size_t>> node_spans;
    /// Engine construction parameters (the loop is rebuilt on restart —
    /// a crash loses RAM, so the engine must not survive it either).
    ControlLoopConfig loop_config;
    const mach::FrequencyTable* default_table = nullptr;
    const mach::MemoryLatencies* latencies = nullptr;
    FrequencyScheduler::Options scheduler;
    /// Replaces the default SchedulerPolicyStage when set; called again on
    /// every crash restart (the engine is rebuilt, so the stage is too).
    PolicyStageFactory policy_factory;
    std::vector<const mach::FrequencyTable*> proc_tables;
    sim::MetricRegistry* telemetry = nullptr;  ///< Null for the standby.
    /// Fans a round's settings out over the network (the daemon owns the
    /// channels).  Arguments: this coordinator, the result, and whether a
    /// budget change triggered the round.
    std::function<void(const Coordinator&, const ScheduleResult&, bool)>
        fan_out;
  };

  explicit Coordinator(Wiring wiring);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  int id() const { return wiring_.id; }
  bool leader() const { return leader_; }
  bool crashed() const { return crashed_; }
  cluster::Epoch epoch() const { return epoch_; }
  std::uint64_t rounds() const { return rounds_; }
  const ControlLoop& loop() const { return *loop_; }
  const std::vector<double>& last_grants() const { return last_grants_; }
  std::size_t stale_node_count() const;
  StableStore& store() { return store_; }
  const StableStore& store() const { return store_; }
  std::size_t restarts() const { return restarts_; }

  /// Applies kCoordinatorCrash transitions from the fault plan (crash on
  /// window entry: journal + mark down; restart on window exit: wipe
  /// volatile state, recover from the store, wait one T for fresh
  /// summaries).  Call before delivering any stimulus.  Returns true when
  /// the coordinator is up.
  bool refresh_fault_state(double now);

  /// Is this coordinator currently network-partitioned (kPartition)?
  bool partitioned(double now) const;

  /// A node's summary arrived (leaders and shadowing standbys alike).
  void on_summary(std::size_t node, std::size_t first_cpu,
                  const std::vector<ProcView>& summary, double now);

  /// The peer coordinator's heartbeat arrived: reset the failure
  /// detector, track the highest epoch seen, shadow the replicated
  /// grants; a leader hearing a *higher* epoch steps down (it was
  /// deposed while unreachable).
  void on_peer_heartbeat(cluster::Epoch epoch,
                         const std::vector<double>& grants, double budget_w,
                         double now);

  /// One scheduling round.  No-ops unless this coordinator is the live
  /// leader and past its post-recovery warm-up; otherwise refreshes
  /// silent-node accounting, runs the engine, fans out (via the wiring
  /// callback) and appends/snapshots durable state.
  void run_round(double now, double budget_w, CycleTrigger trigger);

  /// Leader side of the heartbeat protocol; the daemon sends when due.
  bool heartbeat_due(double now) const;
  void heartbeat_sent(double now) { last_heartbeat_sent_ = now; }

  /// Standby side: elects itself once leader silence exceeds the timeout
  /// plus its deterministic jitter.  Returns true when it just took over
  /// (the daemon then heartbeats the new epoch and runs an immediate
  /// round).
  bool maybe_take_over(double now);

 private:
  class SummarySampler;
  class MailboxEstimator;
  class SettingsActuator;

  void build_loop();
  void crash(double now);
  void restart(double now);
  void refresh_silent_nodes(double now);
  void journal_epoch(double now, const char* reason);

  Wiring wiring_;
  StableStore store_;
  cluster::FailureDetector detector_;
  cluster::Epoch epoch_ = 0;
  cluster::Epoch max_heard_ = 0;
  bool leader_ = false;
  bool crashed_ = false;
  std::uint64_t rounds_ = 0;
  std::size_t restarts_ = 0;
  double warm_until_ = 0.0;  ///< Post-recovery: no rounds before this.
  double last_heartbeat_sent_ = -1.0;
  double shadow_budget_w_ = 0.0;  ///< Budget replicated by the leader.
  std::vector<ProcView> mailbox_;
  std::vector<double> last_summary_at_;  ///< Per node.
  std::vector<char> node_silent_;        ///< Per node: pinned at f_max.
  std::vector<double> last_grants_;      ///< Per flattened CPU.
  std::unique_ptr<ControlLoop> loop_;
};

}  // namespace fvsst::core
