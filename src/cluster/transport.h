// transport.h - Reliable session layer between the coordinator and node
// agents.
//
// The paper's cluster scheduler assumes settings eventually reach every
// node; over a lossy datagram channel "eventually" is only as good as the
// next scheduling round.  Transport upgrades that to an explicit
// guarantee: per-(coordinator, node) sessions number every settings
// message, nodes piggyback cumulative acks on their periodic counter
// summaries, and unacked settings are retransmitted — with deterministic
// exponential backoff and a per-round retransmit budget — until they are
// acked, superseded by a newer grant, or expired.  Delivery is
// at-least-once on the wire and effectively-once at the node: duplicate
// suppression plus idempotent settings application mean a retransmitted
// or fault-duplicated frame can never double-apply or roll a node back.
//
// Everything is epoch-fenced (see election.h): a deposed coordinator's
// retransmit queue drains on the first evidence of a higher epoch, so
// failover never leaves stale settings circulating.
//
// Transport also owns the channel-level fault shim for both transport
// modes.  On every unicast send it consults the FaultPlan for
// channel_loss (drop), channel_delay_spike / channel_reorder (extra
// delay), channel_corrupt (checksum damage, detected at the receiver and
// surfaced as a message_corrupt event — never silent misdelivery) and
// channel_duplicate (a second, later copy).  Fault draws use the plan's
// stateless hashing, so datagram mode with no transport faults is
// bit-identical to a run without the shim.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/channel.h"
#include "simkit/event_queue.h"
#include "simkit/fault_plan.h"

namespace fvsst::cluster {

/// Wire framing: the protocol envelope plus session-layer fields.  seq 0
/// means "unsequenced" (datagram mode, heartbeats); ack is the receiver's
/// cumulative applied sequence, piggybacked on summaries.
struct Frame {
  Envelope envelope;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint64_t checksum = 0;  ///< frame_checksum() of the fields above.
};

/// FNV-1a over the frame's protocol fields (excluding checksum itself).
/// The payload travels inside a closure and cannot be corrupted by the
/// fault shim, so the envelope fields are the whole attack surface.
std::uint64_t frame_checksum(const Frame& frame);

/// True when the frame's stamped checksum does not match its contents —
/// i.e. the fault shim damaged it in flight.
bool frame_corrupt(const Frame& frame);

enum class TransportMode {
  kDatagram,  ///< PR-8 semantics: fire-and-forget, loss is final.
  kReliable,  ///< Sequenced, acked, retransmitted, epoch-fenced.
};

/// Tuning knobs.  Zero or negative values are resolved to deterministic
/// defaults derived from the channel's latency model and the round
/// period — see Transport's constructor.
struct TransportOptions {
  TransportMode mode = TransportMode::kDatagram;
  /// Scheduling round period T (seconds); the natural retransmit
  /// timescale, since acks ride on once-per-round summaries.
  double round_period_s = 0.1;
  /// Extra delay applied to a reorder-faulted frame so it lands behind
  /// later traffic.  Default: round_period_s + 3 * latency.
  double reorder_delay_s = 0.0;
  /// Extra delay of the second copy of a duplicate-faulted frame.
  /// Default: one channel latency.
  double duplicate_delay_s = 0.0;
  /// Fallback retransmit timeout.  Fast retransmit (a summary ack that
  /// fails to cover the pending seq) is the primary recovery path; the
  /// timer only catches the case where summaries themselves stop.
  /// Default: round_period_s + 4 * (latency + jitter).
  double rto_s = 0.0;
  /// Backoff multiplier: retry k waits rto_s * backoff_base^k.
  double backoff_base = 2.0;
  /// Retransmissions per message before it expires with cause
  /// "retries".
  int max_retransmits = 5;
  /// Retransmissions allowed per round window across all nodes; excess
  /// retries wait for the next window (storm control).  Default:
  /// max(4, 2 * nodes).
  int round_retransmit_budget = 0;
  /// An ack older than the pending seq only triggers fast retransmit if
  /// the pending frame has been in flight at least this long (the ack
  /// may simply predate it).  Default: 2 * (latency + jitter).
  double min_ack_flight_s = 0.0;
  /// Period of the retransmit-timer scan.  One repeating simulation
  /// event drives all timers (exact per-message events would leak lazy
  /// cancellations); deadlines quantize to this grid.  Default:
  /// round_period_s / 10.
  double pump_period_s = 0.0;
};

/// Per-direction session layer over one Channel.  The daemon owns two: a
/// "down" transport (coordinator -> nodes: settings, tracked) and an "up"
/// transport (nodes -> coordinator: summaries, sequenced but untracked —
/// the next round's summary supersedes a lost one by construction).
class Transport {
 public:
  /// Owner callbacks for journalling; all optional.  `direction` is the
  /// wire direction of the affected frame ("down" or "up").
  struct Hooks {
    /// A send consumed by the channel_loss fault shim (the channel's own
    /// probabilistic loss still reports through Channel's drop handler).
    std::function<void(int node)> on_fault_drop;
    std::function<void(int node, std::uint64_t seq, int attempt)>
        on_retransmit;
    /// A tracked message gave up: `cause` is "retries" (budget of
    /// max_retransmits exhausted) or "epoch" (fenced by a newer epoch).
    std::function<void(int node, std::uint64_t seq, int attempts,
                       const char* cause)>
        on_expired;
  };

  /// `faults` may be null (no shim).  `nodes`/`coordinators` size the
  /// session tables.  In reliable mode a repeating pump event is
  /// scheduled on `sim` to drive retransmit timers; datagram mode
  /// schedules nothing.
  Transport(sim::Simulation& sim, Channel& channel,
            const sim::FaultPlan* faults, const TransportOptions& options,
            std::size_t nodes, std::size_t coordinators, const char* direction);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  bool reliable() const { return opts_.mode == TransportMode::kReliable; }
  const TransportOptions& options() const { return opts_; }
  const char* direction() const { return direction_; }

  /// Sends `envelope` (+ piggybacked `ack`) to `node` through the fault
  /// shim and channel.  In reliable mode frames to node >= 0 are
  /// sequenced; `track` additionally installs the frame in the node's
  /// pending slot for ack-or-retransmit (one slot per node — a newer
  /// tracked send supersedes the old frame, which cumulative acks make
  /// safe).  node < 0 (heartbeat broadcast) bypasses both shim and
  /// sequencing.  Returns false when the shim or channel dropped the
  /// frame (tracked frames still retransmit later).
  bool send(int node, const Envelope& envelope, std::uint64_t ack, bool track,
            std::function<void(const Frame&)> deliver);

  enum class Verdict { kDeliver, kDuplicate };

  /// Node-side receive filter for fence-admitted settings frames: adopts
  /// newer epochs, suppresses duplicate/stale seqs within an epoch.
  /// Unsequenced frames always deliver.
  Verdict receive_at_node(int node, const Frame& frame);

  /// Coordinator-side receive filter for summary frames, keyed per
  /// (coordinator, node) so primary and standby dedup independently.
  Verdict receive_at_coordinator(int coordinator, int node,
                                 const Frame& frame);

  /// Cumulative ack state the node piggybacks on its next summary: the
  /// highest settings seq applied, and the epoch it was applied under.
  std::uint64_t node_ack(int node) const;
  Epoch node_ack_epoch(int node) const;

  /// Feeds a piggybacked ack back into the send side.  Releases the
  /// node's pending frame when covered; an ack that is provably stale
  /// (older seq, same epoch, pending frame past its ack flight time)
  /// fast-retransmits without waiting for the timer.
  void on_ack(int node, Epoch epoch, std::uint64_t seq);

  /// Expires every pending frame older than `epoch` (cause "epoch").
  /// Called on evidence of a newer coordinator so a deposed leader's
  /// queue drains instead of fighting the new one.
  void fence(Epoch epoch);

  bool has_pending() const;

  std::size_t retransmits() const { return retransmits_; }
  std::size_t expired() const { return expired_; }
  std::size_t duplicates_suppressed() const { return duplicates_; }
  std::size_t fault_dropped() const { return fault_dropped_; }

 private:
  struct Pending {
    bool active = false;
    Envelope envelope;
    std::uint64_t seq = 0;
    int attempts = 0;        ///< Retransmissions performed so far.
    double sent_t = 0.0;     ///< Time of the most recent (re)send.
    double retry_t = 0.0;    ///< Next timer-driven retry deadline.
    std::function<void(const Frame&)> deliver;
  };
  struct NodeSession {
    Epoch epoch = 0;
    std::uint64_t applied_seq = 0;
  };

  /// Pushes one frame through the fault shim and channel (shared by
  /// first transmission and retransmission).  Returns false on drop.
  bool transmit(int node, const Frame& frame,
                const std::function<void(const Frame&)>& deliver);
  void pump();
  void maybe_retransmit(int node);
  void expire(int node, const char* cause);
  bool budget_allows();

  sim::Simulation& sim_;
  Channel& channel_;
  const sim::FaultPlan* faults_;
  TransportOptions opts_;
  const char* direction_;
  Hooks hooks_;

  std::vector<std::uint64_t> next_seq_;   ///< Per-node send counters.
  std::vector<Pending> pending_;          ///< Per-node retransmit slots.
  std::vector<NodeSession> node_rx_;      ///< Node-side dedup + ack state.
  /// Coordinator-side dedup: last seq seen, [coordinator][node].
  std::vector<std::vector<std::uint64_t>> coord_rx_;

  sim::EventId pump_event_ = 0;
  long budget_window_ = -1;
  int budget_used_ = 0;

  std::size_t retransmits_ = 0;
  std::size_t expired_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t fault_dropped_ = 0;
};

}  // namespace fvsst::cluster
