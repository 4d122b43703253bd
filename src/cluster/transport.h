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
//
// Transport is the one writer of the journal's message_lost,
// message_retransmit, message_expired and message_corrupt events, for
// both cluster daemons.  It journals its own shim and channel drops,
// retransmissions and expiries where they happen; the daemons report
// protocol losses (a crashed or partitioned receiver) through lost() and
// run every received frame through corrupt().  Each event carries the
// affected node and the transport's direction.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "cluster/channel.h"
#include "simkit/event_log.h"
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
  kDatagram,  ///< Fire-and-forget: a lost message waits for the next round.
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
  /// Fallback retransmit timeout.  Fast retransmit (a summary ack that
  /// fails to cover the pending seq) is the primary recovery path; the
  /// timer only catches the case where summaries themselves stop.
  /// Default: round_period_s + 4 * (latency + jitter).
  double rto_s = 0.0;
  /// Retransmissions allowed per round window across all nodes; excess
  /// retries wait for the next window (storm control).  Default:
  /// max(4, 2 * nodes).
  int round_retransmit_budget = 0;
  /// Period of the retransmit-timer scan.  One repeating simulation
  /// event drives all timers (exact per-message events would leak lazy
  /// cancellations); deadlines quantize to this grid.  Default:
  /// round_period_s / 10.
  double pump_period_s = 0.0;
};

/// Backoff multiplier: retry k waits rto_s * kBackoffBase^k.
inline constexpr double kBackoffBase = 2.0;
/// Retransmissions per message before it expires with cause "retries".
inline constexpr int kMaxRetransmits = 5;

/// Per-direction session layer over one Channel.  The daemon owns two: a
/// "down" transport (coordinator -> nodes: settings, tracked) and an "up"
/// transport (nodes -> coordinator: summaries, sequenced but untracked —
/// the next round's summary supersedes a lost one by construction).
class Transport {
 public:
  /// `faults` may be null (no shim).  `nodes`/`coordinators` size the
  /// session tables.  `journal` (may be null) receives the message events
  /// this transport writes.  In reliable mode a repeating pump event is
  /// scheduled on `sim` to drive retransmit timers; datagram mode
  /// schedules nothing.  A frame in flight is a `sim` event that calls
  /// back into this transport, so `sim` must not run on after the
  /// transport is destroyed.
  Transport(sim::Simulation& sim, Channel& channel,
            const sim::FaultPlan* faults, const TransportOptions& options,
            std::size_t nodes, std::size_t coordinators, const char* direction,
            sim::EventLog* journal = nullptr);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  bool reliable() const { return opts_.mode == TransportMode::kReliable; }
  const TransportOptions& options() const { return opts_; }

  /// Sends `envelope` (+ piggybacked `ack`) to `node` through the fault
  /// shim and channel.  In reliable mode frames to node >= 0 are
  /// sequenced; `track` additionally installs the frame in the node's
  /// pending slot for ack-or-retransmit (one slot per node — a newer
  /// tracked send supersedes the old frame, which cumulative acks make
  /// safe).  node -1 (heartbeat broadcast) bypasses both shim and
  /// sequencing.  `deliver` is stored once and runs on every copy of the
  /// frame that arrives (retransmissions and fault duplicates included),
  /// so it must not consume its captures.  Returns false when the shim or
  /// channel dropped the frame, which is journalled as message_lost with
  /// cause "fault" or "channel" (tracked frames still retransmit later).
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

  /// A message to or from `node` lost to the protocol rather than the
  /// wire — `cause` names why (a crashed or partitioned receiver).
  /// Counted and journalled like the transport's own drops.
  void lost(int node, const char* cause);

  /// Receiver-side checksum check: true when the frame was damaged in
  /// flight (counted and journalled as message_corrupt); the caller drops
  /// it instead of delivering it.
  bool corrupt(int node, const Frame& frame);

  /// Messages lost (shim, channel and lost() reports): the journal's
  /// message_lost events in this direction.
  std::size_t messages_lost() const { return lost_; }
  /// Frames corrupt() caught: the journal's message_corrupt events.
  std::size_t messages_corrupt() const { return corrupt_; }
  std::size_t retransmits() const { return retransmits_; }
  std::size_t expired() const { return expired_; }
  std::size_t duplicates_suppressed() const { return duplicates_; }

 private:
  /// One send's deliver closure, stored once: the pending slot, the first
  /// transmission, every retransmission and every fault duplicate share
  /// it by index.  Records live in a deque (a closure runs in place while
  /// the transport grows) and recycle once no holder is left.
  struct Message {
    std::function<void(const Frame&)> deliver;
    std::uint32_t refs = 0;  ///< Pending slot + frames in flight.
  };
  /// A frame in flight: what the channel carries to the receiver.
  struct Flight {
    std::uint32_t message = 0;
    Frame wire;
  };
  struct Pending {
    bool active = false;
    Envelope envelope;
    std::uint64_t seq = 0;
    int attempts = 0;        ///< Retransmissions performed so far.
    double sent_t = 0.0;     ///< Time of the most recent (re)send.
    double retry_t = 0.0;    ///< Next timer-driven retry deadline.
    std::uint32_t message = 0;  ///< Held while active.
  };
  struct NodeSession {
    Epoch epoch = 0;
    std::uint64_t applied_seq = 0;
  };

  /// Pushes one frame through the fault shim and channel (shared by
  /// first transmission and retransmission).  Returns false on drop.
  bool transmit(int node, const Frame& frame, std::uint32_t message);
  /// Hands one frame of `message` to the channel; a channel drop is
  /// lost().  What the simulation schedules is (this, flight index).
  bool put(int node, double extra_delay_s, std::uint32_t message,
           const Frame& wire);
  /// A frame's delivery: runs its message's closure on the wire frame.
  void arrive(std::uint32_t flight);
  void release(std::uint32_t message);  ///< Drops one reference.
  void pump();
  void maybe_retransmit(int node);
  void expire(int node, const char* cause);
  bool budget_allows();

  sim::Simulation& sim_;
  Channel& channel_;
  const sim::FaultPlan* faults_;
  TransportOptions opts_;
  const char* direction_;
  sim::EventLog* journal_;
  double reorder_delay_s_;    ///< T + 3 latency: lands behind later traffic.
  double duplicate_delay_s_;  ///< One latency (>= 1 us) after the original.
  /// A stale ack fast-retransmits only after the pending frame has been in
  /// flight this long, 2 (latency + jitter): the ack may predate it.
  double min_ack_flight_s_;

  std::deque<Message> messages_;
  std::vector<std::uint32_t> free_messages_;
  std::vector<Flight> flights_;
  std::vector<std::uint32_t> free_flights_;
  std::vector<std::uint64_t> next_seq_;   ///< Per-node send counters.
  std::vector<Pending> pending_;          ///< Per-node retransmit slots.
  std::vector<NodeSession> node_rx_;      ///< Node-side dedup + ack state.
  /// Coordinator-side dedup: last seq seen, [coordinator][node].
  std::vector<std::vector<std::uint64_t>> coord_rx_;

  sim::EventId pump_event_ = 0;
  long budget_window_ = -1;
  int budget_used_ = 0;

  std::size_t lost_ = 0;
  std::size_t corrupt_ = 0;
  std::size_t retransmits_ = 0;
  std::size_t expired_ = 0;
  std::size_t duplicates_ = 0;
};

}  // namespace fvsst::cluster
