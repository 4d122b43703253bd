#include "cluster/transport.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

namespace fvsst::cluster {
namespace {

// A frame damaged by the corrupt fault flips checksum bits with this
// nonzero mask, so the damage is always detectable (XOR with zero would
// be a no-op corruption).
constexpr std::uint64_t kCorruptMask = 0x5a5a5a5a5a5a5a5aull;

/// An index into `store` to reuse: a freed one if any, else a new entry.
template <typename Store>
std::uint32_t acquire(Store& store, std::vector<std::uint32_t>& free) {
  if (free.empty()) {
    store.emplace_back();
    return static_cast<std::uint32_t>(store.size() - 1);
  }
  const std::uint32_t index = free.back();
  free.pop_back();
  return index;
}

}  // namespace

std::uint64_t frame_checksum(const Frame& frame) {
  // One FNV-1a xor-multiply per 64-bit field: each step is a bijection of
  // the running hash, so damage to any single field always shows.
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const std::uint64_t v :
       {frame.envelope.epoch,
        static_cast<std::uint64_t>(
            static_cast<std::int64_t>(frame.envelope.sender)),
        frame.seq, frame.ack}) {
    h ^= v;
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

bool frame_corrupt(const Frame& frame) {
  return frame.checksum != frame_checksum(frame);
}

Transport::Transport(sim::Simulation& sim, Channel& channel,
                     const sim::FaultPlan* faults,
                     const TransportOptions& options, std::size_t nodes,
                     std::size_t coordinators, const char* direction,
                     sim::EventLog* journal)
    : sim_(sim),
      channel_(channel),
      faults_(faults),
      opts_(options),
      direction_(direction),
      journal_(journal),
      next_seq_(nodes, 0),
      pending_(nodes),
      node_rx_(nodes),
      coord_rx_(coordinators, std::vector<std::uint64_t>(nodes, 0)) {
  const double hop = channel_.latency_s() + channel_.jitter_s();
  if (opts_.round_period_s <= 0.0) opts_.round_period_s = 0.1;
  reorder_delay_s_ = opts_.round_period_s + 3.0 * channel_.latency_s();
  duplicate_delay_s_ = std::max(channel_.latency_s(), 1e-6);
  if (opts_.rto_s <= 0.0) opts_.rto_s = opts_.round_period_s + 4.0 * hop;
  min_ack_flight_s_ = 2.0 * hop;
  if (opts_.round_retransmit_budget <= 0) {
    opts_.round_retransmit_budget = std::max(4, 2 * static_cast<int>(nodes));
  }
  if (opts_.pump_period_s <= 0.0) {
    opts_.pump_period_s = opts_.round_period_s / 10.0;
  }
  if (opts_.mode == TransportMode::kReliable) {
    pump_event_ = sim_.schedule_every(opts_.pump_period_s, [this] { pump(); });
  }
}

Transport::~Transport() {
  if (pump_event_ != 0) sim_.cancel(pump_event_);
}

bool Transport::send(int node, const Envelope& envelope, std::uint64_t ack,
                     bool track, std::function<void(const Frame&)> deliver) {
  // The send holds one reference to its record until it returns.
  const std::uint32_t message = acquire(messages_, free_messages_);
  messages_[message].deliver = std::move(deliver);
  messages_[message].refs = 1;
  Frame frame;
  frame.envelope = envelope;
  frame.ack = ack;
  if (node < 0) {
    // Heartbeat broadcast: no per-node session and no fault shim — a
    // node-targeted fault window (target -1 matches every query) must not
    // be able to damage cluster-wide liveness signalling.
    frame.checksum = frame_checksum(frame);
    const bool sent = put(node, 0.0, message, frame);
    release(message);
    return sent;
  }
  if (reliable()) {
    frame.seq = ++next_seq_[static_cast<std::size_t>(node)];
    if (track) {
      Pending& p = pending_[static_cast<std::size_t>(node)];
      // One slot per node: a newer tracked frame supersedes the old one
      // (cumulative acks make the old frame's fate irrelevant).  A frame
      // from a deposed epoch must not clobber a fresher leader's slot —
      // it goes out untracked and the node's fence rejects it anyway.
      if (!p.active || envelope.epoch >= p.envelope.epoch) {
        if (p.active) release(p.message);
        p.active = true;
        p.envelope = envelope;
        p.seq = frame.seq;
        p.attempts = 0;
        p.sent_t = sim_.now();
        p.retry_t = sim_.now() + opts_.rto_s;
        p.message = message;
        ++messages_[message].refs;
      }
    }
  }
  const bool sent = transmit(node, frame, message);
  release(message);
  return sent;
}

bool Transport::transmit(int node, const Frame& frame, std::uint32_t message) {
  Frame wire = frame;
  wire.checksum = frame_checksum(wire);
  if (faults_ == nullptr) return put(node, 0.0, message, wire);
  const double now = sim_.now();
  using sim::FaultKind;
  if (const auto* loss = faults_->active(FaultKind::kChannelLoss, node, now)) {
    if (faults_->chance(FaultKind::kChannelLoss, node, now, loss->value)) {
      lost(node, "fault");
      return false;
    }
  }
  double extra = 0.0;
  if (const auto* spike =
          faults_->active(FaultKind::kChannelDelaySpike, node, now)) {
    extra += spike->value;
  }
  if (const auto* reorder =
          faults_->active(FaultKind::kChannelReorder, node, now)) {
    if (faults_->chance(FaultKind::kChannelReorder, node, now,
                        reorder->value)) {
      extra += reorder_delay_s_;
    }
  }
  if (const auto* corrupt =
          faults_->active(FaultKind::kChannelCorrupt, node, now)) {
    if (faults_->chance(FaultKind::kChannelCorrupt, node, now,
                        corrupt->value)) {
      wire.checksum ^= kCorruptMask;
    }
  }
  const bool sent = put(node, extra, message, wire);
  if (const auto* dup =
          faults_->active(FaultKind::kChannelDuplicate, node, now)) {
    if (faults_->chance(FaultKind::kChannelDuplicate, node, now, dup->value)) {
      put(node, extra + duplicate_delay_s_, message, wire);
    }
  }
  return sent;
}

bool Transport::put(int node, double extra_delay_s, std::uint32_t message,
                    const Frame& wire) {
  const std::optional<double> delay = channel_.transit(extra_delay_s);
  if (!delay) {
    lost(node, "channel");
    return false;
  }
  const std::uint32_t flight = acquire(flights_, free_flights_);
  flights_[flight] = {message, wire};
  ++messages_[message].refs;
  sim_.schedule_after(*delay, [this, flight] { arrive(flight); });
  return true;
}

void Transport::arrive(std::uint32_t flight) {
  channel_.arrived();
  const Flight f = flights_[flight];
  free_flights_.push_back(flight);
  messages_[f.message].deliver(f.wire);
  release(f.message);
}

void Transport::release(std::uint32_t message) {
  Message& m = messages_[message];
  if (--m.refs > 0) return;
  m.deliver = nullptr;
  free_messages_.push_back(message);
}

void Transport::lost(int node, const char* cause) {
  ++lost_;
  if (journal_) {
    journal_->append(sim_.now(), sim::EventType::kMessageLost)
        .set("node", static_cast<double>(node))
        .set("direction", std::string(direction_))
        .set("cause", std::string(cause));
  }
}

bool Transport::corrupt(int node, const Frame& frame) {
  if (!frame_corrupt(frame)) return false;
  ++corrupt_;
  if (journal_) {
    journal_->append(sim_.now(), sim::EventType::kMessageCorrupt)
        .set("node", static_cast<double>(node))
        .set("direction", std::string(direction_));
  }
  return true;
}

Transport::Verdict Transport::receive_at_node(int node, const Frame& frame) {
  if (frame.seq == 0 || node < 0 ||
      node >= static_cast<int>(node_rx_.size())) {
    return Verdict::kDeliver;
  }
  NodeSession& rx = node_rx_[static_cast<std::size_t>(node)];
  if (frame.envelope.epoch > rx.epoch) {
    rx.epoch = frame.envelope.epoch;
    rx.applied_seq = frame.seq;
    return Verdict::kDeliver;
  }
  if (frame.envelope.epoch == rx.epoch && frame.seq > rx.applied_seq) {
    rx.applied_seq = frame.seq;
    return Verdict::kDeliver;
  }
  ++duplicates_;
  return Verdict::kDuplicate;
}

Transport::Verdict Transport::receive_at_coordinator(int coordinator, int node,
                                                     const Frame& frame) {
  if (frame.seq == 0 || coordinator < 0 ||
      coordinator >= static_cast<int>(coord_rx_.size()) || node < 0 ||
      node >= static_cast<int>(next_seq_.size())) {
    return Verdict::kDeliver;
  }
  std::uint64_t& last = coord_rx_[static_cast<std::size_t>(coordinator)]
                                 [static_cast<std::size_t>(node)];
  if (frame.seq <= last) {
    ++duplicates_;
    return Verdict::kDuplicate;
  }
  last = frame.seq;
  return Verdict::kDeliver;
}

std::uint64_t Transport::node_ack(int node) const {
  if (node < 0 || node >= static_cast<int>(node_rx_.size())) return 0;
  return node_rx_[static_cast<std::size_t>(node)].applied_seq;
}

Epoch Transport::node_ack_epoch(int node) const {
  if (node < 0 || node >= static_cast<int>(node_rx_.size())) return 0;
  return node_rx_[static_cast<std::size_t>(node)].epoch;
}

void Transport::on_ack(int node, Epoch epoch, std::uint64_t seq) {
  if (node < 0 || node >= static_cast<int>(pending_.size())) return;
  Pending& p = pending_[static_cast<std::size_t>(node)];
  if (!p.active) return;
  if (epoch > p.envelope.epoch) {
    // The node is applying a newer coordinator's grants; our frame can
    // never be acked.  Drain it rather than retransmitting into a fence.
    expire(node, "epoch");
    return;
  }
  if (epoch < p.envelope.epoch) return;  // ack predates our epoch; timer
                                         // recovery still applies
  if (seq >= p.seq) {
    p.active = false;
    release(p.message);
    return;
  }
  // The node acked an older seq after our frame had time to land: the
  // frame (or a previous retry) was lost.  Fast retransmit beats waiting
  // out the timer — this is the primary loss-recovery path, since acks
  // arrive every summary round.
  if (sim_.now() - p.sent_t >= min_ack_flight_s_) maybe_retransmit(node);
}

void Transport::fence(Epoch epoch) {
  for (std::size_t n = 0; n < pending_.size(); ++n) {
    if (pending_[n].active && pending_[n].envelope.epoch < epoch) {
      expire(static_cast<int>(n), "epoch");
    }
  }
}

bool Transport::has_pending() const {
  for (const Pending& p : pending_) {
    if (p.active) return true;
  }
  return false;
}

void Transport::pump() {
  const double now = sim_.now();
  for (std::size_t n = 0; n < pending_.size(); ++n) {
    if (pending_[n].active && now >= pending_[n].retry_t) {
      maybe_retransmit(static_cast<int>(n));
    }
  }
}

void Transport::maybe_retransmit(int node) {
  Pending& p = pending_[static_cast<std::size_t>(node)];
  if (!p.active) return;
  if (p.attempts >= kMaxRetransmits) {
    expire(node, "retries");
    return;
  }
  if (!budget_allows()) {
    // Storm control: the round's retransmit budget is spent.  Re-check on
    // the next pump; a new round window refills the budget.  The deferral
    // does not consume an attempt.
    p.retry_t = sim_.now() + opts_.pump_period_s;
    return;
  }
  ++p.attempts;
  ++budget_used_;
  ++retransmits_;
  if (journal_) {
    journal_->append(sim_.now(), sim::EventType::kMessageRetransmit)
        .set("node", static_cast<double>(node))
        .set("seq", static_cast<double>(p.seq))
        .set("attempt", static_cast<double>(p.attempts))
        .set("direction", std::string(direction_));
  }
  Frame frame;
  frame.envelope = p.envelope;
  frame.seq = p.seq;
  p.sent_t = sim_.now();
  double scale = 1.0;
  for (int k = 0; k < p.attempts; ++k) scale *= kBackoffBase;
  p.retry_t = sim_.now() + opts_.rto_s * scale;
  transmit(node, frame, p.message);
}

void Transport::expire(int node, const char* cause) {
  Pending& p = pending_[static_cast<std::size_t>(node)];
  if (!p.active) return;
  ++expired_;
  if (journal_) {
    journal_->append(sim_.now(), sim::EventType::kMessageExpired)
        .set("node", static_cast<double>(node))
        .set("seq", static_cast<double>(p.seq))
        .set("attempts", static_cast<double>(p.attempts))
        .set("cause", std::string(cause))
        .set("direction", std::string(direction_));
  }
  p.active = false;
  release(p.message);
}

bool Transport::budget_allows() {
  const long window =
      static_cast<long>(sim_.now() / opts_.round_period_s);
  if (window != budget_window_) {
    budget_window_ = window;
    budget_used_ = 0;
  }
  return budget_used_ < opts_.round_retransmit_budget;
}

}  // namespace fvsst::cluster
