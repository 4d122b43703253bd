// channel.h - Latency-modelled messaging between node agents and the
// global scheduler.
//
// In the cluster deployment the paper envisions, per-node agents ship
// counter summaries to a global scheduler and receive frequency settings
// back; the scheduling interval T is chosen large "to help stabilize the
// scheduler and amortize the overhead of ... the inter-processor
// communication required".  Channel models that communication as a fixed
// one-way latency plus optional jitter, so the response-time experiments
// can measure time-to-compliance against the supply's cascade deadline.
// The daemons never send on a Channel directly: cluster::Transport does,
// and journals every message the channel drops.
#pragma once

#include <cstdint>
#include <optional>

#include "simkit/rng.h"

namespace fvsst::cluster {

/// Coordinator epoch/term number.  Stamped on every settings and heartbeat
/// message so receivers can fence off traffic from a deposed coordinator.
using Epoch = std::uint64_t;

/// Protocol metadata a cluster::Transport frame carries next to its
/// closure payload: the sending coordinator's epoch and identity.
struct Envelope {
  Epoch epoch = 0;
  int sender = -1;  ///< Coordinator index (0 = primary, 1 = standby).
};

/// One-way message channel with latency, jitter and loss.
class Channel {
 public:
  /// `latency_s` is the mean one-way delay; `jitter_s` adds a uniform
  /// [0, jitter_s) component per message.
  explicit Channel(double latency_s, double jitter_s = 0.0,
                   sim::Rng rng = sim::Rng(0x7a3d));

  /// One message's trip: a loss draw (on a lossy channel), then a jitter
  /// draw (on a jittered one).  Returns the one-way delay — `extra_delay_s`
  /// (>= 0) plus latency plus jitter — or nullopt when the channel drops
  /// the message, as a real unreliable datagram path would (counted in
  /// dropped()).  The caller schedules the delivery and calls arrived()
  /// when it runs.  `extra_delay_s` is the transport layer's hook for
  /// fault-injected delay spikes and reordering and draws nothing, so a
  /// zero extra delay is indistinguishable from none.
  std::optional<double> transit(double extra_delay_s = 0.0);

  /// Counts one message whose delivery ran (see delivered()).
  void arrived() { ++delivered_; }

  /// Fraction of messages dropped, in [0, 1).  The periodic scheduling
  /// rounds make the cluster protocol naturally loss-tolerant; tests and
  /// the robustness ablation exercise that.  Throws std::invalid_argument
  /// for NaN or out-of-range values (NaN would otherwise slip through a
  /// range comparison and silently disable loss).
  void set_loss_probability(double p);
  double loss_probability() const { return loss_probability_; }

  double latency_s() const { return latency_s_; }
  double jitter_s() const { return jitter_s_; }

  /// Messages delivered so far.
  std::size_t delivered() const { return delivered_; }

  /// Messages dropped so far.
  std::size_t dropped() const { return dropped_; }

 private:
  double latency_s_;
  double jitter_s_;
  double loss_probability_ = 0.0;
  sim::Rng rng_;
  std::size_t delivered_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace fvsst::cluster
