#include "cluster/channel.h"

#include <stdexcept>
#include <string>

namespace fvsst::cluster {

Channel::Channel(double latency_s, double jitter_s, sim::Rng rng)
    : latency_s_(latency_s), jitter_s_(jitter_s), rng_(rng) {
  if (latency_s < 0.0 || jitter_s < 0.0) {
    throw std::invalid_argument("Channel: negative latency/jitter");
  }
}

void Channel::set_loss_probability(double p) {
  // The negated comparison also rejects NaN, which `p < 0.0 || p >= 1.0`
  // would silently wave through (every comparison with NaN is false).
  if (!(p >= 0.0 && p < 1.0)) {
    throw std::invalid_argument(
        "Channel: loss probability must be in [0, 1), got " +
        std::to_string(p));
  }
  loss_probability_ = p;
}

std::optional<double> Channel::transit(double extra_delay_s) {
  if (!(extra_delay_s >= 0.0)) {
    throw std::invalid_argument("Channel: negative extra delay");
  }
  if (loss_probability_ > 0.0 && rng_.bernoulli(loss_probability_)) {
    ++dropped_;
    return std::nullopt;
  }
  return extra_delay_s + latency_s_ +
         (jitter_s_ > 0.0 ? rng_.uniform(0.0, jitter_s_) : 0.0);
}

}  // namespace fvsst::cluster
