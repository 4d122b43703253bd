#include "cluster/shard.h"

#include <cmath>
#include <stdexcept>

namespace fvsst::cluster {

ShardMap::ShardMap(const Cluster& cluster, std::size_t shards) {
  const std::size_t nodes = cluster.node_count();
  if (nodes == 0) throw std::invalid_argument("ShardMap: empty cluster");
  if (shards < 1) shards = 1;
  if (shards > nodes) shards = nodes;

  // Prefix CPU weights: boundaries fall at the weight quantiles, so slab
  // weights differ by at most one node.
  std::vector<std::size_t> prefix(nodes + 1, 0);
  for (std::size_t n = 0; n < nodes; ++n) {
    prefix[n + 1] = prefix[n] + cluster.node(n).cpu_count();
  }
  total_cpus_ = prefix[nodes];

  std::size_t cursor = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    // Quantile target for this slab's end, rounded to the nearest weight.
    const std::size_t target =
        (2 * (s + 1) * total_cpus_ + shards) / (2 * shards);
    std::size_t end = cursor + 1;  // at least one node per shard
    while (end < nodes && prefix[end] < target) ++end;
    // Leave enough nodes for the remaining shards to get one each.
    const std::size_t max_end = nodes - (shards - 1 - s);
    if (end > max_end) end = max_end;
    if (s + 1 == shards) end = nodes;

    ShardSpan span;
    span.first_node = cursor;
    span.node_count = end - cursor;
    span.first_cpu = prefix[cursor];
    span.cpu_count = prefix[end] - prefix[cursor];
    spans_.push_back(span);
    cursor = end;
  }
}

std::size_t ShardMap::auto_shards(std::size_t nodes) {
  if (nodes <= 1) return 1;
  const auto s = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(nodes))));
  return s < 1 ? 1 : (s > nodes ? nodes : s);
}

Shard::Shard(Cluster& cluster, ShardSpan span) : span_(span) {
  cores_.reserve(span.cpu_count);
  core_node_.reserve(span.cpu_count);
  for (std::size_t n = span.first_node; n < span.end_node(); ++n) {
    Node& node = cluster.node(n);
    for (std::size_t c = 0; c < node.cpu_count(); ++c) {
      cores_.push_back(&node.core(c));
      core_node_.push_back(static_cast<std::uint32_t>(n));
    }
  }
}

void Shard::advance_to(double t, const unsigned char* node_skip) {
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (node_skip && node_skip[core_node_[i]]) continue;
    cpu::Core& core = *cores_[i];
    if (core.synced_until() < t) {
      core.advance_to(t);
      ++cores_advanced_;
    }
  }
  ++sweeps_;
}

std::vector<Shard> make_shards(Cluster& cluster, const ShardMap& map) {
  std::vector<Shard> shards;
  shards.reserve(map.size());
  for (const ShardSpan& span : map.spans()) {
    shards.emplace_back(cluster, span);
  }
  return shards;
}

}  // namespace fvsst::cluster
