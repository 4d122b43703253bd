// fault_plan.h - Seeded, fully deterministic fault injection.
//
// The paper's whole premise is operation under failure: fvsst exists so a
// server survives a power-supply failure within the cascade deadline.  The
// schedulers, however, would otherwise assume perfect sensors, actuators
// and cluster links.  A FaultPlan is a declarative schedule of faults —
// sensor faults (power-reading dropout, additive noise, stuck-at value),
// actuation faults (frequency write rejected, sticky writes, delayed
// apply) and cluster faults (per-node channel-loss bursts, node
// crash/restart, stale counter summaries) — that components consult at the
// instant a reading is taken, a write is issued or a message is sent.
//
// Determinism is the design constraint:
//   * The plan is immutable once built; queries never mutate it.
//   * Randomness (loss bursts, sensor noise) is derived by *stateless
//     hashing* of (seed, kind, target, time), so the answer is independent
//     of query order and of how many other components consult the plan.
//   * An empty plan consumes no randomness and injects nothing, so a run
//     wired with an empty plan is bit-for-bit identical to an unwired run.
//
// Faults are windows [start_s, end_s) against a target index whose meaning
// depends on the kind (CPU for sensor/actuation faults, node for cluster
// faults); target -1 matches every index.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fvsst::sim {

/// What a fault does.  The `value` field of FaultSpec is interpreted per
/// kind as documented on each enumerator.
enum class FaultKind {
  /// Power sensor returns no reading; the sensor holds its last known-good
  /// value.  Target: sensor id.  value: unused.
  kSensorDropout,
  /// Additive Gaussian noise on power readings.  Target: sensor id.
  /// value: noise standard deviation in watts.
  kSensorNoise,
  /// Power readings stuck.  Target: sensor id.  value: the stuck reading in
  /// watts; 0 sticks at the first reading taken inside the window.
  kSensorStuck,
  /// Frequency writes to the CPU are refused (cpufreq-style actuation
  /// failure).  Target: flattened CPU index.  value: unused.
  kActuationReject,
  /// Frequency writes claim success but the hardware does not change (the
  /// nastier failure: no error to react to).  Target: CPU.  value: unused.
  kActuationSticky,
  /// Frequency writes land late.  Target: CPU.  value: delay in seconds.
  kActuationDelay,
  /// Burst of message loss on a node's channels.  Target: node index.
  /// value: per-message drop probability in [0, 1].
  kChannelLoss,
  /// The node's agent is down: no sampling, no summaries, and settings
  /// arriving at the node are lost.  Restarts when the window closes.
  /// Target: node index.  value: unused.
  kNodeCrash,
  /// The node's agent keeps sending but its summaries are frozen at their
  /// last refresh (sensor path wedged).  Target: node.  value: unused.
  kStaleSummaries,
  /// A cluster coordinator process is down: it runs no rounds, sends no
  /// heartbeats, and summaries addressed to it are lost.  On window close
  /// it restarts and recovers from its stable store.  Target: coordinator
  /// index (0 = primary, 1 = standby).  value: unused.
  kCoordinatorCrash,
  /// A coordinator is network-partitioned: every message to or from it is
  /// dropped while the window is open (the coordinator itself keeps
  /// running — the split-brain case epoch fencing exists for).  Target:
  /// coordinator index.  value: unused.
  kPartition,
  // Transport-level channel faults (consumed by cluster::Transport in both
  // transport modes).  Appended after kPartition: parsers and journals
  // refer to kinds by wire name, but keeping enumerator values stable is
  // free and avoids surprises.
  /// Messages to/from the node may be delayed past later traffic so they
  /// arrive out of order.  Target: node index.  value: per-message
  /// reorder probability in [0, 1].
  kChannelReorder,
  /// Messages to/from the node may be delivered twice (the second copy
  /// slightly later).  Target: node index.  value: per-message
  /// duplication probability in [0, 1].
  kChannelDuplicate,
  /// Every message to/from the node is delayed by a fixed extra amount (a
  /// congestion spike).  Target: node index.  value: extra delay in
  /// seconds (>= 0).
  kChannelDelaySpike,
  /// Messages to/from the node may be corrupted in flight.  The transport
  /// detects this via its envelope checksum and drops the message with a
  /// message_corrupt journal event — never silent misdelivery.  Target:
  /// node index.  value: per-message corruption probability in [0, 1].
  kChannelCorrupt,
};

/// Stable wire name ("sensor_dropout", "actuation_reject", ...).
std::string_view fault_kind_name(FaultKind kind);

/// Inverse of fault_kind_name; nullopt for unknown names.
std::optional<FaultKind> fault_kind_from_name(std::string_view name);

/// One scheduled fault: a kind active over [start_s, end_s) against one
/// target index (-1: all targets of that kind).
struct FaultSpec {
  FaultKind kind = FaultKind::kSensorDropout;
  double start_s = 0.0;
  double end_s = 0.0;
  int target = -1;
  double value = 0.0;  ///< Kind-specific parameter (see FaultKind).
};

/// Options for FaultPlan::random (the chaos harness' scenario generator).
struct RandomPlanOptions {
  std::size_t cpus = 1;       ///< Flattened CPU count (actuation targets).
  std::size_t nodes = 1;      ///< Node count (cluster-fault targets).
  double duration_s = 1.0;    ///< Run length; windows are kept inside
                              ///< [0, recovery_fraction * duration_s] so
                              ///< recovery is observable before the end.
  double recovery_fraction = 0.6;
  int max_faults = 4;         ///< 1..max_faults specs are drawn.
  bool sensor_faults = true;
  bool actuation_faults = true;
  bool cluster_faults = false;
  /// Also draw coordinator crashes/partitions (needs a ClusterDaemon with
  /// failover enabled to be meaningful).  Kept separate from
  /// cluster_faults so existing seeds keep producing identical plans.
  bool coordinator_faults = false;
  std::size_t coordinators = 2;  ///< Coordinator-fault target count.
  /// Also draw the four transport-level channel faults (reorder,
  /// duplication, delay spikes, corruption).  Kept separate from
  /// cluster_faults so existing seeds keep producing identical plans.
  bool transport_faults = false;
};

/// An immutable, seeded schedule of faults.
class FaultPlan {
 public:
  /// An empty plan: injects nothing, consumes no randomness.
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  /// Appends `spec` and indexes it by kind and target (parse() and
  /// random() build through here too).
  void add(const FaultSpec& spec);

  bool empty() const { return specs_.empty(); }
  std::size_t size() const { return specs_.size(); }
  const std::vector<FaultSpec>& specs() const { return specs_; }
  std::uint64_t seed() const { return seed_; }

  /// Simulated time after which every window has closed (0 for an empty
  /// plan) — the earliest instant recovery can be asserted from.
  double last_end_s() const;

  /// First spec (in plan order) of `kind` whose window contains `now` and
  /// whose target matches `target`: spec target -1 matches any query, and
  /// query target -1 matches every spec of the kind.  nullptr when none.
  /// Visits only the kind's wildcard specs and those aimed at `target`.
  const FaultSpec* active(FaultKind kind, int target, double now) const;

  /// Deterministic Bernoulli draw tied to (seed, kind, target, now): the
  /// same query always gives the same answer, and distinct times give
  /// independent draws.  Used for channel-loss bursts.
  bool chance(FaultKind kind, int target, double now, double p) const;

  /// Deterministic zero-mean Gaussian tied to (seed, kind, target, now).
  double noise(FaultKind kind, int target, double now, double stddev) const;

  /// Parses the text plan format (one fault per line):
  ///
  ///   # comment
  ///   seed 1234
  ///   actuation_reject 1.0 2.5 cpu=1
  ///   sensor_noise     0.0 9.0 stddev=4
  ///   channel_loss     1.0 3.0 node=0 p=0.6
  ///
  /// Line syntax: KIND START END [cpu|node|sensor|coordinator|target=N]
  /// [value|stddev|p|delay|watts=V].  Throws std::runtime_error with a line
  /// number on malformed input — including numbers with trailing junk
  /// ("cpu=1x"), which would otherwise silently truncate, and targets below
  /// -1.  Whether a target exists is the run's business (fvsst_sim checks
  /// it against its node, CPU, coordinator and sensor counts).
  static FaultPlan parse(std::istream& in);

  /// Draws a random-but-reproducible plan for the chaos harness: window
  /// placement, kinds and parameters all derive from `seed`.
  static FaultPlan random(std::uint64_t seed, const RandomPlanOptions& opts);

 private:
  /// Where one kind's specs sit in specs_.  Positions, not pointers, so a
  /// copied plan's index stays valid.
  struct KindIndex {
    std::vector<std::size_t> all;       ///< Plan order.
    std::vector<std::size_t> wildcard;  ///< Target -1, plan order.
    /// Target -> that target's specs, plan order.
    std::unordered_map<int, std::vector<std::size_t>> targeted;
  };
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(FaultKind::kChannelCorrupt) + 1;

  std::uint64_t seed_ = 0;
  std::vector<FaultSpec> specs_;
  std::array<KindIndex, kKinds> index_;
};

}  // namespace fvsst::sim
