#include "simkit/fault_plan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "simkit/rng.h"

namespace fvsst::sim {
namespace {

struct KindName {
  FaultKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kSensorDropout, "sensor_dropout"},
    {FaultKind::kSensorNoise, "sensor_noise"},
    {FaultKind::kSensorStuck, "sensor_stuck"},
    {FaultKind::kActuationReject, "actuation_reject"},
    {FaultKind::kActuationSticky, "actuation_sticky"},
    {FaultKind::kActuationDelay, "actuation_delay"},
    {FaultKind::kChannelLoss, "channel_loss"},
    {FaultKind::kNodeCrash, "node_crash"},
    {FaultKind::kStaleSummaries, "stale_summaries"},
    {FaultKind::kCoordinatorCrash, "coordinator_crash"},
    {FaultKind::kPartition, "partition"},
    {FaultKind::kChannelReorder, "channel_reorder"},
    {FaultKind::kChannelDuplicate, "channel_duplicate"},
    {FaultKind::kChannelDelaySpike, "channel_delay_spike"},
    {FaultKind::kChannelCorrupt, "channel_corrupt"},
};

/// Kinds whose `value` is a per-message probability — the parser enforces
/// the [0, 1] range with a line number (a typo'd p=1.5 or p=nan would
/// otherwise inject nonsense silently).
bool value_is_probability(FaultKind kind) {
  return kind == FaultKind::kChannelLoss ||
         kind == FaultKind::kChannelReorder ||
         kind == FaultKind::kChannelDuplicate ||
         kind == FaultKind::kChannelCorrupt;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Stateless hash of a query point.  Chaining through splitmix64 keeps the
/// mix platform-independent; the time enters via its IEEE-754 bit pattern
/// so that e.g. 0.1 hashed twice is the same draw while 0.1 and
/// 0.1000000001 are independent.
std::uint64_t hash_query(std::uint64_t seed, FaultKind kind, int target,
                         double now) {
  std::uint64_t h = splitmix64(seed);
  h = splitmix64(h ^ static_cast<std::uint64_t>(kind));
  h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(target)));
  h = splitmix64(h ^ std::bit_cast<std::uint64_t>(now));
  return h;
}

/// Top 53 bits as a uniform double in [0, 1).
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

[[noreturn]] void parse_fail(int line_no, const std::string& why) {
  throw std::runtime_error("fault plan line " + std::to_string(line_no) +
                           ": " + why);
}

/// Strict full-token number parsing: std::stoi/stod accept trailing junk
/// ("cpu=1x" would silently parse as 1), which hides typos in hand-written
/// plans.  Throws std::invalid_argument unless the whole token converts.
int parse_int_strict(const std::string& s) {
  std::size_t used = 0;
  const int v = std::stoi(s, &used);
  if (used != s.size()) throw std::invalid_argument(s);
  return v;
}

double parse_double_strict(const std::string& s) {
  std::size_t used = 0;
  const double v = std::stod(s, &used);
  if (used != s.size()) throw std::invalid_argument(s);
  return v;
}

}  // namespace

std::string_view fault_kind_name(FaultKind kind) {
  for (const auto& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "unknown";
}

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  for (const auto& kn : kKindNames) {
    if (kn.name == name) return kn.kind;
  }
  return std::nullopt;
}

void FaultPlan::add(const FaultSpec& spec) {
  const std::size_t position = specs_.size();
  specs_.push_back(spec);
  KindIndex& index = index_[static_cast<std::size_t>(spec.kind)];
  index.all.push_back(position);
  if (spec.target == -1) {
    index.wildcard.push_back(position);
  } else {
    index.targeted[spec.target].push_back(position);
  }
}

double FaultPlan::last_end_s() const {
  double last = 0.0;
  for (const auto& spec : specs_) last = std::max(last, spec.end_s);
  return last;
}

const FaultSpec* FaultPlan::active(FaultKind kind, int target,
                                   double now) const {
  const KindIndex& index = index_[static_cast<std::size_t>(kind)];
  if (index.all.empty()) return nullptr;
  // The first open spec of each candidate list; plan order decides
  // between the wildcard list and the target's own.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const auto first_open = [&](const std::vector<std::size_t>& positions,
                              std::size_t before) {
    for (const std::size_t p : positions) {
      if (p >= before) break;
      if (now >= specs_[p].start_s && now < specs_[p].end_s) return p;
    }
    return kNone;
  };
  std::size_t first = kNone;
  if (target == -1) {
    first = first_open(index.all, kNone);
  } else {
    first = first_open(index.wildcard, kNone);
    if (const auto it = index.targeted.find(target);
        it != index.targeted.end()) {
      first = std::min(first, first_open(it->second, first));
    }
  }
  return first == kNone ? nullptr : &specs_[first];
}

bool FaultPlan::chance(FaultKind kind, int target, double now,
                       double p) const {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return to_unit(hash_query(seed_, kind, target, now)) < p;
}

double FaultPlan::noise(FaultKind kind, int target, double now,
                        double stddev) const {
  if (stddev <= 0.0) return 0.0;
  // Box-Muller from two independent hashed uniforms.
  std::uint64_t h = hash_query(seed_, kind, target, now);
  double u1 = to_unit(h);
  double u2 = to_unit(splitmix64(h ^ 0xd1b54a32d192ed03ull));
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return stddev * std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

FaultPlan FaultPlan::parse(std::istream& in) {
  FaultPlan plan;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and surrounding whitespace.
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string head;
    if (!(tokens >> head)) continue;  // blank line

    if (head == "seed") {
      std::uint64_t seed = 0;
      std::string trailing;
      if (!(tokens >> seed)) parse_fail(line_no, "expected `seed N`");
      if (tokens >> trailing) {
        parse_fail(line_no, "trailing junk after seed: `" + trailing + "`");
      }
      plan.seed_ = seed;
      continue;
    }

    auto kind = fault_kind_from_name(head);
    if (!kind) parse_fail(line_no, "unknown fault kind `" + head + "`");

    FaultSpec spec;
    spec.kind = *kind;
    if (!(tokens >> spec.start_s >> spec.end_s)) {
      parse_fail(line_no, "expected `" + head + " START END [key=value ...]`");
    }
    if (spec.end_s < spec.start_s) {
      parse_fail(line_no, "window ends before it starts");
    }

    std::string kv;
    while (tokens >> kv) {
      auto eq = kv.find('=');
      if (eq == std::string::npos) {
        parse_fail(line_no, "expected key=value, got `" + kv + "`");
      }
      std::string key = kv.substr(0, eq);
      std::string val = kv.substr(eq + 1);
      try {
        if (key == "cpu" || key == "node" || key == "sensor" ||
            key == "target" || key == "coordinator") {
          spec.target = parse_int_strict(val);
        } else if (key == "value" || key == "stddev" || key == "p" ||
                   key == "delay" || key == "watts") {
          spec.value = parse_double_strict(val);
        } else {
          parse_fail(line_no, "unknown key `" + key + "`");
        }
      } catch (const std::invalid_argument&) {
        parse_fail(line_no, "bad number `" + val + "` for key `" + key + "`");
      } catch (const std::out_of_range&) {
        parse_fail(line_no, "number out of range `" + val + "`");
      }
    }
    if (spec.target < -1) {
      parse_fail(line_no, "target must be >= 0 (or -1 for every target), "
                          "got `" + std::to_string(spec.target) + "`");
    }
    // Range validation per kind.  The negated comparisons also reject NaN
    // (every comparison with NaN is false), matching the strict-parsing
    // contract: a malformed plan fails loudly with its line number.
    if (value_is_probability(spec.kind) &&
        !(spec.value >= 0.0 && spec.value <= 1.0)) {
      parse_fail(line_no, std::string(fault_kind_name(spec.kind)) +
                              " probability must be in [0, 1], got `" +
                              std::to_string(spec.value) + "`");
    }
    if (spec.kind == FaultKind::kChannelDelaySpike && !(spec.value >= 0.0)) {
      parse_fail(line_no, "channel_delay_spike delay must be >= 0, got `" +
                              std::to_string(spec.value) + "`");
    }
    plan.add(spec);
  }
  return plan;
}

FaultPlan FaultPlan::random(std::uint64_t seed,
                            const RandomPlanOptions& opts) {
  FaultPlan plan(seed);
  Rng rng(splitmix64(seed ^ 0xfa17fa17fa17fa17ull));

  std::vector<FaultKind> pool;
  if (opts.sensor_faults) {
    pool.insert(pool.end(), {FaultKind::kSensorDropout, FaultKind::kSensorNoise,
                             FaultKind::kSensorStuck});
  }
  if (opts.actuation_faults) {
    pool.insert(pool.end(),
                {FaultKind::kActuationReject, FaultKind::kActuationSticky,
                 FaultKind::kActuationDelay});
  }
  if (opts.cluster_faults) {
    pool.insert(pool.end(), {FaultKind::kChannelLoss, FaultKind::kNodeCrash,
                             FaultKind::kStaleSummaries});
  }
  if (opts.coordinator_faults) {
    pool.insert(pool.end(),
                {FaultKind::kCoordinatorCrash, FaultKind::kPartition});
  }
  if (opts.transport_faults) {
    pool.insert(pool.end(),
                {FaultKind::kChannelReorder, FaultKind::kChannelDuplicate,
                 FaultKind::kChannelDelaySpike, FaultKind::kChannelCorrupt});
  }
  if (pool.empty() || opts.max_faults <= 0) return plan;

  double horizon =
      std::max(0.0, opts.duration_s * std::clamp(opts.recovery_fraction,
                                                 0.0, 1.0));
  int n = static_cast<int>(rng.uniform_int(1, opts.max_faults));
  for (int i = 0; i < n; ++i) {
    FaultSpec spec;
    spec.kind = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    double start = rng.uniform(0.0, horizon * 0.7);
    double len = rng.uniform(0.05 * horizon, 0.4 * horizon);
    spec.start_s = start;
    spec.end_s = std::min(horizon, start + len);

    bool cluster_kind = spec.kind == FaultKind::kChannelLoss ||
                        spec.kind == FaultKind::kNodeCrash ||
                        spec.kind == FaultKind::kStaleSummaries ||
                        spec.kind == FaultKind::kChannelReorder ||
                        spec.kind == FaultKind::kChannelDuplicate ||
                        spec.kind == FaultKind::kChannelDelaySpike ||
                        spec.kind == FaultKind::kChannelCorrupt;
    bool coordinator_kind = spec.kind == FaultKind::kCoordinatorCrash ||
                            spec.kind == FaultKind::kPartition;
    std::size_t targets = coordinator_kind ? opts.coordinators
                          : cluster_kind   ? opts.nodes
                                           : opts.cpus;
    bool sensor_kind = spec.kind == FaultKind::kSensorDropout ||
                       spec.kind == FaultKind::kSensorNoise ||
                       spec.kind == FaultKind::kSensorStuck;
    if (sensor_kind) targets = 1;  // one aggregate power sensor per run
    spec.target =
        targets == 0
            ? -1
            : static_cast<int>(rng.uniform_int(
                  0, static_cast<std::int64_t>(targets) - 1));

    switch (spec.kind) {
      case FaultKind::kSensorNoise:
        spec.value = rng.uniform(0.5, 8.0);  // watts of stddev
        break;
      case FaultKind::kChannelLoss:
        spec.value = rng.uniform(0.2, 0.9);  // drop probability
        break;
      case FaultKind::kActuationDelay:
        spec.value = rng.uniform(0.001, 0.02);  // seconds
        break;
      case FaultKind::kChannelReorder:
      case FaultKind::kChannelDuplicate:
      case FaultKind::kChannelCorrupt:
        spec.value = rng.uniform(0.2, 0.8);  // per-message probability
        break;
      case FaultKind::kChannelDelaySpike:
        spec.value = rng.uniform(0.002, 0.03);  // extra seconds
        break;
      default:
        spec.value = 0.0;
        break;
    }
    plan.add(spec);
  }
  return plan;
}

}  // namespace fvsst::sim
