// frequency_table.h - Discrete operating points (frequency/voltage/power).
//
// The paper's scheduler targets "systems with a small, fixed set of
// available frequencies"; Table 1 of the paper lists the sixteen settings
// (250 MHz/9 W ... 1000 MHz/140 W) exposed on the P630 prototype.  A
// FrequencyTable holds such a set plus the minimum stable voltage for each
// frequency, and answers the queries the scheduling algorithm needs:
// lowest/highest setting, the next lower setting, the highest setting
// whose peak power fits under a cap, and the equal-share frequency.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace fvsst::mach {

/// Slack applied to power-cap comparisons throughout the scheduler stack.
/// A budget that admits a setting *exactly* (budget == n * watts) must
/// select it even when the caller derived the cap arithmetically (a
/// per-processor share like budget / n, or an incrementally maintained
/// running total): those derivations sit within an ulp or two of the exact
/// value, and a strict comparison at the boundary would spuriously reject
/// the only feasible setting.
inline constexpr double kPowerSlackW = 1e-9;

/// One available frequency setting with its minimum stable voltage and the
/// pre-computed peak (upper-bound) power at that voltage.
struct OperatingPoint {
  double hz = 0.0;     ///< Core frequency in hertz.
  double volts = 0.0;  ///< Minimum voltage that reliably drives `hz`.
  double watts = 0.0;  ///< Peak per-core power at (`hz`, `volts`).
};

/// Immutable, ascending-sorted set of operating points.
class FrequencyTable {
 public:
  FrequencyTable() = default;

  /// Builds from arbitrary-order points; sorts ascending by frequency.
  /// Throws std::invalid_argument on duplicates or non-positive values.
  explicit FrequencyTable(std::vector<OperatingPoint> points);

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  const OperatingPoint& operator[](std::size_t i) const { return points_[i]; }
  const std::vector<OperatingPoint>& points() const { return points_; }

  const OperatingPoint& min_point() const;
  const OperatingPoint& max_point() const;
  double min_hz() const { return min_point().hz; }
  double max_hz() const { return max_point().hz; }

  /// Index of the point with exactly this frequency; nullopt if absent.
  std::optional<std::size_t> index_of(double hz) const;

  /// True if `hz` is one of the available settings.
  bool contains(double hz) const { return index_of(hz).has_value(); }

  /// Minimum stable voltage for an exact frequency setting (paper step 3,
  /// "table look-up").  Throws std::out_of_range if `hz` is not in the set.
  double min_voltage(double hz) const;

  /// Peak power for an exact frequency setting.  Throws if absent.
  double power(double hz) const;

  /// Next lower setting than `hz` ("f_less" in the paper's step 2);
  /// nullopt when `hz` is already the lowest setting.
  std::optional<OperatingPoint> next_lower(double hz) const;

  /// Next higher setting than `hz`; nullopt when already at the maximum.
  std::optional<OperatingPoint> next_higher(double hz) const;

  /// Highest setting whose peak power is <= `watts`; nullopt when even the
  /// lowest setting exceeds the cap.
  std::optional<OperatingPoint> highest_under_power(double watts) const;

  /// The equal-share rule: the frequency each of `procs` processors runs
  /// at when they split `budget_w` evenly — the highest setting whose peak
  /// power fits budget_w / procs, else f_min (best effort: even the floor
  /// overshoots the share).  `procs` 0 counts as 1.
  double equal_share_hz(double budget_w, std::size_t procs) const;

  /// Highest setting with frequency <= `hz_cap`; nullopt when `hz_cap` is
  /// below the lowest setting.
  std::optional<OperatingPoint> highest_under_frequency(double hz_cap) const;

  /// Lowest setting with frequency >= `hz`; clamps to max when above range.
  /// Used to snap a continuous f_ideal onto the grid.
  const OperatingPoint& ceil_point(double hz) const;

  /// Restricts the table to settings with frequency <= `hz_cap` (used for
  /// the paper's frequency-cap experiments, Fig. 8).  Throws if the result
  /// would be empty.
  FrequencyTable capped_at(double hz_cap) const;

  /// The largest watts over the points when every watts value is an
  /// integer below 2^52 (P630 Table 1), else +inf: what cpu::PowerLedger
  /// needs to know whether its running total stays exact.  Computed once
  /// at construction, so copies (one per node) carry it for free.
  double integer_watts_bound() const { return integer_watts_bound_; }

 private:
  std::vector<OperatingPoint> points_;
  double integer_watts_bound_ = 0.0;
};

}  // namespace fvsst::mach
