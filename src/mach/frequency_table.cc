#include "mach/frequency_table.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace fvsst::mach {

FrequencyTable::FrequencyTable(std::vector<OperatingPoint> points)
    : points_(std::move(points)) {
  if (points_.empty()) {
    throw std::invalid_argument("FrequencyTable: no operating points");
  }
  std::sort(points_.begin(), points_.end(),
            [](const OperatingPoint& a, const OperatingPoint& b) {
              return a.hz < b.hz;
            });
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const auto& p = points_[i];
    if (p.hz <= 0.0 || p.volts <= 0.0 || p.watts <= 0.0) {
      throw std::invalid_argument(
          "FrequencyTable: non-positive frequency/voltage/power");
    }
    if (i > 0 && points_[i - 1].hz == p.hz) {
      throw std::invalid_argument("FrequencyTable: duplicate frequency");
    }
    // The cast round trip is exact only for integers; NaN fails the bound.
    if (p.watts < 0x1p52 &&
        static_cast<double>(static_cast<std::int64_t>(p.watts)) == p.watts) {
      integer_watts_bound_ = std::max(integer_watts_bound_, p.watts);
    } else {
      integer_watts_bound_ = std::numeric_limits<double>::infinity();
    }
  }
}

const OperatingPoint& FrequencyTable::min_point() const {
  if (points_.empty()) throw std::out_of_range("FrequencyTable: empty");
  return points_.front();
}

const OperatingPoint& FrequencyTable::max_point() const {
  if (points_.empty()) throw std::out_of_range("FrequencyTable: empty");
  return points_.back();
}

std::optional<std::size_t> FrequencyTable::index_of(double hz) const {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].hz == hz) return i;
  }
  return std::nullopt;
}

double FrequencyTable::min_voltage(double hz) const {
  const auto i = index_of(hz);
  if (!i) throw std::out_of_range("FrequencyTable: unknown frequency");
  return points_[*i].volts;
}

double FrequencyTable::power(double hz) const {
  const auto i = index_of(hz);
  if (!i) throw std::out_of_range("FrequencyTable: unknown frequency");
  return points_[*i].watts;
}

std::optional<OperatingPoint> FrequencyTable::next_lower(double hz) const {
  std::optional<OperatingPoint> best;
  for (const auto& p : points_) {
    if (p.hz < hz) best = p;  // points_ ascending: last match is the closest
  }
  return best;
}

std::optional<OperatingPoint> FrequencyTable::next_higher(double hz) const {
  for (const auto& p : points_) {
    if (p.hz > hz) return p;
  }
  return std::nullopt;
}

std::optional<OperatingPoint> FrequencyTable::highest_under_power(
    double watts) const {
  std::optional<OperatingPoint> best;
  for (const auto& p : points_) {
    // kPowerSlackW: a cap that admits a point exactly must select it even
    // when the caller computed the cap arithmetically (budget / n lands an
    // ulp below the table value).
    if (p.watts <= watts + kPowerSlackW) best = p;
  }
  return best;
}

double FrequencyTable::equal_share_hz(double budget_w,
                                      std::size_t procs) const {
  const auto point = highest_under_power(
      budget_w / static_cast<double>(std::max<std::size_t>(procs, 1)));
  return point ? point->hz : min_hz();
}

std::optional<OperatingPoint> FrequencyTable::highest_under_frequency(
    double hz_cap) const {
  std::optional<OperatingPoint> best;
  for (const auto& p : points_) {
    if (p.hz <= hz_cap) best = p;
  }
  return best;
}

const OperatingPoint& FrequencyTable::ceil_point(double hz) const {
  for (const auto& p : points_) {
    if (p.hz >= hz) return p;
  }
  return max_point();
}

FrequencyTable FrequencyTable::capped_at(double hz_cap) const {
  std::vector<OperatingPoint> kept;
  for (const auto& p : points_) {
    if (p.hz <= hz_cap) kept.push_back(p);
  }
  return FrequencyTable(std::move(kept));
}

}  // namespace fvsst::mach
