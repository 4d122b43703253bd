#include "cpu/power_ledger.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace fvsst::cpu {

void PowerLedger::reserve(std::size_t cpus, std::size_t groups) {
  tables_.reserve(cpus);
  watts_.reserve(cpus);
  group_end_.reserve(groups);
}

std::size_t PowerLedger::add_cpu(const mach::FrequencyTable& table,
                                 double hz) {
  // Strictly below 2^53: a rounded running sum can then never hide a true
  // sum past the last exactly representable integer.
  watts_bound_sum_ += table.integer_watts_bound();
  exact_ = exact_ && watts_bound_sum_ < 0x1p53;
  tables_.push_back(&table);
  watts_.push_back(std::numeric_limits<double>::quiet_NaN());
  ++off_table_;
  const std::size_t slot = watts_.size() - 1;
  set_frequency(slot, hz);
  return slot;
}

void PowerLedger::close_group() {
  group_end_.push_back(watts_.size());
  stale_ = true;
}

void PowerLedger::set_frequency(std::size_t slot, double hz) {
  const mach::FrequencyTable& table = *tables_[slot];
  const auto index = table.index_of(hz);
  const double watts = index ? table[*index].watts
                             : std::numeric_limits<double>::quiet_NaN();
  const double old = watts_[slot];
  watts_[slot] = watts;
  if (std::isnan(old)) --off_table_;
  if (!index) ++off_table_;
  if (watts == old) return;
  if (exact_ && !stale_ && !std::isnan(watts) && !std::isnan(old)) {
    total_w_ += watts - old;
  } else {
    stale_ = true;
  }
}

double PowerLedger::total_w() const {
  if (off_table_ > 0) {
    throw std::out_of_range("FrequencyTable: unknown frequency");
  }
  if (stale_) {
    double total = 0.0;
    std::size_t c = 0;
    for (const std::size_t end : group_end_) {
      double group = 0.0;
      for (; c < end; ++c) group += watts_[c];
      total += group;
    }
    total_w_ = total;
    stale_ = false;
  }
  return total_w_;
}

}  // namespace fvsst::cpu
