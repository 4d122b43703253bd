// power_ledger.h - Cached aggregate CPU power over a fixed set of cores.
//
// The paper's budget constrains the sum of every processor's peak power at
// its requested operating point.  Walking every node and core for that sum
// costs O(N) pointer chases per query, and the cluster daemons, sensors and
// monitors query it far more often than any set-point moves.  A PowerLedger
// keeps each processor's watts in one contiguous array (group-major: a
// group is a node) and is told of every set-point change by Core.  When
// every table's watts are integers (P630 Table 1) the total is kept exactly
// by adding each change's difference; otherwise a query after a change
// re-sums the array.
#pragma once

#include <cstddef>
#include <vector>

#include "mach/frequency_table.h"

namespace fvsst::cpu {

/// Per-processor peak watts at each requested operating point, summed in
/// the nested order a node-by-node walk uses.
class PowerLedger {
 public:
  PowerLedger() = default;
  // Cores hold the ledger's address.
  PowerLedger(const PowerLedger&) = delete;
  PowerLedger& operator=(const PowerLedger&) = delete;

  /// Sizes the storage for `cpus` processors in `groups` groups.
  void reserve(std::size_t cpus, std::size_t groups);

  /// Appends a processor drawing `table`'s power at `hz` to the open group
  /// and returns its slot.  `table` must stay valid while the slot is
  /// updated or the total queried.
  std::size_t add_cpu(const mach::FrequencyTable& table, double hz);

  /// Closes the open group: the processors added since the last close.
  void close_group();

  /// Records that processor `slot` now requests `hz`.  O(1).  An off-table
  /// `hz` is accepted and makes total_w() throw until a table point is set
  /// again.
  void set_frequency(std::size_t slot, double hz);

  /// Sum over groups of (0.0 + w_0 + w_1 + ...), each group added left to
  /// right into a 0.0 cluster total: bit-identical to summing each node's
  /// own walk.  O(1) when exact() holds; otherwise re-sums the array after
  /// a processor's watts changed.  Throws std::out_of_range while any
  /// processor sits at an off-table frequency, as FrequencyTable::power
  /// does.
  double total_w() const;

  /// Every table's watts are integers (FrequencyTable::
  /// integer_watts_bound) and the sum over processors of each table's
  /// largest watts is below 2^53.  Every partial sum is then an exactly
  /// representable integer, so set_frequency() keeps the total by adding
  /// the difference, which equals the nested fold bit for bit.
  bool exact() const { return exact_; }

 private:
  std::vector<const mach::FrequencyTable*> tables_;
  std::vector<double> watts_;  ///< NaN while off-table.
  std::vector<std::size_t> group_end_;
  std::size_t off_table_ = 0;
  bool exact_ = true;
  /// Σ over processors of their table's integer_watts_bound().
  double watts_bound_sum_ = 0.0;
  mutable double total_w_ = 0.0;
  mutable bool stale_ = true;
};

}  // namespace fvsst::cpu
