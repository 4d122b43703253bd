// power_ledger.h - Cached aggregate CPU power over a fixed set of cores.
//
// The paper's budget constrains the sum of every processor's peak power at
// its requested operating point.  Walking every node and core for that sum
// costs O(N) pointer chases per query, and the cluster daemons, sensors and
// monitors query it far more often than any set-point moves.  A PowerLedger
// keeps each processor's watts in one contiguous array (group-major: a
// group is a node), is told of every set-point change by Core, and re-sums
// only when some processor's watts changed since the last query.
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

  /// Records that processor `slot` now requests `hz`.  An off-table `hz` is
  /// accepted and makes total_w() throw until a table point is set again.
  void set_frequency(std::size_t slot, double hz);

  /// Sum over groups of (0.0 + w_0 + w_1 + ...), each group added left to
  /// right into a 0.0 cluster total: bit-identical to summing each node's
  /// own walk.  Re-sums only after a processor's watts changed.  Throws
  /// std::out_of_range while any processor sits at an off-table frequency,
  /// as FrequencyTable::power does.
  double total_w() const;

 private:
  std::vector<const mach::FrequencyTable*> tables_;
  std::vector<double> watts_;  ///< NaN while off-table.
  std::vector<std::size_t> group_end_;
  std::size_t off_table_ = 0;
  mutable double total_w_ = 0.0;
  mutable bool stale_ = true;
};

}  // namespace fvsst::cpu
