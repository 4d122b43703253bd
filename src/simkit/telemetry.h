// telemetry.h - Named-metric registry shared by the control-loop daemons.
//
// The paper's post-processing relies on the daemon's scheduling and
// performance-counter logs (per-CPU granted/desired frequency, predicted
// and measured IPC, deviation, power).  Instead of every daemon carrying
// hand-rolled trace members, a MetricRegistry owns the traces under
// structured keys ("cpu3/granted_hz") and exports them through pluggable
// sinks: the in-memory TimeSeries themselves, one-CSV-per-metric
// directories, or JSON lines.  Scalar counters (cycle counts) live
// alongside the series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simkit/time_series.h"

namespace fvsst::sim {

/// Writes `s` to `out` as a JSON string literal: `"` and `\` are
/// backslash-escaped and every control character < 0x20 becomes `\uXXXX`
/// (`\n`/`\t`/`\r`/`\b`/`\f` use their short forms).
void write_json_string(std::ostream& out, std::string_view s);

/// Receives every metric in a registry; implement to add export formats.
class MetricSink {
 public:
  virtual ~MetricSink() = default;
  virtual void series(const std::string& key, const TimeSeries& s) = 0;
  virtual void counter(const std::string& key, double value) = 0;
};

/// Interned handle to a registry series: the string key is resolved (and
/// the hash paid) exactly once, in MetricRegistry::intern_series; every
/// access afterwards is an array index.  Handles stay valid for the
/// registry's lifetime and are cheap to copy.
struct MetricId {
  std::size_t index = static_cast<std::size_t>(-1);
  bool valid() const { return index != static_cast<std::size_t>(-1); }
};

/// Interned handle to a registry counter (see MetricId).
struct CounterId {
  std::size_t index = static_cast<std::size_t>(-1);
  bool valid() const { return index != static_cast<std::size_t>(-1); }
};

/// Owner of named metrics.  References returned by series()/counter() stay
/// valid for the registry's lifetime (storage is a deque), so hot paths can
/// hold the pointer and append without lookups — or intern the key into a
/// MetricId/CounterId at construction and index through that.  The
/// string-keyed accessors are thin wrappers over the intern path; each of
/// their hash-map probes is tallied in map_lookups(), so a hot loop can
/// assert it does none.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Finds or registers the series stored under `key` and returns its
  /// handle — the one-time string resolution of the hot path.
  /// `display_name` (used for chart labels and CSV headers) is applied
  /// only on first registration and defaults to the key itself.
  MetricId intern_series(const std::string& key,
                         const std::string& display_name = {});

  /// Finds or registers a scalar counter (starts at 0) and returns its
  /// handle.
  CounterId intern_counter(const std::string& key);

  /// O(1) handle access; no hashing, no lookup counting.
  TimeSeries& series(MetricId id) { return series_storage_[id.index]; }
  const TimeSeries& series(MetricId id) const {
    return series_storage_[id.index];
  }
  double& counter(CounterId id) { return counter_storage_[id.index]; }
  double counter(CounterId id) const { return counter_storage_[id.index]; }

  /// The key a handle was interned under.
  const std::string& series_key(MetricId id) const {
    return series_keys_[id.index];
  }
  const std::string& counter_key(CounterId id) const {
    return counter_keys_[id.index];
  }

  /// Finds or registers the series stored under `key` (string-keyed
  /// compatibility wrapper over intern_series).
  TimeSeries& series(const std::string& key, const std::string& display_name = {});

  /// Series stored under `key`, or nullptr when absent.
  const TimeSeries* find_series(const std::string& key) const;

  /// Series stored under `key`; throws std::out_of_range when absent.
  const TimeSeries& at(const std::string& key) const;

  /// Finds or registers a scalar counter (starts at 0); string-keyed
  /// compatibility wrapper over intern_counter.
  double& counter(const std::string& key);

  /// Counter value, or 0 when absent.
  double counter_value(const std::string& key) const;

  /// Hash-map probes made by the string-keyed accessors so far.  Debug
  /// aid for the zero-lookup steady-state contract: snapshot before a
  /// stretch of hot cycles, assert the delta is zero after.
  std::uint64_t map_lookups() const { return map_lookups_; }

  /// Registration-ordered keys.
  const std::vector<std::string>& series_keys() const { return series_keys_; }
  const std::vector<std::string>& counter_keys() const { return counter_keys_; }

  std::size_t series_count() const { return series_keys_.size(); }
  std::size_t counter_count() const { return counter_keys_.size(); }

  /// Streams every metric through `sink` in registration order (series
  /// first, then counters).
  void export_to(MetricSink& sink) const;

 private:
  std::deque<TimeSeries> series_storage_;
  std::vector<std::string> series_keys_;
  std::unordered_map<std::string, std::size_t> series_index_;
  std::deque<double> counter_storage_;
  std::vector<std::string> counter_keys_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  mutable std::uint64_t map_lookups_ = 0;
};

/// Writes each series as `<dir>/<key>.csv` ('/' in keys becomes '_') and
/// all counters into `<dir>/counters.csv`.  Best effort: unwritable paths
/// are counted, not thrown.
class CsvDirectorySink final : public MetricSink {
 public:
  /// `dt` > 0 resamples each series onto a uniform grid; 0 writes raw
  /// samples.
  explicit CsvDirectorySink(std::string dir, double dt = 0.0);
  ~CsvDirectorySink() override;

  void series(const std::string& key, const TimeSeries& s) override;
  void counter(const std::string& key, double value) override;

  std::size_t failures() const { return failures_; }

 private:
  std::string dir_;
  double dt_;
  std::size_t failures_ = 0;
  std::vector<std::pair<std::string, double>> counters_;
};

/// Writes one JSON object per line:
///   {"metric":"cpu0/granted_hz","name":"granted_hz","samples":[[t,v],...]}
///   {"metric":"loop/cycles","value":12}
class JsonLinesSink final : public MetricSink {
 public:
  explicit JsonLinesSink(std::ostream& out) : out_(out) {}

  void series(const std::string& key, const TimeSeries& s) override;
  void counter(const std::string& key, double value) override;

 private:
  std::ostream& out_;
};

}  // namespace fvsst::sim
