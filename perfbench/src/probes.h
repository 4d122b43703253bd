// probes.h - The benchmark's instrumentation, all of it outside the
// simulator: a process-wide allocation counter, an in-memory span
// recorder, and decorators for the seams the daemons already accept
// (core::PolicyStageFactory, sim::JournalWriter, and the power function
// handed to power::PowerSensor).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string_view>
#include <vector>

#include "core/control_loop.h"
#include "simkit/event_log.h"

// The simulator's modules, aliased into the benchmark's namespace.
namespace fvsst::power {}
namespace fvsst::workload {}

namespace perfbench {

namespace cluster = fvsst::cluster;
namespace core = fvsst::core;
namespace cpu = fvsst::cpu;
namespace mach = fvsst::mach;
namespace power = fvsst::power;
namespace sim = fvsst::sim;
namespace workload = fvsst::workload;

/// Journal fields that record host wall-clock time of the scheduling
/// stages.  They differ from run to run, so every hash the benchmark takes
/// skips them.  Once the simulator stops journalling them, delete the list.
inline constexpr std::array<std::string_view, 5> kHostWallClockFields = {
    "estimate_s", "policy_s", "actuate_s", "sample_s", "cycle_s"};

/// Allocations made through the global operator new since process start
/// (every thread).  The benchmark binary replaces operator new to count.
std::uint64_t allocations();

/// Monotonic host time in nanoseconds.
std::int64_t host_now_ns();
inline double host_now_s() { return static_cast<double>(host_now_ns()) * 1e-9; }

/// What a span covers.  Each is a call from the benchmark's code into one
/// module's public surface.
enum class SpanKind : std::uint8_t {
  kEvent,         ///< One Simulation::step() of the driven dispatch loop.
  kPolicy,        ///< PolicyStage::decide (core), via the policy factory.
  kJournalWrite,  ///< The real JSONL/FJB JournalWriter (simkit).
  kJournalCheck,  ///< The benchmark's own checker and digest per event.
  kPowerFn,       ///< The power function handed to PowerSensor (cluster).
  kClusterBuild,  ///< Cluster + workloads construction (cluster, cpu).
  kDaemonBuild,   ///< Daemon construction (core).
};
inline constexpr std::size_t kSpanKinds = 7;
const char* span_name(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kEvent;
  std::int32_t parent = -1;     ///< Index of the enclosing span, -1: none.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;     ///< Allocations inside the span (inclusive).
};

/// Spans kept in memory (single-threaded: only the simulation thread opens
/// them) and written out after the run.  Storage is reserved up front so
/// recording allocates nothing; spans past the reservation are dropped and
/// counted.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity);

  void open(SpanKind kind);
  void close();

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

  /// Writes one tab-separated line per span: index, parent, name,
  /// start_ns, end_ns, allocs.
  void write_tsv(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::size_t dropped_ = 0;
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanKind kind) : recorder_(recorder) {
    if (recorder_) recorder_->open(kind);
  }
  ~ScopedSpan() {
    if (recorder_) recorder_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// What the policy decorator saw besides its spans.
struct PolicyStats {
  std::uint64_t downgrade_steps = 0;  ///< Summed over all results.
};

/// A policy factory building the daemons' default SchedulerPolicyStage
/// wrapped in a decorator that records every decide() as a span in `spans`
/// and its result in `stats` (neither owned; both must outlive the daemon).
core::PolicyStageFactory timed_policy_factory(SpanRecorder* spans,
                                              PolicyStats* stats);

/// Output stream buffer that discards bytes and counts them.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  std::uint64_t bytes_ = 0;
};

/// The benchmark's journal sink, attached with EventLog::stream_to.  Each
/// sealed event is fed to sim::JournalChecker, counted, and handed to the
/// real encoder (JSONL or FJB) writing into a byte-counting null stream, so
/// the run pays the simulator's true encode cost without disk noise.  With
/// `digest` set, each event is also folded into a digest that skips
/// kHostWallClockFields (only the traced runs, which compare digests, pay
/// for it).
class JournalTap final : public sim::JournalWriter {
 public:
  JournalTap(sim::JournalFormat format, SpanRecorder* spans, bool digest);

  void write(const sim::Event& e) override;
  void flush() override;
  std::size_t events_written() const override { return events_; }

  std::uint64_t bytes() const { return buf_.bytes(); }
  std::uint64_t digest() const { return digest_; }
  std::size_t node_applies() const { return node_applies_; }
  sim::JournalCheckReport finish_check() { return checker_.finish(); }

 private:
  CountingBuf buf_;
  std::ostream out_;
  std::unique_ptr<sim::JournalWriter> encoder_;
  SpanRecorder* spans_;
  sim::JournalChecker checker_;
  bool digest_on_;
  std::uint64_t digest_;
  std::size_t events_ = 0;
  std::size_t node_applies_ = 0;
};

/// FNV-1a over raw bytes, for fingerprints and digests.
void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n);
inline void fnv_double(std::uint64_t& h, double v) { fnv_bytes(h, &v, sizeof v); }
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Median of a sample; 0 for an empty one.
double median(std::vector<double> v);

}  // namespace perfbench
