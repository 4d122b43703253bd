// probes.cc - Allocation counter, span recorder and seam decorators.
#include "probes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <utility>

#include "core/scheduler.h"

// Heap-allocation counter (the idiom of bench/bench_micro_substrate.cpp).
// Replacing operator new/delete here intercepts every allocation in the
// benchmark process, simulator included.  GCC flags malloc-backed operator
// new paired with std::free as a mismatched pair at inlined call sites; the
// pairing is the point of the interposer, so silence that diagnostic.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kEvent: return "simkit.event";
    case SpanKind::kPolicy: return "core.policy_decide";
    case SpanKind::kJournalWrite: return "simkit.journal_write";
    case SpanKind::kJournalCheck: return "bench.journal_check";
    case SpanKind::kPowerFn: return "power.sensor_power_fn";
    case SpanKind::kClusterBuild: return "cluster.build";
    case SpanKind::kDaemonBuild: return "core.daemon_build";
  }
  return "?";
}

SpanRecorder::SpanRecorder(std::size_t capacity) {
  spans_.reserve(capacity);
  stack_.reserve(64);
}

void SpanRecorder::open(SpanKind kind) {
  if (spans_.size() == spans_.capacity() || stack_.size() == stack_.capacity()) {
    ++dropped_;
    stack_.push_back(-1);  // keeps open/close balanced without storage
    return;
  }
  Span s;
  s.kind = kind;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.allocs = allocations();
  stack_.push_back(static_cast<std::int32_t>(spans_.size()));
  spans_.push_back(s);
  spans_.back().start_ns = host_now_ns();  // last, so set-up is not timed
}

void SpanRecorder::close() {
  const std::int64_t end = host_now_ns();
  const std::int32_t idx = stack_.back();
  stack_.pop_back();
  if (idx < 0) return;
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end_ns = end;
  s.allocs = allocations() - s.allocs;
}

void SpanRecorder::write_tsv(std::ostream& out) const {
  out << "index\tparent\tname\tstart_ns\tend_ns\tallocs\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << span_name(s.kind) << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t' << s.allocs << '\n';
  }
}

namespace {

class TimedPolicyStage final : public core::PolicyStage {
 public:
  TimedPolicyStage(std::unique_ptr<core::PolicyStage> inner,
                   SpanRecorder* spans, PolicyStats* stats)
      : inner_(std::move(inner)), spans_(spans), stats_(stats) {}

  core::ScheduleResult decide(
      const std::vector<core::ProcView>& views,
      const std::vector<const mach::FrequencyTable*>& tables,
      double power_budget_w) override {
    core::ScheduleResult result;
    {
      ScopedSpan span(spans_, SpanKind::kPolicy);
      result = inner_->decide(views, tables, power_budget_w);
    }
    stats_->downgrade_steps += result.downgrade_steps;
    return result;
  }

  double predict_ipc(const core::ProcView& view, double hz) const override {
    return inner_->predict_ipc(view, hz);
  }

 private:
  std::unique_ptr<core::PolicyStage> inner_;
  SpanRecorder* spans_;
  PolicyStats* stats_;
};

}  // namespace

core::PolicyStageFactory timed_policy_factory(SpanRecorder* spans,
                                              PolicyStats* stats) {
  return [spans, stats](const mach::FrequencyTable& table,
                        const mach::MemoryLatencies& latencies,
                        const core::FrequencyScheduler::Options& options)
             -> std::unique_ptr<core::PolicyStage> {
    return std::make_unique<TimedPolicyStage>(
        std::make_unique<core::SchedulerPolicyStage>(table, latencies,
                                                     options),
        spans, stats);
  };
}

CountingBuf::int_type CountingBuf::overflow(int_type ch) {
  if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
  return traits_type::not_eof(ch);
}

std::streamsize CountingBuf::xsputn(const char*, std::streamsize n) {
  bytes_ += static_cast<std::uint64_t>(n);
  return n;
}

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

bool is_host_wall_clock_field(std::string_view key) {
  for (std::string_view f : kHostWallClockFields) {
    if (key == f) return true;
  }
  return false;
}

}  // namespace

JournalTap::JournalTap(sim::JournalFormat format, SpanRecorder* spans,
                       bool digest)
    : out_(&buf_), spans_(spans), digest_on_(digest), digest_(kFnvBasis) {
  if (format == sim::JournalFormat::kBinary) {
    encoder_ = std::make_unique<sim::BinaryJournalWriter>(out_);
  } else {
    encoder_ = std::make_unique<sim::JsonlStreamWriter>(out_);
  }
}

void JournalTap::write(const sim::Event& e) {
  {
    ScopedSpan span(spans_, SpanKind::kJournalCheck);
    checker_.observe(e);
    if (digest_on_) {
      fnv_double(digest_, e.t);
      const auto type = static_cast<unsigned char>(e.type);
      fnv_bytes(digest_, &type, 1);
      fnv_bytes(digest_, &e.cpu, sizeof e.cpu);
      for (const auto& [key, value] : e.num) {
        if (is_host_wall_clock_field(key)) continue;
        fnv_bytes(digest_, key.data(), key.size());
        fnv_double(digest_, value);
      }
      for (const auto& [key, value] : e.str) {
        fnv_bytes(digest_, key.data(), key.size());
        fnv_bytes(digest_, value.data(), value.size());
      }
    }
    ++events_;
    if (e.type == sim::EventType::kActuation) {
      const std::string* stage = e.find_str("stage");
      if (stage && *stage == "node_apply") ++node_applies_;
    }
  }
  ScopedSpan span(spans_, SpanKind::kJournalWrite);
  encoder_->write(e);
}

void JournalTap::flush() {
  ScopedSpan span(spans_, SpanKind::kJournalWrite);
  encoder_->flush();
}

}  // namespace perfbench
