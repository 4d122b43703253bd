// event_log.h - Structured decision journal for the control loop.
//
// The paper's evaluation (Fig. 4-9, Table 2) is post-processing of the
// daemon's scheduling logs, and PAPERS.md's trace-driven schedulability
// work validates frequency-scaling behaviour the same way: from execution
// traces.  MetricRegistry records *what* was decided (named series); the
// EventLog records *why*: timestamped, typed events for every scheduling
// cycle — the trigger, each processor's decision with its pass-1 rationale,
// the pass-2 downgrade order, budget changes, idle transitions, infeasible
// budgets and actuations — each carrying a small key/value payload.
//
// The journal is purely observational: recording reads simulation state and
// never mutates it, so schedules are bit-for-bit identical with it on or
// off.  A bounded ring-buffer mode (capacity > 0) keeps long-lived daemons
// at fixed memory by dropping the oldest events.
//
// Three export formats plus readers:
//   write_jsonl        one JSON object per line; read_jsonl loads it back.
//   write_binary       length-prefixed binary records ("FJB1" magic): the
//                      same Event model, ~an order of magnitude cheaper to
//                      serialize, and losslessly convertible to the exact
//                      JSONL bytes (doubles travel as raw bits).
//   write_chrome_trace Chrome trace-event JSON (open in Perfetto or
//                      chrome://tracing): cycles, triggers and idle
//                      transitions as instant events, power/budget/frequency
//                      as counter tracks.
// check_journal verifies scheduling invariants over a journal and
// diff_journals compares two runs — the engine behind tools/fvsst_inspect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fvsst::sim {

/// What a journal event describes.  The schema (payload keys per type) is
/// documented next to each enumerator; producers live in core::ControlLoop
/// and the daemon facades.
enum class EventType {
  /// Once per run, from the facade: "t_sample_s", "multiplier", "cpus",
  /// "t_restarts" (1 when a budget trigger restarts the period T, the SMP
  /// daemon's semantic); str "daemon".
  kRunMeta,
  /// One per (cpu, operating point): "hz", "volts", "watts" — the ground
  /// truth for the inspector's minimum-voltage check.
  kTablePoint,
  /// One per scheduling cycle: "cycle", "budget_w"; str "trigger"
  /// (timer | budget | manual).
  kCycleStart,
  /// One per CPU per cycle: "granted_hz", "desired_hz", "volts", "watts",
  /// "predicted_loss", "idle"; str "pass1" (the pass-1 rationale) when the
  /// policy classifies; explain mode adds "pass1_loss", "rejected_loss".
  kDecision,
  /// Explain mode, one per pass-2 step: "seq", "from_hz", "to_hz",
  /// "marginal_loss", "watts_saved".
  kDowngrade,
  /// Power-limit move (the supply-failure trigger): "budget_w".
  kBudgetChange,
  kIdleEnter,  ///< A CPU's idle flag rose (no payload beyond cpu).
  kIdleExit,   ///< A CPU's idle flag cleared.
  /// Even all-minimum settings exceed the budget: "budget_w",
  /// "total_power_w".
  kInfeasibleBudget,
  /// Cycle applied: "total_power_w", "budget_w", "feasible",
  /// "downgrade_steps".  The cluster daemon also emits deferred per-node
  /// applies with str "stage" = "node_apply" and "node",
  /// "cluster_power_w".
  kActuation,
  /// An injected or observed fault: str "kind" (a sim::FaultKind wire
  /// name), str "state" (enter | exit) for windowed faults, plus
  /// kind-specific fields ("attempt", "target_hz" for actuation rejects,
  /// "held_w" for sensor dropout).
  kFault,
  /// The engine entered or left a degraded operating mode: str "state"
  /// (enter | exit), str "reason" (actuation_failsafe | node_silent |
  /// coordinator_silent), "hz" (the fail-safe grant) or "node" (the silent
  /// node; for coordinator_silent, the node that dropped to its autonomous
  /// budget/N frequency).
  kDegradedMode,
  /// A cluster message was dropped in flight: str "direction" (up | down),
  /// "node"; str "cause" = "fault" when a FaultPlan forced the drop.
  kMessageLost,
  /// A cluster coordinator announced a new epoch: "epoch", "coordinator";
  /// str "reason" (boot | takeover | stepdown).  Epochs must be
  /// non-decreasing over the journal (the inspector enforces it).
  kEpochChange,
  /// A node fenced off a settings message from a deposed coordinator:
  /// "node", "msg_epoch" (the stale message's epoch), "epoch" (the node's
  /// fence).
  kSettingsRejected,
  /// Coordinator stable-store activity: "epoch", "round", "budget_w"; str
  /// "op" (save | recover); recover adds "replayed" (grant records applied
  /// on top of the snapshot) and "checksum_ok".
  kSnapshot,
  // New event types are appended (never inserted): the enumerator value
  // travels as the u8 type byte of FJB1 binary records, so reordering
  // would silently re-type every existing binary journal.
  /// A monitor rule started firing: str "rule", "severity", "expr"; num
  /// "value" (the aggregate that crossed), "threshold", "window_s",
  /// "for_windows".  Producer: sim::monitor::Monitor.
  kAlertRaised,
  /// The rule's predicate went false while firing: str "rule", "severity";
  /// num "value", "raised_t", "duration_s".
  kAlertCleared,
  /// The reliable transport re-sent an unacked settings message: "node",
  /// "seq", "attempt" (1 = first retransmission); str "direction"
  /// ("down").  Producer: cluster::Transport via the cluster daemon.
  kMessageRetransmit,
  /// A sequenced message was suppressed at the receiver as a duplicate or
  /// stale reordered copy (at-least-once delivery, effectively-once
  /// apply): "node", "seq", "applied_seq"; str "direction".
  kMessageDuplicate,
  /// The transport gave up on an unacked message: "node", "seq",
  /// "attempts"; str "cause" ("retries" = retransmit budget exhausted,
  /// "epoch" = queue drained by the epoch fence across failover).
  kMessageExpired,
  /// A message failed its envelope checksum at the receiver (injected
  /// kChannelCorrupt) and was dropped instead of misdelivered: "node";
  /// str "direction".
  kMessageCorrupt,
  /// A coordinator-tree summary round (producer: core::TreeDaemon).  The
  /// per-round root decision carries "round", "cpus", "idle",
  /// "desired_power_w", "power_w", "budget_w", "cap_hz", "promoted",
  /// "feasible", "lag_s"; str "trigger".  With per-shard journalling
  /// enabled (journal_topology), leaf/aggregate hops add "tier", "shard"
  /// or "agg", "bytes" and "mailbox".
  kAggregation,
};

/// Stable wire name ("cycle_start", "decision", ...).
std::string_view event_type_name(EventType type);

/// Inverse of event_type_name; nullopt for unknown names.
std::optional<EventType> event_type_from_name(std::string_view name);

/// True when `v` is an integer in [lo, 2^31 - 1], so it converts to int
/// exactly (a cast of anything else is undefined).  Every reader that
/// turns a journal number into an id or a count checks it first.
bool int_in_range(double v, double lo);

/// One journal entry: a timestamped, typed record with a small flat
/// key/value payload (numeric and string fields kept separately).
struct Event {
  double t = 0.0;                      ///< Simulated seconds.
  EventType type = EventType::kCycleStart;
  int cpu = -1;                        ///< Flattened CPU index; -1: global.
  std::vector<std::pair<std::string, double>> num;
  std::vector<std::pair<std::string, std::string>> str;

  Event& set(std::string key, double value) {
    num.emplace_back(std::move(key), value);
    return *this;
  }
  Event& set(std::string key, std::string value) {
    str.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  bool has_num(std::string_view key) const;
  /// Value of numeric field `key`, or `fallback` when absent.
  double num_or(std::string_view key, double fallback = 0.0) const;
  /// String field `key`, or nullptr when absent.
  const std::string* find_str(std::string_view key) const;
};

/// Appends `e`'s JSONL line (including the trailing newline) to `out` —
/// the exact bytes write_jsonl emits for that event.  write_jsonl and
/// JsonlStreamWriter both serialize through here, which is what makes the
/// buffered streaming path byte-identical to the end-of-run export by
/// construction.
void append_event_jsonl(std::string& out, const Event& e);

/// Thrown when a journal writer's underlying stream reports failure: the
/// bytes did not reach their destination (disk full, closed pipe, bad fd).
/// Journalling is observational, so callers usually report and keep the
/// simulation's results; what they must NOT do is trust the journal file.
class JournalWriteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sink for sealed journal events.  EventLog streams through this
/// interface, so a run can journal as JSONL or binary (or anything a test
/// fakes) without the producers knowing.  write() may buffer; flush()
/// drains and throws JournalWriteError if the underlying stream failed.
class JournalWriter {
 public:
  virtual ~JournalWriter() = default;
  virtual void write(const Event& e) = 0;
  virtual void flush() = 0;
  /// Events accepted by write() so far (buffered or flushed).
  virtual std::size_t events_written() const = 0;
};

/// Buffered JSONL emitter: serializes events into an internal buffer and
/// writes the underlying stream in `flush_bytes` chunks, so a scale run's
/// journal costs one syscall per few hundred events instead of one per
/// event.  flush() (also run by the destructor) drains the buffer and
/// throws JournalWriteError when the stream has failed; the destructor
/// swallows that error (it cannot throw), so callers who care about
/// durability must flush() explicitly before tearing down.
class JsonlStreamWriter final : public JournalWriter {
 public:
  explicit JsonlStreamWriter(std::ostream& out,
                             std::size_t flush_bytes = 64 * 1024);
  ~JsonlStreamWriter() override;
  JsonlStreamWriter(const JsonlStreamWriter&) = delete;
  JsonlStreamWriter& operator=(const JsonlStreamWriter&) = delete;

  void write(const Event& e) override;
  void flush() override;
  std::size_t events_written() const override { return events_; }

 private:
  std::ostream& out_;
  std::size_t flush_bytes_;
  std::string buffer_;
  std::size_t events_ = 0;
};

/// Buffered binary journal emitter.  The file is the 4-byte magic "FJB1"
/// followed by length-prefixed records: u32 payload length (little
/// endian), then the payload
///   u8  event type     (EventType enumerator value)
///   f64 t              (IEEE-754 bits, little endian)
///   i32 cpu            (little endian two's complement)
///   u16 num_count, u16 str_count
///   num_count x { u16 key length, key bytes, f64 value bits }
///   str_count x { u16 key length, key bytes, u32 value length, value }
/// Doubles travel as raw bits, so decoding and re-serializing with
/// append_event_jsonl reproduces the exact JSONL bytes write_jsonl would
/// have emitted — the converter is lossless both ways.  Same buffering and
/// error contract as JsonlStreamWriter.
class BinaryJournalWriter final : public JournalWriter {
 public:
  explicit BinaryJournalWriter(std::ostream& out,
                               std::size_t flush_bytes = 64 * 1024);
  ~BinaryJournalWriter() override;
  BinaryJournalWriter(const BinaryJournalWriter&) = delete;
  BinaryJournalWriter& operator=(const BinaryJournalWriter&) = delete;

  void write(const Event& e) override;
  void flush() override;
  std::size_t events_written() const override { return events_; }

 private:
  std::ostream& out_;
  std::size_t flush_bytes_;
  std::string buffer_;
  std::size_t events_ = 0;
};

/// Appends `e`'s length-prefixed binary record to `out` — the exact bytes
/// BinaryJournalWriter emits for that event (sans the file magic).
void append_event_binary(std::string& out, const Event& e);

/// Append-only journal, optionally bounded.  With capacity > 0 the log is a
/// ring buffer: appending past capacity drops the oldest event (counted in
/// dropped()).  References returned by append() stay valid until that event
/// is itself dropped (storage is a deque).
///
/// Unbounded logs can instead stream: attach a JournalWriter (JSONL or
/// binary) and each event is serialized once its payload is final (when
/// the next append arrives, or at flush_stream()) and released from
/// memory, so an arbitrarily long run journals in O(1) space.  A streamed
/// event's payload vectors are handed on to a later append(), cleared
/// with their capacity kept, so steady-state streaming allocates nothing
/// for payloads whose keys and string values fit std::string's small
/// buffer.
class EventLog {
 public:
  /// `capacity` 0 keeps everything (unbounded).
  explicit EventLog(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Appends and returns a new event for in-place payload population:
  ///   log.append(now, EventType::kDecision, cpu).set("granted_hz", hz);
  Event& append(double t, EventType type, int cpu = -1);

  /// Appends a fully built event (the JSONL reader's path).
  void push(Event event);

  /// Streams every future event to `writer` (nullptr detaches).  Only the
  /// newest, still-mutable event is retained in events(); each is sealed
  /// and handed to the writer when the next append arrives.  Requires an
  /// unbounded log: the ring's drop-oldest contract cannot be honoured
  /// once bytes have left the process, so capacity > 0 throws.  Events
  /// already in the log are sealed by the next append as usual.
  void stream_to(JournalWriter* writer);

  /// Seals any pending tail into the stream and flushes the writer; call
  /// once the run is over.  No-op when not streaming.
  void flush_stream();

  /// Events handed to the streaming writer so far.
  std::size_t streamed() const { return streamed_; }

  const std::deque<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  std::size_t capacity() const { return capacity_; }
  /// Events discarded by the ring buffer so far.
  std::size_t dropped() const { return dropped_; }
  void clear();

 private:
  void seal_into_stream();

  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::size_t streamed_ = 0;
  JournalWriter* stream_ = nullptr;
  std::deque<Event> events_;
  /// The event seal_into_stream() handed to the writer last, kept for its
  /// payload vectors' capacity (empty unless streaming).
  Event recycled_;
};

/// Writes one JSON object per event, one per line:
///   {"t":1.2,"type":"decision","cpu":3,"granted_hz":8e+08,"pass1":"epsilon"}
/// Reserved keys t/type/cpu come first; payload fields follow in insertion
/// order.  Non-finite values are clamped to the double range (JSON has no
/// infinity).
void write_jsonl(std::ostream& out, const EventLog& log);

/// Parses what write_jsonl wrote.  Unknown payload keys are kept; unknown
/// event types or malformed JSON throw std::runtime_error with a line
/// number.  Blank lines are skipped.
EventLog read_jsonl(std::istream& in);

/// Outcome of the tolerant read_jsonl overload.
struct JsonlReadReport {
  /// The final non-blank line failed to parse — the classic torn tail of a
  /// journal whose writer died mid-line.  The complete events before it
  /// were still recovered.
  bool torn_tail = false;
  std::string error;  ///< The tail's parse error (empty when !torn_tail).
};

/// Tolerant variant for journals that may end mid-write: a parse failure on
/// the *final* non-blank line is reported in `report` instead of thrown, and
/// every complete line before it is returned.  Corruption anywhere else
/// still throws — a torn tail is expected wear, a torn middle is not.
EventLog read_jsonl(std::istream& in, JsonlReadReport* report);

/// Streaming form of read_jsonl: invokes `fn` for each parsed event in
/// file order without materializing an EventLog, so a multi-GB scale-run
/// journal is inspected in bounded memory.  With `report` null any
/// malformed line throws (the strict contract); with `report` non-null the
/// tolerant torn-tail contract applies.  Returns the number of events
/// delivered.
std::size_t for_each_jsonl(std::istream& in,
                           const std::function<void(Event&&)>& fn,
                           JsonlReadReport* report = nullptr);

/// Writes the "FJB1" binary journal (see BinaryJournalWriter for the wire
/// layout).
void write_binary(std::ostream& out, const EventLog& log);

/// Streaming binary reader, the for_each_jsonl twin.  A record cut short
/// by the end of the stream — a partial length prefix or fewer payload
/// bytes than the prefix promised — is the binary torn tail: reported via
/// `report` (tolerant contract) or thrown (strict, `report` null); every
/// complete record before it is still delivered.  A payload that decodes
/// inconsistently (unknown event type, key running past the record, bytes
/// left over) is corruption and always throws, as does a missing or wrong
/// magic.  An empty stream is an empty journal.  Returns events delivered.
std::size_t for_each_binary(std::istream& in,
                            const std::function<void(Event&&)>& fn,
                            JsonlReadReport* report = nullptr);

/// Materializing wrappers over for_each_binary (strict / tolerant).
EventLog read_binary(std::istream& in);
EventLog read_binary(std::istream& in, JsonlReadReport* report);

/// On-disk journal encodings.
enum class JournalFormat { kJsonl, kBinary };

/// Sniffs which journal encoding `in` holds by peeking its first bytes
/// (the stream is rewound): the "FJB1" magic means binary, anything else
/// — including an empty or short stream — is JSONL, whose lines can never
/// start with that magic ('{' opens every line write_jsonl emits).
JournalFormat detect_journal_format(std::istream& in);

/// Writes Chrome trace-event JSON (load in Perfetto or chrome://tracing).
/// The timeline is simulated time in microseconds; cycles, triggers, idle
/// transitions and infeasible budgets render as instants, power/budget and
/// per-CPU granted/desired frequency as counter tracks.
void write_chrome_trace(std::ostream& out, const EventLog& log);

/// Outcome of check_journal.
struct JournalCheckReport {
  std::size_t checks_run = 0;               ///< Individual assertions made.
  std::vector<std::string> skipped;         ///< Checks lacking data.
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

/// Incremental journal verifier: feed events in journal order (observe),
/// then collect the report (finish).  State is O(1) in the journal length
/// — the operating-point tables, a few per-node epoch scalars and the one
/// open failover window — so multi-GB journals check in bounded memory
/// (pair with for_each_jsonl), and each event costs O(1): per-node state
/// and per-CPU tables are arrays indexed by id.  The checks and their
/// report wording are exactly check_journal's; the only caveat of the
/// single pass is that events are judged against the metadata seen *so
/// far*: a journal whose run_meta or table_point events trailed the
/// decisions they govern would skip those early events, which no writer in
/// this repo produces.
class JournalChecker {
 public:
  void observe(const Event& e);
  JournalCheckReport finish();

 private:
  /// State per id a journal names (a node or a CPU), default-constructed
  /// until first touched: a flat array over [-1, kDenseIds), every node
  /// and CPU id of a run with up to 2^20 CPUs, and a hash table for any
  /// other int (a hand-made journal's, say), so a hostile id costs one
  /// entry rather than an array that long.
  template <typename T>
  class IdTable {
   public:
    T& operator[](int id) {
      if (id < -1 || id >= kDenseIds) return sparse_[id];
      const auto i = static_cast<std::size_t>(id + 1);
      if (i >= dense_.size()) dense_.resize(i + 1);
      return dense_[i];
    }
    const T* find(int id) const {
      if (id < -1 || id >= kDenseIds) {
        const auto it = sparse_.find(id);
        return it == sparse_.end() ? nullptr : &it->second;
      }
      const auto i = static_cast<std::size_t>(id + 1);
      return i < dense_.size() ? &dense_[i] : nullptr;
    }

   private:
    static constexpr int kDenseIds = 1 << 20;
    std::vector<T> dense_;
    std::unordered_map<int, T> sparse_;
  };
  /// One operating point of a CPU's table.
  struct TablePoint {
    double hz = 0.0;
    double volts = 0.0;
  };
  /// Checks 4 and 6's memory of one node; each flag says whether its
  /// check has seen the node yet.
  struct NodeState {
    bool has_epoch = false;  ///< 4: highest applied epoch.
    bool has_seq = false;    ///< 6: newest applied (epoch, seq).
    bool has_apply = false;  ///< 6: earliest apply after the last disturbance.
    double epoch = 0.0;
    double seq_epoch = 0.0;
    double seq = 0.0;
    double apply_t = 0.0;
  };

  void observe_node_apply(const Event& e);

  std::size_t checks_run_ = 0;
  // 1. Budget compliance.
  std::vector<std::string> budget_violations_;
  // 2. Voltage-table minimum: per cpu, its table points sorted by hz,
  //    grown as table_point events arrive (a repeated hz overwrites).
  IdTable<std::vector<TablePoint>> tables_;
  bool any_table_ = false;
  std::vector<std::string> voltage_violations_;
  // 3. T-restart: (budget-cycle t, next timer-cycle t) gaps, judged at
  //    finish() once the first run_meta has declared (or not) the period.
  bool have_meta_ = false;
  double meta_t_sample_ = 0.0;
  double meta_multiplier_ = 0.0;
  double meta_t_restarts_ = 0.0;
  double meta_failover_window_ = 0.0;
  double pending_budget_cycle_t_ = -1.0;
  std::vector<std::pair<double, double>> restart_gaps_;
  // 4. Epoch fencing.
  bool any_epoch_data_ = false;
  double last_announced_ = -1.0;
  double max_announced_ = -1.0;
  bool saw_announcement_ = false;
  std::vector<std::string> epoch_violations_;
  // 5. Failover window: at most one window is open at a time (a newer
  //    budget change supersedes the previous window).
  double prev_budget_ = -1.0;
  bool window_open_ = false;
  double window_t_ = 0.0;
  double window_deadline_ = 0.0;
  double window_budget_ = 0.0;
  std::vector<std::string> failover_violations_;
  // 6. Transport (needs a kRunMeta with convergence_window_s > 0):
  //    monotone applied sequence per (node, epoch) — no duplicate or
  //    stale apply — and bounded convergence: after the last channel
  //    disturbance (message_lost / message_corrupt / message_expired),
  //    every node applies settings within the declared window.
  double meta_convergence_window_ = 0.0;
  int meta_nodes_ = 0;  ///< 0 unless run_meta declares a valid count.
  double last_disturb_t_ = -1.0;
  double last_event_t_ = 0.0;
  bool any_disturbance_ = false;
  std::vector<std::string> transport_violations_;
  // Per-node state of checks 4 and 6.
  IdTable<NodeState> nodes_;
  // Check 6: every node with has_apply set, in first-apply order, so
  // finish() judges the declared node count in O(applied nodes).
  std::vector<int> applied_nodes_;
  // A node_apply whose node is not an integer in [-1, 2^31 - 1] names no
  // node, and a run_meta whose nodes is not an integer in [0, 2^31 - 1]
  // declares no node count: each is reported here, the apply joins no
  // node's state and check 6 judges no node against the count.
  std::vector<std::string> node_id_violations_;
};

/// Verifies scheduling invariants over a journal:
///   1. whenever an actuation reports feasible, total power <= budget;
///   2. every granted frequency is an operating point of its CPU's table
///      and carries that point's minimum stable voltage (needs kTablePoint
///      events);
///   3. the scheduling period T restarts after a budget trigger (needs a
///      kRunMeta with t_restarts = 1): the next timer cycle comes no sooner
///      than (multiplier - 1) * t_sample_s after the budget cycle;
///   4. epoch fencing (needs epoch data): announced epochs are
///      non-decreasing, each node's applied epoch is non-decreasing (no
///      settings from a deposed coordinator are applied), and nothing
///      applies from an unannounced epoch;
///   5. failover compliance (needs a kRunMeta with failover_window_s > 0):
///      after every budget drop, some node_apply shows aggregate cluster
///      power back under the new limit within the window.
///   6. transport guarantees (needs a kRunMeta with convergence_window_s
///      > 0): applied sequence numbers are strictly increasing per
///      (node, epoch) — at-least-once delivery never becomes a duplicate
///      or stale apply — and after the last channel disturbance
///      (message_lost / message_corrupt / message_expired) every node
///      applies settings within the declared window (the
///      bounded-convergence guarantee).
/// A node_apply whose node is not an integer in [-1, 2^31 - 1] names no
/// node: it is reported as its own violation, listed after those of the
/// six checks, and joins no node's state (checks 4 and 6 skip it).
/// Convenience wrapper over JournalChecker for in-memory logs.
JournalCheckReport check_journal(const EventLog& log);

/// Outcome of diff_journals.
struct JournalDiff {
  struct TypeCount {
    std::string type;
    std::size_t a = 0;
    std::size_t b = 0;
  };
  std::vector<TypeCount> type_counts;       ///< Only types seen in either.
  std::size_t decisions_compared = 0;       ///< Pairwise-aligned decisions.
  std::size_t decisions_differing = 0;      ///< Granted-frequency mismatches.
  std::size_t decisions_unmatched = 0;      ///< Length difference remainder.
  double first_divergence_t = -1.0;         ///< < 0 when decisions agree.
  int first_divergence_cpu = -1;
  bool identical_decisions() const {
    return decisions_differing == 0 && decisions_unmatched == 0;
  }
};

/// Compares two journals: per-type event counts and an in-order alignment
/// of decision events (granted frequency per cycle per CPU).
JournalDiff diff_journals(const EventLog& a, const EventLog& b);

}  // namespace fvsst::sim
