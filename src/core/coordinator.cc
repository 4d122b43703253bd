#include "core/coordinator.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "simkit/log.h"

namespace fvsst::core {

// ---------------------------------------------------------------------------
// Snapshot serialisation: fixed-width little-endian fields with a trailing
// FNV-1a checksum, so a torn or bit-rotted snapshot is detected and
// discarded instead of half-applied.
// ---------------------------------------------------------------------------

namespace {

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_double(std::string& out, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  put_u64(out, bits);
}

bool get_u64(const std::string& in, std::size_t& pos, std::uint64_t& v) {
  if (pos + 8 > in.size()) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[pos + i]))
         << (8 * i);
  }
  pos += 8;
  return true;
}

bool get_double(const std::string& in, std::size_t& pos, double& d) {
  std::uint64_t bits = 0;
  if (!get_u64(in, pos, bits)) return false;
  std::memcpy(&d, &bits, sizeof d);
  return true;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

bool get_vector(const std::string& in, std::size_t& pos,
                std::vector<double>& out) {
  std::uint64_t count = 0;
  if (!get_u64(in, pos, count)) return false;
  if (count > (in.size() - pos) / 8) return false;  // Impossible length.
  out.resize(static_cast<std::size_t>(count));
  for (auto& v : out) {
    if (!get_double(in, pos, v)) return false;
  }
  return true;
}

}  // namespace

std::string CoordinatorSnapshot::encode() const {
  std::string body;
  put_u64(body, epoch);
  put_u64(body, round);
  put_double(body, taken_at);
  put_double(body, budget_w);
  put_u64(body, grants_hz.size());
  for (double g : grants_hz) put_double(body, g);
  put_u64(body, last_summary_at.size());
  for (double t : last_summary_at) put_double(body, t);
  put_u64(body, fnv1a(body));
  return body;
}

std::optional<CoordinatorSnapshot> CoordinatorSnapshot::decode(
    const std::string& blob) {
  if (blob.size() < 8) return std::nullopt;
  const std::string body = blob.substr(0, blob.size() - 8);
  std::size_t sum_pos = blob.size() - 8;
  std::uint64_t stored_sum = 0;
  get_u64(blob, sum_pos, stored_sum);
  if (stored_sum != fnv1a(body)) return std::nullopt;

  CoordinatorSnapshot snap;
  std::size_t pos = 0;
  if (!get_u64(body, pos, snap.epoch)) return std::nullopt;
  if (!get_u64(body, pos, snap.round)) return std::nullopt;
  if (!get_double(body, pos, snap.taken_at)) return std::nullopt;
  if (!get_double(body, pos, snap.budget_w)) return std::nullopt;
  if (!get_vector(body, pos, snap.grants_hz)) return std::nullopt;
  if (!get_vector(body, pos, snap.last_summary_at)) return std::nullopt;
  if (pos != body.size()) return std::nullopt;
  return snap;
}

// ---------------------------------------------------------------------------
// StableStore
// ---------------------------------------------------------------------------

void StableStore::save_snapshot(const CoordinatorSnapshot& snap) {
  snapshot_blob_ = snap.encode();
  log_.clear();
}

void StableStore::append_grant(GrantRecord record) {
  log_.push_back(std::move(record));
}

StableStore::Recovery StableStore::recover() const {
  Recovery r;
  if (!snapshot_blob_.empty()) {
    r.had_snapshot = true;
    if (auto snap = CoordinatorSnapshot::decode(snapshot_blob_)) {
      r.checksum_ok = true;
      r.state = *snap;
    }
  }
  for (const auto& rec : log_) {
    r.state.epoch = std::max(r.state.epoch, rec.epoch);
    r.state.round = rec.round;
    r.state.taken_at = rec.t;
    r.state.budget_w = rec.budget_w;
    r.state.grants_hz = rec.grants_hz;
    ++r.replayed;
  }
  return r;
}

void StableStore::corrupt_snapshot_for_test(std::size_t byte_index) {
  if (byte_index < snapshot_blob_.size()) {
    snapshot_blob_[byte_index] =
        static_cast<char>(snapshot_blob_[byte_index] ^ 0x01);
  }
}

// ---------------------------------------------------------------------------
// Coordinator engine stages (moved here from ClusterDaemon: the global
// scheduler has no counters of its own; its knowledge is the mailbox).
// ---------------------------------------------------------------------------

class Coordinator::SummarySampler final : public Sampler {
 public:
  explicit SummarySampler(std::size_t cpus) : cpus_(cpus) {}

  std::size_t cpu_count() const override { return cpus_; }
  void end_interval(double now, std::vector<IntervalSample>& out) override {
    (void)now;
    out.assign(cpus_, IntervalSample{});
  }

 private:
  std::size_t cpus_;
};

class Coordinator::MailboxEstimator final : public Estimator {
 public:
  explicit MailboxEstimator(const std::vector<ProcView>* mailbox)
      : mailbox_(mailbox) {}

  void update(const std::vector<IntervalSample>& samples,
              std::vector<ProcView>& views) override {
    (void)samples;
    views = *mailbox_;
  }

 private:
  const std::vector<ProcView>* mailbox_;
};

class Coordinator::SettingsActuator final : public Actuator {
 public:
  explicit SettingsActuator(Coordinator& coordinator)
      : coordinator_(coordinator) {}

  ActuationReport apply(const ScheduleResult& result, double now,
                        CycleTrigger trigger) override {
    (void)now;
    // Remember the grants before they leave: they are the durable state a
    // restarted coordinator resumes from, and what a leader replicates to
    // the standby over heartbeats.
    auto& grants = coordinator_.last_grants_;
    grants.resize(result.decisions.size());
    for (std::size_t i = 0; i < result.decisions.size(); ++i) {
      grants[i] = result.decisions[i].hz;
    }
    if (coordinator_.wiring_.fan_out) {
      coordinator_.wiring_.fan_out(coordinator_, result,
                                   trigger == CycleTrigger::kBudget);
    }
    // Message loss is handled by the protocol (the next round repairs a
    // lost settings message), not by per-CPU retries.
    return {};
  }

 private:
  Coordinator& coordinator_;
};

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

Coordinator::Coordinator(Wiring wiring)
    : wiring_(std::move(wiring)),
      detector_(wiring_.failover.takeover_factor * wiring_.period_s,
                wiring_.sim ? wiring_.sim->now() : 0.0) {
  std::size_t cpus = 0;
  for (const auto& [first, count] : wiring_.node_spans) {
    cpus = std::max(cpus, first + count);
  }
  mailbox_.resize(cpus);
  last_grants_.assign(cpus, 0.0);
  const double now = wiring_.sim ? wiring_.sim->now() : 0.0;
  last_summary_at_.assign(wiring_.node_spans.size(), now);
  node_silent_.assign(wiring_.node_spans.size(), 0);
  leader_ = wiring_.initially_leader;
  epoch_ = leader_ ? 1 : 0;
  build_loop();
  if (leader_) journal_epoch(now, "boot");
}

void Coordinator::build_loop() {
  // The standby keeps the journal: its engine only journals cycles while
  // it actually leads (run_round gates on leadership), so post-takeover
  // rounds stay auditable without double-journalling the shadow phase.
  std::unique_ptr<PolicyStage> policy;
  if (wiring_.policy_factory) {
    policy = wiring_.policy_factory(*wiring_.default_table, *wiring_.latencies,
                                    wiring_.scheduler);
  } else {
    policy = std::make_unique<SchedulerPolicyStage>(
        *wiring_.default_table, *wiring_.latencies, wiring_.scheduler);
  }
  loop_ = std::make_unique<ControlLoop>(
      wiring_.loop_config, std::make_unique<SummarySampler>(mailbox_.size()),
      std::make_unique<MailboxEstimator>(&mailbox_), std::move(policy),
      std::make_unique<SettingsActuator>(*this), wiring_.proc_tables,
      wiring_.telemetry);
}

std::size_t Coordinator::stale_node_count() const {
  std::size_t n = 0;
  for (char s : node_silent_) n += s ? 1 : 0;
  return n;
}

bool Coordinator::refresh_fault_state(double now) {
  const bool down =
      wiring_.faults != nullptr &&
      wiring_.faults->active(sim::FaultKind::kCoordinatorCrash, wiring_.id,
                             now) != nullptr;
  if (down && !crashed_) {
    crash(now);
  } else if (!down && crashed_) {
    restart(now);
  }
  return !crashed_;
}

bool Coordinator::partitioned(double now) const {
  return wiring_.faults != nullptr &&
         wiring_.faults->active(sim::FaultKind::kPartition, wiring_.id, now) !=
             nullptr;
}

void Coordinator::crash(double now) {
  crashed_ = true;
  if (wiring_.journal) {
    wiring_.journal->append(now, sim::EventType::kFault)
        .set("coordinator", static_cast<double>(wiring_.id))
        .set("kind", std::string("coordinator_crash"))
        .set("state", std::string("enter"));
  }
  sim::LogLine(sim::LogLevel::kWarn, "cluster-fvsst", now)
      << "coordinator " << wiring_.id << " crashed (epoch " << epoch_ << ")";
}

void Coordinator::restart(double now) {
  crashed_ = false;
  ++restarts_;

  // The crash took all RAM with it: mailbox, engine state, silent-node
  // pins.  Recover the durable half from the stable store and rebuild the
  // rest empty.
  const StableStore::Recovery rec = store_.recover();
  epoch_ = std::max(epoch_, rec.state.epoch);
  rounds_ = rec.state.round;
  if (!rec.state.grants_hz.empty()) last_grants_ = rec.state.grants_hz;
  if (rec.state.last_summary_at.size() == last_summary_at_.size()) {
    last_summary_at_ = rec.state.last_summary_at;
  } else {
    // Nothing recovered about node freshness: presume contact as of now and
    // let the silent-node accounting re-learn.
    std::fill(last_summary_at_.begin(), last_summary_at_.end(), now);
  }
  std::fill(mailbox_.begin(), mailbox_.end(), ProcView{});
  std::fill(node_silent_.begin(), node_silent_.end(), 0);
  build_loop();

  // No scheduling until one period's worth of fresh summaries has arrived:
  // a cold mailbox would read as all-idle and cold-start the cluster into
  // a power spike when real load reports back in.
  warm_until_ = now + wiring_.period_s;

  if (wiring_.failover.standby) {
    // With a standby configured, leadership is re-earned through election:
    // come back passive and let the failure detector decide (the peer may
    // have taken over with a higher epoch while we were down).
    leader_ = false;
    detector_.heard(now);
  }

  if (wiring_.journal) {
    wiring_.journal->append(now, sim::EventType::kFault)
        .set("coordinator", static_cast<double>(wiring_.id))
        .set("kind", std::string("coordinator_crash"))
        .set("state", std::string("exit"));
  }
  if (wiring_.journal && wiring_.journal_protocol) {
    wiring_.journal->append(now, sim::EventType::kSnapshot)
        .set("coordinator", static_cast<double>(wiring_.id))
        .set("epoch", static_cast<double>(epoch_))
        .set("round", static_cast<double>(rounds_))
        .set("budget_w", rec.state.budget_w)
        .set("replayed", static_cast<double>(rec.replayed))
        .set("checksum_ok", (rec.had_snapshot && !rec.checksum_ok) ? 0.0 : 1.0)
        .set("op", std::string("recover"));
  }
  sim::LogLine(sim::LogLevel::kInfo, "cluster-fvsst", now)
      << "coordinator " << wiring_.id << " restarted: epoch " << epoch_
      << ", " << rec.replayed << " grant records replayed, leader="
      << (leader_ ? 1 : 0);
}

void Coordinator::on_summary(std::size_t node, std::size_t first_cpu,
                             const std::vector<ProcView>& summary,
                             double now) {
  for (std::size_t c = 0; c < summary.size(); ++c) {
    mailbox_[first_cpu + c] = summary[c];
  }
  last_summary_at_[node] = now;
  if (!node_silent_[node]) return;
  // The node is talking again: lift the conservative f_max accounting.
  node_silent_[node] = 0;
  for (std::size_t c = 0; c < summary.size(); ++c) {
    loop_->unpin_cpu(first_cpu + c);
  }
  if (wiring_.journal && leader_) {
    wiring_.journal->append(now, sim::EventType::kDegradedMode)
        .set("node", static_cast<double>(node))
        .set("state", std::string("exit"))
        .set("reason", std::string("node_silent"));
  }
}

void Coordinator::refresh_silent_nodes(double now) {
  const double threshold = kSilentNodeFactor * wiring_.period_s;
  for (std::size_t n = 0; n < wiring_.node_spans.size(); ++n) {
    if (node_silent_[n]) continue;
    if (now - last_summary_at_[n] <= threshold) continue;
    // No word from the node for > k*T: its true draw is unknown, so the
    // budget math assumes the worst case — every CPU flat out at f_max.
    node_silent_[n] = 1;
    const auto& [first, count] = wiring_.node_spans[n];
    for (std::size_t c = 0; c < count; ++c) {
      const std::size_t flat = first + c;
      loop_->pin_cpu(flat, wiring_.proc_tables[flat]->max_hz());
    }
    if (wiring_.journal && leader_) {
      wiring_.journal->append(now, sim::EventType::kDegradedMode)
          .set("node", static_cast<double>(n))
          .set("silent_s", now - last_summary_at_[n])
          .set("state", std::string("enter"))
          .set("reason", std::string("node_silent"));
    }
  }
}

void Coordinator::on_peer_heartbeat(cluster::Epoch epoch,
                                    const std::vector<double>& grants,
                                    double budget_w, double now) {
  if (crashed_) return;
  if (epoch < epoch_) return;  // A deposed peer's stale heartbeat.
  max_heard_ = std::max(max_heard_, epoch);
  if (leader_) {
    if (epoch > epoch_) {
      // The peer was elected while we were unreachable: we are deposed.
      // Step down immediately — the nodes' fences are already rejecting
      // our grants, so continuing to lead could only waste rounds.
      leader_ = false;
      epoch_ = epoch;
      detector_.heard(now);
      journal_epoch(now, "stepdown");
      sim::LogLine(sim::LogLevel::kWarn, "cluster-fvsst", now)
          << "coordinator " << wiring_.id << " deposed by epoch " << epoch;
    }
    return;
  }
  // Passive: the leader is alive.  Shadow its replicated grants so a later
  // takeover resumes from the cluster's actual operating point.
  detector_.heard(now);
  epoch_ = epoch;
  if (!grants.empty()) last_grants_ = grants;
  shadow_budget_w_ = budget_w;
}

void Coordinator::run_round(double now, double budget_w,
                            CycleTrigger trigger) {
  if (crashed_ || !leader_ || now < warm_until_) return;
  refresh_silent_nodes(now);
  loop_->run_cycle(now, budget_w, trigger);
  ++rounds_;

  // Durable state is maintained unconditionally: it is pure in-memory
  // bookkeeping (no randomness, no events), and a coordinator crash can be
  // injected even without the standby configured.
  store_.append_grant({now, epoch_, budget_w, rounds_, last_grants_});
  if (rounds_ % kSnapshotEveryRounds == 0) {
    CoordinatorSnapshot snap;
    snap.epoch = epoch_;
    snap.round = rounds_;
    snap.taken_at = now;
    snap.budget_w = budget_w;
    snap.grants_hz = last_grants_;
    snap.last_summary_at = last_summary_at_;
    store_.save_snapshot(snap);
    if (wiring_.journal && wiring_.journal_protocol) {
      wiring_.journal->append(now, sim::EventType::kSnapshot)
          .set("coordinator", static_cast<double>(wiring_.id))
          .set("epoch", static_cast<double>(epoch_))
          .set("round", static_cast<double>(rounds_))
          .set("budget_w", budget_w)
          .set("op", std::string("save"));
    }
  }
}

bool Coordinator::heartbeat_due(double now) const {
  if (!wiring_.failover.standby || crashed_ || !leader_) return false;
  if (last_heartbeat_sent_ < 0.0) return true;
  return now - last_heartbeat_sent_ >= kHeartbeatFactor * wiring_.period_s;
}

bool Coordinator::maybe_take_over(double now) {
  if (!wiring_.failover.standby || crashed_ || leader_) return false;
  const double timeout =
      wiring_.failover.takeover_factor * wiring_.period_s;
  // The jitter spreads concurrent candidates apart deterministically: it
  // hashes (seed, id, claim), so a rerun with the same seed elects the
  // same coordinator at the same instant.
  const cluster::Epoch claim =
      cluster::claim_epoch(std::max(epoch_, max_heard_), wiring_.id);
  const double jitter = cluster::takeover_jitter_s(
      kElectionSeed, wiring_.id, claim,
      kTakeoverJitterFactor * wiring_.period_s);
  if (detector_.silent_for(now) <= timeout + jitter) return false;

  leader_ = true;
  epoch_ = claim;
  max_heard_ = std::max(max_heard_, claim);
  journal_epoch(now, "takeover");
  sim::LogLine(sim::LogLevel::kWarn, "cluster-fvsst", now)
      << "coordinator " << wiring_.id << " took over as epoch " << epoch_
      << " after " << detector_.silent_for(now) << " s of leader silence";
  return true;
}

void Coordinator::journal_epoch(double now, const char* reason) {
  if (!wiring_.journal || !wiring_.journal_protocol) return;
  wiring_.journal->append(now, sim::EventType::kEpochChange)
      .set("epoch", static_cast<double>(epoch_))
      .set("coordinator", static_cast<double>(wiring_.id))
      .set("reason", std::string(reason));
}

}  // namespace fvsst::core
