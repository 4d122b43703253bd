#include "core/tree_daemon.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace fvsst::core {

namespace {

/// Tree coordinator ids in FaultPlan coordinator-fault targets: 0 is the
/// primary root, 1 the standby root, 2 + s the leaf coordinator of shard
/// s.  (Aggregate-tier faults are modelled through their links.)
constexpr int kLeafCoordinatorBase = 2;

bool tables_equal(const mach::FrequencyTable& a,
                  const mach::FrequencyTable& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].hz != b[i].hz || a[i].volts != b[i].volts ||
        a[i].watts != b[i].watts) {
      return false;
    }
  }
  return true;
}

}  // namespace

TreeDaemon::TreeDaemon(sim::Simulation& sim, cluster::Cluster& cluster,
                       const mach::FrequencyTable& table,
                       power::PowerBudget& budget, TreeDaemonConfig config)
    : sim_(sim),
      cluster_(cluster),
      budget_(budget),
      config_(std::move(config)),
      table_(table),
      shard_map_(cluster, config_.shards
                              ? config_.shards
                              : cluster::ShardMap::auto_shards(
                                    cluster.node_count())),
      up_leaf_channel_(kTreeLinkLatencyS, 0.0, sim::Rng(0x7e01)),
      up_root_channel_(kTreeLinkLatencyS, 0.0, sim::Rng(0x7e02)),
      down_root_channel_(kTreeLinkLatencyS, 0.0, sim::Rng(0x7e03)),
      down_leaf_channel_(kTreeLinkLatencyS, 0.0, sim::Rng(0x7e04)) {
  if (table_.size() == 0) {
    throw std::invalid_argument("TreeDaemon: empty operating-point table");
  }
  if (config_.t_sample_s <= 0.0 || config_.schedule_every_n_samples < 1) {
    throw std::invalid_argument("TreeDaemon: bad sampling configuration");
  }
  for (std::size_t n = 0; n < cluster_.node_count(); ++n) {
    if (!tables_equal(cluster_.node(n).machine().freq_table, table_)) {
      throw std::invalid_argument(
          "TreeDaemon: tree topology requires a homogeneous cluster (every "
          "node sharing one operating-point table); heterogeneous clusters "
          "keep the flat daemon");
    }
  }

  start_t_ = sim_.now();
  total_cpus_ = shard_map_.total_cpus();
  pw_uw_.resize(table_.size());
  for (std::size_t b = 0; b < table_.size(); ++b) {
    pw_uw_[b] = to_microwatts(table_[b].watts);
  }

  shards_ = cluster::make_shards(cluster_, shard_map_);

  const mach::MemoryLatencies& latencies =
      cluster_.node(0).machine().latencies;
  scheduler_ = std::make_unique<FrequencyScheduler>(table_, latencies,
                                                    config_.scheduler);

  // Leaves: one coordinator per shard, sampling only its slab.
  leaves_.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Leaf& leaf = leaves_[s];
    leaf.id = s;
    const cluster::ShardSpan& span = shard_map_.span(s);
    std::vector<cluster::ProcAddress> procs;
    procs.reserve(span.cpu_count);
    for (std::size_t n = span.first_node; n < span.end_node(); ++n) {
      for (std::size_t c = 0; c < cluster_.node(n).cpu_count(); ++c) {
        procs.push_back({n, c});
      }
    }
    leaf.sampler = std::make_unique<SimCoreSampler>(
        cluster_, std::move(procs), SimCoreSampler::ResetPolicy::kOnElapsed,
        start_t_);
    IpcEstimator::Options est;
    est.idle_signal = config_.idle_signal;
    leaf.estimator = std::make_unique<IpcEstimator>(latencies, est);
    leaf.views.resize(span.cpu_count);
    leaf.desired.assign(span.cpu_count, 0);
    leaf.last_grant_t = start_t_;
  }

  // Aggregate tier: contiguous leaf ranges, ~sqrt(shards) groups.
  std::size_t aggs = config_.aggregates;
  if (aggs == 0) {
    aggs = static_cast<std::size_t>(
        std::llround(std::sqrt(static_cast<double>(shards_.size()))));
  }
  aggs = std::min(std::max<std::size_t>(aggs, 1), shards_.size());
  agg_children_.resize(aggs);
  leaf_agg_.resize(shards_.size());
  for (std::size_t a = 0, next = 0; a < aggs; ++a) {
    const std::size_t end = ((a + 1) * shards_.size()) / aggs;
    for (; next < end; ++next) {
      agg_children_[a].push_back(next);
      leaf_agg_[next] = a;
    }
  }
  agg_child_mail_.resize(aggs);
  agg_child_have_.resize(aggs);
  for (std::size_t a = 0; a < aggs; ++a) {
    agg_child_mail_[a].resize(agg_children_[a].size());
    agg_child_have_[a].assign(agg_children_[a].size(), 0);
  }

  primary_.id = 0;
  primary_.leader = true;
  standby_.id = 1;
  for (RootState* root : {&primary_, &standby_}) {
    root->agg_mail.resize(aggs);
    root->agg_have.assign(aggs, 0);
    root->agg_above.assign(aggs, 0);
    root->last_decide_t = start_t_;
  }
  const double period_T =
      config_.t_sample_s * config_.schedule_every_n_samples;
  root_watch_ =
      cluster::FailureDetector(kTreeTakeoverFactor * period_T, start_t_);

  // Session layers, one per physical hop.  The leaf-edge transports key
  // their sessions (and the channel fault shim) by leaf id; the backbone
  // transports by aggregate id.
  cluster::TransportOptions topts;
  topts.mode = config_.transport;
  topts.round_period_s = period_T;
  up_leaf_ = std::make_unique<cluster::Transport>(
      sim_, up_leaf_channel_, config_.fault_plan, topts, shards_.size(), aggs,
      "up", config_.journal);
  up_root_ = std::make_unique<cluster::Transport>(
      sim_, up_root_channel_, config_.fault_plan, topts, aggs, 2, "up",
      config_.journal);
  down_root_ = std::make_unique<cluster::Transport>(
      sim_, down_root_channel_, config_.fault_plan, topts, aggs, 1, "down",
      config_.journal);
  down_leaf_ = std::make_unique<cluster::Transport>(
      sim_, down_leaf_channel_, config_.fault_plan, topts, shards_.size(), 1,
      "down", config_.journal);

  protocol_visible_ = config_.journal != nullptr && config_.standby_root;

  step_pool_ = std::make_unique<cluster::StepPool>(config_.step_threads);

  power_trace_ = &telemetry_.series(
      telemetry_.intern_series("tree/granted_power_w", "granted_power_w"));

  if (config_.journal) {
    sim::Event& meta =
        config_.journal->append(start_t_, sim::EventType::kRunMeta);
    meta.set("t_sample_s", config_.t_sample_s)
        .set("multiplier", static_cast<double>(config_.schedule_every_n_samples))
        .set("cpus", static_cast<double>(total_cpus_))
        .set("t_restarts", 0.0)
        .set("daemon", std::string("tree"));
    if (config_.journal_topology) {
      meta.set("shards", static_cast<double>(shards_.size()))
          .set("aggregates", static_cast<double>(aggs))
          .set("link_latency_s", kTreeLinkLatencyS);
    }
    for (std::size_t b = 0; b < table_.size(); ++b) {
      config_.journal->append(start_t_, sim::EventType::kTablePoint, -1)
          .set("hz", table_[b].hz)
          .set("volts", table_[b].volts)
          .set("watts", table_[b].watts);
    }
    if (protocol_visible_) {
      config_.journal->append(start_t_, sim::EventType::kEpochChange)
          .set("epoch", static_cast<double>(epoch_))
          .set("coordinator", 0.0)
          .set("reason", std::string("boot"));
    }
  }

  if (config_.monitor) {
    mon_lag_ = config_.monitor->input("aggregation_lag_s");
    mon_over_budget_ = config_.monitor->input("over_budget_w");
    mon_since_round_ = config_.monitor->input("since_round_s");
    mon_failsafe_frac_ = config_.monitor->input("failsafe_frac");
    mon_messages_lost_ = config_.monitor->input("messages_lost");
    mon_retransmits_ = config_.monitor->input("retransmits");
    mon_journal_dropped_ = config_.monitor->input("journal_dropped");
    mon_last_round_t_ = start_t_;
  }
  last_sample_t_ = start_t_;

  budget_.on_change([this](double effective_w) {
    const double now = sim_.now();
    if (config_.journal) {
      config_.journal->append(now, sim::EventType::kBudgetChange)
          .set("budget_w", effective_w);
    }
    // The budget is a hardware broadcast (paper Sec. 2): a shard in the
    // fail-safe hears it with no root and moves to the new share at once.
    failsafe_follow_budget(now);
    RootState& leader = primary_.leader ? primary_ : standby_;
    if (!root_down(leader, now) && leader.any_mail()) {
      root_decide(leader, CycleTrigger::kBudget);
    }
  });

  // The cores sample on the tick lattice (Core::set_sampling_grid), so the
  // daemon wakes only at summary instants and each core folds the skipped
  // ticks' counters for its leaf's sampler.  Summary instants use the
  // grid's own arithmetic (origin + j*t, integer j) so they land on
  // lattice points.
  const double t = config_.t_sample_s;
  grid_origin_ = start_t_ + t;
  for (cluster::Shard& shard : shards_) {
    for (std::size_t i = 0; i < shard.core_count(); ++i) {
      shard.core(i).set_sampling_grid(grid_origin_, t, 0.0,
                                      /*record_history=*/true);
    }
  }
  next_summary_k_ = static_cast<std::uint64_t>(config_.schedule_every_n_samples);
  arm_summary_wake();
}

void TreeDaemon::arm_summary_wake() {
  summary_wake_event_ = sim_.schedule_at(
      grid_origin_ +
          static_cast<double>(next_summary_k_ - 1) * config_.t_sample_s,
      [this] { summary_wake(); });
}

TreeDaemon::~TreeDaemon() {
  if (summary_wake_event_) sim_.cancel(summary_wake_event_);
}

std::size_t TreeDaemon::failsafe_shard_count() const {
  std::size_t n = 0;
  for (const Leaf& leaf : leaves_) n += leaf.failsafe ? 1 : 0;
  return n;
}

// --------------------------------------------------------------------------
// Time advance
// --------------------------------------------------------------------------

void TreeDaemon::summary_wake() {
  const double now = sim_.now();
  // One contiguous slab per pool task; the grids subdivide each core's
  // advance at the skipped ticks.  Unlike the flat daemon, crashed
  // nodes keep advancing: a node crash downs the *agent* (no summaries, no
  // applies), not the machine, so the sweep is unconditional.
  step_pool_->run(shards_.size(),
                  [this, now](std::size_t s) { shards_[s].advance_to(now); });
  for (Leaf& leaf : leaves_) leaf.sampler->collect();
  summary_instant(now);
  next_summary_k_ +=
      static_cast<std::uint64_t>(config_.schedule_every_n_samples);
  arm_summary_wake();
}

// --------------------------------------------------------------------------
// Round pipeline
// --------------------------------------------------------------------------

void TreeDaemon::summary_instant(double now) {
  maybe_take_over(now);
  failsafe_check(now);

  ++round_seq_;
  last_sample_t_ = now;
  agg_flushed_ = 0;

  // Close every leaf's interval and launch its summary (deliveries land at
  // now + L, in leaf order).  The aggregate flushes are scheduled *after*
  // the send loop, so at now + L the FIFO queue runs every delivery before
  // any flush.
  for (Leaf& leaf : leaves_) leaf_close_interval(leaf, now);
  for (std::size_t a = 0; a < agg_children_.size(); ++a) {
    sim_.schedule_at(now + kTreeLinkLatencyS,
                     [this, a] { agg_flush(a); });
  }

  monitor_sample(now);
}

void TreeDaemon::leaf_close_interval(Leaf& leaf, double now) {
  if (leaf_down(leaf.id, now)) return;  // coordinator down: no close, no send

  cluster::Shard& shard = shards_[leaf.id];
  leaf.sampler->end_interval(now, leaf.interval);
  leaf.estimator->update(leaf.interval, leaf.views);

  // The paper's pass 1, leaf-locally: an unbounded budget never triggers
  // pass-2 downgrades, so decisions[i].hz IS the desired operating point.
  const ScheduleResult result = scheduler_->schedule(
      leaf.views, std::numeric_limits<double>::infinity());

  ShardSummary summary;
  summary.round = round_seq_;
  summary.desired.assign(table_.size(), 0);
  for (std::size_t i = 0; i < leaf.views.size(); ++i) {
    const std::size_t idx = *table_.index_of(result.decisions[i].hz);
    leaf.desired[i] = static_cast<std::uint16_t>(idx);
    if (node_crashed(shard.node_of_core(i), now)) continue;  // agent down
    summary.desired[idx] += 1;
    summary.cpus += 1;
    summary.idle += leaf.views[i].idle ? 1 : 0;
    summary.desired_power_uw += pw_uw_[idx];
  }

  ++summaries_sent_;
  summary_bytes_sent_ += summary.wire_bytes();
  if (config_.journal && config_.journal_topology) {
    config_.journal->append(now, sim::EventType::kAggregation)
        .set("tier", 0.0)
        .set("shard", static_cast<double>(leaf.id))
        .set("cpus", static_cast<double>(summary.cpus))
        .set("bytes", static_cast<double>(summary.wire_bytes()))
        .set("mailbox", static_cast<double>(leaf.views.size()));
  }

  const std::size_t lid = leaf.id;
  const std::size_t agg = leaf_agg_[lid];
  const std::size_t child = lid - agg_children_[agg].front();
  cluster::Envelope env;
  env.epoch = leaf.fence.current();
  env.sender = static_cast<int>(lid);
  up_leaf_->send(
      static_cast<int>(lid), env, down_leaf_->node_ack(static_cast<int>(lid)),
      /*track=*/false,
      [this, lid, agg, child, summary](const cluster::Frame& frame) {
        if (up_leaf_->corrupt(static_cast<int>(lid), frame)) return;
        if (up_leaf_->receive_at_coordinator(static_cast<int>(agg),
                                             static_cast<int>(lid), frame) !=
            cluster::Transport::Verdict::kDeliver) {
          return;
        }
        down_leaf_->on_ack(static_cast<int>(lid), frame.envelope.epoch,
                           frame.ack);
        agg_child_mail_[agg][child] = summary;
        agg_child_have_[agg][child] = 1;
      });
}

void TreeDaemon::agg_flush(std::size_t agg) {
  const double now = sim_.now();
  ++agg_flushed_;
  const bool last = agg_flushed_ == agg_children_.size();

  bool any = false;
  ShardSummary merged;
  merged.desired.assign(table_.size(), 0);
  for (std::size_t c = 0; c < agg_child_mail_[agg].size(); ++c) {
    if (!agg_child_have_[agg][c]) continue;
    merged.merge(agg_child_mail_[agg][c]);
    any = true;
  }
  if (any) {
    if (config_.journal && config_.journal_topology) {
      config_.journal->append(now, sim::EventType::kAggregation)
          .set("tier", 1.0)
          .set("agg", static_cast<double>(agg))
          .set("cpus", static_cast<double>(merged.cpus))
          .set("bytes", static_cast<double>(merged.wire_bytes()))
          .set("mailbox", static_cast<double>(agg_child_mail_[agg].size()));
    }
    ++summaries_sent_;
    summary_bytes_sent_ += merged.wire_bytes();
    cluster::Envelope env;
    env.sender = static_cast<int>(agg);
    up_root_->send(
        static_cast<int>(agg), env,
        down_root_->node_ack(static_cast<int>(agg)), /*track=*/false,
        [this, agg, merged](const cluster::Frame& frame) {
          if (up_root_->corrupt(static_cast<int>(agg), frame)) return;
          down_root_->on_ack(static_cast<int>(agg), frame.envelope.epoch,
                             frame.ack);
          const double t_rx = sim_.now();
          for (RootState* root : {&primary_, &standby_}) {
            if (root->id == 1 && !config_.standby_root) continue;
            if (root_down(*root, t_rx)) continue;  // down: mailbox misses it
            if (up_root_->receive_at_coordinator(
                    root->id, static_cast<int>(agg), frame) !=
                cluster::Transport::Verdict::kDeliver) {
              continue;
            }
            root->agg_mail[agg] = merged;
            root->agg_have[agg] = 1;
          }
        });
  }

  // The last flush of the instant schedules the root decision: its own
  // upward sends (and every earlier flush's) are already enqueued for
  // now + L, so the decision runs after all of this round's deliveries.
  if (last) {
    sim_.schedule_at(now + kTreeLinkLatencyS, [this] { root_flush(); });
  }
}

void TreeDaemon::root_flush() {
  const double now = sim_.now();
  RootState& leader = primary_.leader ? primary_ : standby_;
  if (root_down(leader, now)) return;  // leaves fail-safe; standby claims
  if (!leader.any_mail()) return;
  root_decide(leader, CycleTrigger::kTimer);
}

void TreeDaemon::root_decide(RootState& root, CycleTrigger trigger) {
  const double now = sim_.now();

  totals_scratch_ = ShardSummary{};
  totals_scratch_.desired.assign(table_.size(), 0);
  std::size_t summaries = 0;
  for (std::size_t a = 0; a < root.agg_mail.size(); ++a) {
    if (!root.agg_have[a]) continue;
    totals_scratch_.merge(root.agg_mail[a]);
    ++summaries;
  }

  const double budget_w = budget_.effective_limit_w();
  const CapProfile profile =
      compute_cap_profile(totals_scratch_, table_, budget_w);

  for (std::size_t a = 0; a < root.agg_mail.size(); ++a) {
    root.agg_above[a] =
        root.agg_have[a] ? root.agg_mail[a].above(profile.cap) : 0;
  }
  const std::vector<std::uint64_t> quotas =
      split_quota(root.agg_above, profile.promote);

  if (config_.journal) {
    sim::Event& e =
        config_.journal->append(now, sim::EventType::kAggregation);
    e.set("round", static_cast<double>(totals_scratch_.round))
        .set("cpus", static_cast<double>(totals_scratch_.cpus))
        .set("idle", static_cast<double>(totals_scratch_.idle))
        .set("desired_power_w",
             static_cast<double>(totals_scratch_.desired_power_uw) * 1e-6)
        .set("power_w", static_cast<double>(profile.power_uw) * 1e-6)
        .set("budget_w", budget_w)
        .set("cap_hz", table_[profile.cap].hz)
        .set("promoted", static_cast<double>(profile.promote))
        .set("feasible", profile.feasible ? 1.0 : 0.0)
        .set("lag_s", now - last_sample_t_)
        .set("trigger", std::string(cycle_trigger_name(trigger)));
    if (config_.journal_topology) {
      e.set("tier", 2.0)
          .set("summaries", static_cast<double>(summaries))
          .set("coordinator", static_cast<double>(root.id));
    }
    if (!profile.feasible) {
      config_.journal->append(now, sim::EventType::kInfeasibleBudget)
          .set("budget_w", budget_w)
          .set("total_power_w",
               static_cast<double>(profile.power_uw) * 1e-6);
    }
  }

  power_trace_->add(now, static_cast<double>(profile.power_uw) * 1e-6);
  root_watch_.heard(now);  // the standby hears the leader's round broadcast
  root.last_decide_t = now;
  if (config_.monitor) mon_last_round_t_ = now;

  // A budget-triggered round answers the budget change, not a new summary
  // instant (it reuses the mailbox), so its grants' lag runs from now.
  const double answers_t =
      trigger == CycleTrigger::kTimer ? last_sample_t_ : now;
  for (std::size_t a = 0; a < agg_children_.size(); ++a) {
    Grant grant;
    grant.round = totals_scratch_.round;
    grant.sample_t = answers_t;
    grant.cap = static_cast<std::uint32_t>(profile.cap);
    grant.quota = quotas[a];
    grant.feasible = profile.feasible;
    cluster::Envelope env;
    env.epoch = epoch_;
    env.sender = root.id;
    down_root_->send(static_cast<int>(a), env, /*ack=*/0,
                     /*track=*/down_root_->reliable(),
                     [this, a, grant](const cluster::Frame& frame) {
                       agg_receive_down(a, grant, frame);
                     });
  }
}

void TreeDaemon::agg_receive_down(std::size_t agg, const Grant& grant,
                                  const cluster::Frame& frame) {
  if (down_root_->corrupt(static_cast<int>(agg), frame)) return;
  if (down_root_->receive_at_node(static_cast<int>(agg), frame) !=
      cluster::Transport::Verdict::kDeliver) {
    if (config_.journal) {
      config_.journal->append(sim_.now(), sim::EventType::kMessageDuplicate)
          .set("node", static_cast<double>(agg))
          .set("seq", static_cast<double>(frame.seq))
          .set("direction", std::string("down"));
    }
    return;
  }

  // Split this subtree's promotion quota over the child leaves in child
  // (= flat shard) order, by each child's above-cap demand; a child whose
  // summary never arrived demands nothing.
  const std::vector<std::size_t>& children = agg_children_[agg];
  agg_above_scratch_.resize(children.size());
  for (std::size_t c = 0; c < children.size(); ++c) {
    agg_above_scratch_[c] = agg_child_have_[agg][c]
                                ? agg_child_mail_[agg][c].above(grant.cap)
                                : 0;
  }
  const std::vector<std::uint64_t> shares =
      split_quota(agg_above_scratch_, grant.quota);
  for (std::size_t c = 0; c < children.size(); ++c) {
    const std::size_t leaf = children[c];
    Grant forwarded = grant;
    forwarded.quota = shares[c];
    down_leaf_->send(static_cast<int>(leaf), frame.envelope, /*ack=*/0,
                     /*track=*/down_leaf_->reliable(),
                     [this, leaf, forwarded](const cluster::Frame& f) {
                       leaf_apply(leaf, forwarded, f);
                     });
  }
}

void TreeDaemon::leaf_apply(std::size_t leaf_id, const Grant& grant,
                            const cluster::Frame& frame) {
  const double now = sim_.now();
  if (down_leaf_->corrupt(static_cast<int>(leaf_id), frame)) return;
  if (const char* cause = leaf_down(leaf_id, now)) {
    down_leaf_->lost(static_cast<int>(leaf_id), cause);
    return;
  }
  if (down_leaf_->receive_at_node(static_cast<int>(leaf_id), frame) !=
      cluster::Transport::Verdict::kDeliver) {
    if (config_.journal) {
      config_.journal->append(now, sim::EventType::kMessageDuplicate)
          .set("node", static_cast<double>(leaf_id))
          .set("seq", static_cast<double>(frame.seq))
          .set("direction", std::string("down"));
    }
    return;
  }
  Leaf& leaf = leaves_[leaf_id];
  if (!leaf.fence.admit(frame.envelope.epoch)) {
    if (config_.journal && protocol_visible_) {
      config_.journal->append(now, sim::EventType::kSettingsRejected)
          .set("node", static_cast<double>(leaf_id))
          .set("msg_epoch", static_cast<double>(frame.envelope.epoch))
          .set("epoch", static_cast<double>(leaf.fence.current()));
    }
    return;
  }

  // The first `quota` above-cap CPUs in shard order run one point above
  // the cap (apply_cap_profile's rule, skipping crashed nodes' agents).
  cluster::Shard& shard = shards_[leaf_id];
  const auto cap = static_cast<std::uint16_t>(grant.cap);
  std::uint64_t left = grant.quota;
  for (std::size_t i = 0; i < shard.core_count(); ++i) {
    if (node_crashed(shard.node_of_core(i), now)) continue;  // agent down
    const std::uint16_t d = leaf.desired[i];
    std::uint16_t g = d;
    if (d > cap) {
      if (left > 0) {
        --left;
        g = static_cast<std::uint16_t>(cap + 1);
      } else {
        g = cap;
      }
    }
    const double hz = table_[g].hz;
    cpu::Core& core = shard.core(i);
    if (core.frequency_hz() != hz) core.set_frequency(hz);
  }

  leaf.last_grant_t = now;
  if (leaf.failsafe) {
    leaf.failsafe = false;
    if (config_.journal && config_.journal_topology) {
      config_.journal->append(now, sim::EventType::kDegradedMode)
          .set("state", std::string("exit"))
          .set("reason", std::string("root_silent"))
          .set("shard", static_cast<double>(leaf_id));
    }
    // The default journal records only the aggregate transition (emitted
    // when the *last* fail-safe shard recovers): per-shard events would
    // make the default journal depend on the shard count.
    if (config_.journal && !config_.journal_topology &&
        failsafe_shard_count() == 0) {
      config_.journal->append(now, sim::EventType::kDegradedMode)
          .set("state", std::string("exit"))
          .set("reason", std::string("root_silent"));
    }
  }
  if (grant.round >= last_applied_round_) {
    last_lag_s_ = now - grant.sample_t;
    if (grant.round > last_applied_round_) {
      last_applied_round_ = grant.round;
      ++rounds_applied_;
    }
  }
  if (config_.journal && config_.journal_topology) {
    config_.journal->append(now, sim::EventType::kActuation)
        .set("stage", std::string("shard_apply"))
        .set("shard", static_cast<double>(leaf_id))
        .set("round", static_cast<double>(grant.round))
        .set("quota", static_cast<double>(grant.quota));
  }
}

// --------------------------------------------------------------------------
// Protocol helpers
// --------------------------------------------------------------------------

const char* TreeDaemon::leaf_down(std::size_t leaf, double now) const {
  if (!config_.fault_plan) return nullptr;
  const int target = kLeafCoordinatorBase + static_cast<int>(leaf);
  if (config_.fault_plan->active(sim::FaultKind::kCoordinatorCrash, target,
                                 now) != nullptr) {
    return "coordinator_crash";
  }
  if (config_.fault_plan->active(sim::FaultKind::kPartition, target, now) !=
      nullptr) {
    return "partition";
  }
  return nullptr;
}

bool TreeDaemon::node_crashed(std::size_t node, double now) const {
  if (!config_.fault_plan) return false;
  return config_.fault_plan->active(sim::FaultKind::kNodeCrash,
                                    static_cast<int>(node), now) != nullptr;
}

bool TreeDaemon::root_down(const RootState& root, double now) const {
  if (!config_.fault_plan) return false;
  return config_.fault_plan->active(sim::FaultKind::kCoordinatorCrash,
                                    root.id, now) != nullptr ||
         config_.fault_plan->active(sim::FaultKind::kPartition, root.id,
                                    now) != nullptr;
}

void TreeDaemon::maybe_take_over(double now) {
  if (!config_.standby_root || standby_.leader) return;
  if (!root_watch_.expired(now)) return;
  if (root_down(standby_, now)) return;  // the standby is down too
  epoch_ = cluster::claim_epoch(epoch_, standby_.id);
  primary_.leader = false;
  standby_.leader = true;
  // A deposed primary's tracked grants drain instead of fighting the new
  // epoch; elections are round-granular, so no jitter is needed (one
  // standby, no contention) and tick/event advance stay identical.
  down_root_->fence(epoch_);
  down_leaf_->fence(epoch_);
  root_watch_.heard(now);
  if (config_.journal && protocol_visible_) {
    config_.journal->append(now, sim::EventType::kEpochChange)
        .set("epoch", static_cast<double>(epoch_))
        .set("coordinator", static_cast<double>(standby_.id))
        .set("reason", std::string("takeover"));
  }
}

void TreeDaemon::failsafe_check(double now) {
  if (config_.failsafe_factor <= 0.0) return;
  const double threshold = config_.failsafe_factor * config_.t_sample_s *
                           config_.schedule_every_n_samples;
  // A coordinator that was down when the budget moved catches up.
  failsafe_follow_budget(now);
  const bool none_before = failsafe_shard_count() == 0;
  std::size_t entered_cpus = 0;
  double entered_hz = 0.0;
  for (Leaf& leaf : leaves_) {
    if (leaf.failsafe || leaf_down(leaf.id, now)) continue;
    if (now - leaf.last_grant_t <= threshold) continue;
    // Root silent past the threshold: the shard drops to the autonomous
    // budget/N share, the same per-CPU convention as the flat daemon.
    const double hz = failsafe_hz();
    failsafe_apply(leaf, hz, now);
    leaf.failsafe = true;
    entered_cpus += shards_[leaf.id].core_count();
    entered_hz = hz;
    if (config_.journal && config_.journal_topology) {
      config_.journal->append(now, sim::EventType::kDegradedMode)
          .set("state", std::string("enter"))
          .set("reason", std::string("root_silent"))
          .set("shard", static_cast<double>(leaf.id))
          .set("hz", hz);
    }
  }
  // Default journal: one aggregate entry per outage.  Global root silence
  // drops every shard at the same summary instant, so the CPU count (and
  // the event itself) cannot depend on how the cluster is sharded.
  if (config_.journal && !config_.journal_topology && none_before &&
      entered_cpus > 0) {
    config_.journal->append(now, sim::EventType::kDegradedMode)
        .set("state", std::string("enter"))
        .set("reason", std::string("root_silent"))
        .set("cpus", static_cast<double>(entered_cpus))
        .set("hz", entered_hz);
  }
}

void TreeDaemon::failsafe_apply(Leaf& leaf, double hz, double now) {
  cluster::Shard& shard = shards_[leaf.id];
  for (std::size_t i = 0; i < shard.core_count(); ++i) {
    if (node_crashed(shard.node_of_core(i), now)) continue;
    cpu::Core& core = shard.core(i);
    if (core.frequency_hz() != hz) core.set_frequency(hz);
  }
  leaf.failsafe_hz = hz;
}

void TreeDaemon::failsafe_follow_budget(double now) {
  const double hz = failsafe_hz();
  for (Leaf& leaf : leaves_) {
    if (!leaf.failsafe || leaf_down(leaf.id, now)) continue;
    if (leaf.failsafe_hz != hz) failsafe_apply(leaf, hz, now);
  }
}

double TreeDaemon::failsafe_hz() const {
  return table_.equal_share_hz(budget_.effective_limit_w(), total_cpus_);
}

void TreeDaemon::monitor_sample(double now) {
  if (!config_.monitor) return;
  sim::monitor::Monitor& mon = *config_.monitor;
  // How far the latest applied grant trailed the instant it answers: the
  // pipeline's latency, which a congested, lossy or retransmitting tree
  // stretches.
  mon.observe(mon_lag_, now, last_lag_s_);
  mon.observe(mon_over_budget_, now,
              std::max(0.0, cluster_.cpu_power_w() -
                                budget_.effective_limit_w()));
  mon.observe(mon_since_round_, now, now - mon_last_round_t_);
  mon.observe(mon_failsafe_frac_, now,
              static_cast<double>(failsafe_shard_count()) /
                  static_cast<double>(leaves_.size()));
  // Per-evaluation deltas of the four hops' counters, as the flat daemon
  // feeds its two transports'.
  std::size_t lost = 0;
  std::size_t retx = 0;
  for (const cluster::Transport* hop :
       {up_leaf_.get(), up_root_.get(), down_root_.get(), down_leaf_.get()}) {
    lost += hop->messages_lost();
    retx += hop->retransmits();
  }
  mon.observe(mon_messages_lost_, now,
              static_cast<double>(lost - mon_last_messages_lost_));
  mon_last_messages_lost_ = lost;
  mon.observe(mon_retransmits_, now,
              static_cast<double>(retx - mon_last_retransmits_));
  mon_last_retransmits_ = retx;
  if (config_.journal) {
    const std::size_t dropped = config_.journal->dropped();
    mon.observe(mon_journal_dropped_, now,
                static_cast<double>(dropped - mon_last_dropped_));
    mon_last_dropped_ = dropped;
  }
  mon.evaluate(now);
}

}  // namespace fvsst::core
