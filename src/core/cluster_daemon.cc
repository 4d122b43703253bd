#include "core/cluster_daemon.h"

#include <algorithm>
#include <utility>

#include "simkit/log.h"

namespace fvsst::core {

namespace {

/// Does the plan schedule any coordinator-level fault?  Decides whether
/// the failover protocol's journal fields are emitted at all.
bool plan_has_coordinator_faults(const sim::FaultPlan* plan) {
  if (!plan) return false;
  for (const sim::FaultSpec& spec : plan->specs()) {
    if (spec.kind == sim::FaultKind::kCoordinatorCrash ||
        spec.kind == sim::FaultKind::kPartition) {
      return true;
    }
  }
  return false;
}

/// Does the plan schedule any transport-level channel fault?  Decides
/// whether the transport's journal fields/events are emitted in datagram
/// mode (reliable mode always emits them).
bool plan_has_transport_faults(const sim::FaultPlan* plan) {
  if (!plan) return false;
  for (const sim::FaultSpec& spec : plan->specs()) {
    if (spec.kind == sim::FaultKind::kChannelReorder ||
        spec.kind == sim::FaultKind::kChannelDuplicate ||
        spec.kind == sim::FaultKind::kChannelDelaySpike ||
        spec.kind == sim::FaultKind::kChannelCorrupt) {
      return true;
    }
  }
  return false;
}

/// The one-slot recycling rule for a message buffer that in-flight deliver
/// closures share: `slot` is reused once no closure holds it any more
/// (use_count() == 1), so copy-assignment keeps its capacity and steady
/// state allocates nothing.  A buffer still in flight is left to the
/// closures holding it and `slot` gets a fresh one.  O(1) per send.
template <typename T>
std::vector<T>& reusable_buffer(std::shared_ptr<std::vector<T>>& slot) {
  if (slot.use_count() != 1) slot = std::make_shared<std::vector<T>>();
  return *slot;
}

}  // namespace

ClusterDaemon::ClusterDaemon(sim::Simulation& sim, cluster::Cluster& cluster,
                             const mach::FrequencyTable& table,
                             power::PowerBudget& budget,
                             ClusterDaemonConfig config)
    : sim_(sim),
      cluster_(cluster),
      budget_(budget),
      config_(config),
      up_channel_(sim, config.channel_latency_s, config.channel_jitter_s,
                  sim::Rng(0xc1a0)),
      down_channel_(sim, config.channel_latency_s, config.channel_jitter_s,
                    sim::Rng(0xc1a1)),
      default_table_(table) {
  // Per-processor tables: each node's own operating points, so mixed
  // generations and leaky bins are scheduled against their real options.
  for (std::size_t n = 0; n < cluster_.node_count(); ++n) {
    for (std::size_t c = 0; c < cluster_.node(n).cpu_count(); ++c) {
      proc_tables_.push_back(&cluster_.node(n).machine().freq_table);
    }
  }
  protocol_visible_ = config_.failover.enabled() ||
                      plan_has_coordinator_faults(config_.fault_plan);
  transport_visible_ = config_.transport == cluster::TransportMode::kReliable ||
                       plan_has_transport_faults(config_.fault_plan);

  IpcEstimator::Options est_opts;
  est_opts.idle_signal = config_.idle_signal;
  est_opts.halted_idle_threshold = config_.halted_idle_threshold;
  std::size_t flat = 0;
  for (std::size_t n = 0; n < cluster_.node_count(); ++n) {
    std::vector<cluster::ProcAddress> procs;
    for (std::size_t c = 0; c < cluster_.node(n).cpu_count(); ++c) {
      procs.push_back({n, c});
    }
    auto agent = std::make_unique<NodeAgent>(
        cluster_, std::move(procs), cluster_.node(0).machine().latencies,
        est_opts, sim_.now());
    agent->first_cpu = flat;
    flat += agent->sampler.cpu_count();
    agents_.push_back(std::move(agent));
  }
  // The lattice the merged agents clock ticks on: schedule_every fires
  // first at now + t and anchors every re-arm on that first firing, so the
  // first tick instant is the grid origin.
  grid_origin_ = sim_.now() + config_.t_sample_s;
  for (std::size_t n = 0; n < cluster_.node_count(); ++n) {
    for (std::size_t c = 0; c < cluster_.node(n).cpu_count(); ++c) {
      // The node agents charge no per-tick overhead (their cost is
      // modelled as channel latency), so the grid only subdivides the
      // advance and records snapshots for the samplers' replay.
      cluster_.node(n).core(c).set_sampling_grid(
          grid_origin_, config_.t_sample_s, /*recurring_steal_s=*/0.0,
          /*record_history=*/true);
    }
  }
  node_crashed_.assign(cluster_.node_count(), 0);
  // One merged clock for every node's tick.  The agents share a period and
  // phase, so N periodic events collapse into one whose action runs the
  // node ticks in node order — the same execution order the per-node
  // events produced (when-then-seq FIFO kept coincident ticks in node
  // order).
  agents_tick_event_ =
      sim_.schedule_every(config_.t_sample_s, [this] { agents_tick(); });
  if (config_.step_threads > 1) {
    step_pool_ = std::make_unique<cluster::StepPool>(config_.step_threads);
    // One contiguous slab per worker: the pre-sync sweeps linear SoA
    // ranges instead of interleaving every worker across the whole core
    // array (the old `i mod N` partition).
    shard_map_ = std::make_unique<cluster::ShardMap>(
        cluster_, static_cast<std::size_t>(config_.step_threads));
    shards_ = cluster::make_shards(cluster_, *shard_map_);
  }

  const double period =
      config_.t_sample_s * config_.schedule_every_n_samples;
  {
    // The compliance deadline this run promises after a budget drop (the
    // inspector's failover-window check, and the monitor's failover_breach
    // rule input).  Base: one round plus the message flight both ways.
    // When coordinator crashes are in play, the bound stretches to
    // whichever protection recovers first — standby takeover or the
    // node-local fail-safe; with neither there is no bound to promise
    // (window 0).
    const double lat = config_.channel_latency_s;
    const double base = period + 2.0 * lat + config_.t_sample_s +
                        config_.channel_jitter_s;
    failover_window_s_ = base;
    if (plan_has_coordinator_faults(config_.fault_plan)) {
      double bound = -1.0;
      if (config_.failover.standby) {
        bound = (config_.failover.takeover_factor +
                 config_.failover.takeover_jitter_factor + 1.0) *
                    period +
                config_.t_sample_s + 2.0 * lat +
                config_.channel_jitter_s;
      }
      if (config_.failover.node_failsafe_factor > 0.0) {
        const double failsafe =
            config_.failover.node_failsafe_factor * period +
            2.0 * config_.t_sample_s;
        bound = bound < 0.0 ? failsafe : std::min(bound, failsafe);
      }
      failover_window_s_ = bound < 0.0 ? 0.0 : std::max(base, bound);
    }
  }
  {
    // The session layers (both directions route every unicast through
    // them; in datagram mode they are pure pass-throughs that consume
    // exactly the channels' pre-transport randomness).
    cluster::TransportOptions topts;
    topts.mode = config_.transport;
    topts.round_period_s = period;
    topts.pump_period_s = config_.t_sample_s;
    up_transport_ = std::make_unique<cluster::Transport>(
        sim_, up_channel_, config_.fault_plan, topts, cluster_.node_count(),
        /*coordinators=*/2, "up");
    down_transport_ = std::make_unique<cluster::Transport>(
        sim_, down_channel_, config_.fault_plan, topts, cluster_.node_count(),
        /*coordinators=*/2, "down");
    cluster::Transport::Hooks up_hooks;
    up_hooks.on_fault_drop = [this](int node) {
      journal_message_lost(node, "up", "fault");
    };
    up_transport_->set_hooks(std::move(up_hooks));
    cluster::Transport::Hooks down_hooks;
    down_hooks.on_fault_drop = [this](int node) {
      journal_message_lost(node, "down", "fault");
    };
    down_hooks.on_retransmit = [this](int node, std::uint64_t seq,
                                      int attempt) {
      journal_retransmit(node, seq, attempt, "down");
    };
    down_hooks.on_expired = [this](int node, std::uint64_t seq, int attempts,
                                   const char* cause) {
      journal_expired(node, seq, attempts, cause, "down");
    };
    down_transport_->set_hooks(std::move(down_hooks));
    // The bounded-convergence promise: after the last channel disturbance
    // (loss, corruption or an expired message), every live node re-applies
    // the coordinator's grant within this window.  Reliable mode repairs
    // with the first post-disturbance ack round (fast retransmit) and
    // datagram mode with the next scheduling round; three periods bound
    // both with slack for budget-deferred retries and message flight.
    convergence_window_s_ = 3.0 * period + config_.t_sample_s +
                            2.0 * (config_.channel_latency_s +
                                   config_.channel_jitter_s);
  }
  if (config_.journal) {
    // t_restarts = 0: the global round runs on its own absolute timer, so
    // a budget trigger does NOT restart T (unlike the SMP daemon).
    auto& meta =
        config_.journal->append(sim_.now(), sim::EventType::kRunMeta)
            .set("t_sample_s", config_.t_sample_s)
            .set("multiplier",
                 static_cast<double>(config_.schedule_every_n_samples))
            .set("cpus", static_cast<double>(proc_tables_.size()))
            .set("t_restarts", 0.0)
            .set("daemon", std::string("cluster"));
    if (protocol_visible_ && failover_window_s_ > 0.0) {
      meta.set("failover_window_s", failover_window_s_);
    }
    if (transport_visible_) {
      meta.set("transport",
               std::string(config_.transport ==
                                   cluster::TransportMode::kReliable
                               ? "reliable"
                               : "datagram"))
          .set("nodes", static_cast<double>(cluster_.node_count()))
          .set("convergence_window_s", convergence_window_s_);
    }
  }

  primary_ = std::make_unique<Coordinator>(make_wiring(0, true, default_table_));
  if (config_.failover.standby) {
    standby_ =
        std::make_unique<Coordinator>(make_wiring(1, false, default_table_));
  }
  power_trace_ = &telemetry_.series(telemetry_.intern_series(
      "cluster/scheduled_power_w", "scheduled_cpu_power_w"));
  if (config_.monitor) {
    mon_over_budget_ = config_.monitor->input("over_budget_w");
    mon_failsafe_frac_ = config_.monitor->input("failsafe_frac");
    mon_stale_frac_ = config_.monitor->input("stale_frac");
    mon_failover_breach_ = config_.monitor->input("failover_breach");
    mon_since_round_ = config_.monitor->input("since_round_s");
    mon_messages_lost_ = config_.monitor->input("messages_lost");
    mon_journal_dropped_ = config_.monitor->input("journal_dropped");
    mon_retransmits_ = config_.monitor->input("retransmits");
    mon_last_round_time_ = sim_.now();
  }

  budget_.on_change([this](double limit) {
    if (config_.journal) {
      config_.journal->append(sim_.now(), sim::EventType::kBudgetChange)
          .set("budget_w", limit);
    }
    global_round(CycleTrigger::kBudget);
  });
  up_channel_.set_loss_probability(config.channel_loss_probability);
  down_channel_.set_loss_probability(config.channel_loss_probability);
  // Losses are counted at the sender via the drop callbacks, not inferred
  // after the fact; sending_node_ attributes each drop (single-threaded).
  up_channel_.set_drop_handler(
      [this] { journal_message_lost(sending_node_, "up", "channel"); });
  down_channel_.set_drop_handler(
      [this] { journal_message_lost(sending_node_, "down", "channel"); });
  node_fence_.resize(cluster_.node_count());
  node_last_contact_.assign(cluster_.node_count(), sim_.now());
  node_failsafe_.assign(cluster_.node_count(), 0);
  node_failsafe_hz_.assign(cluster_.node_count(), 0.0);
  pending_apply_.assign(cluster_.node_count(), 0);
  // The global scheduler runs on its own timer (the paper's periodic
  // trigger), offset so each round sees the freshest summaries even when
  // some were lost in transit.
  global_event_ = sim_.schedule_every_from(
      period + 2.0 * config_.channel_latency_s + config_.channel_jitter_s,
      period, [this] { global_round(CycleTrigger::kTimer); });
  if (standby_) {
    // The heartbeat/election clock.  Scheduled after the global timer so
    // at a coincident instant the scheduling round runs first and the
    // protocol reacts to its outcome.
    monitor_event_ =
        sim_.schedule_every(config_.t_sample_s, [this] { monitor_tick(); });
  }
}

ClusterDaemon::~ClusterDaemon() {
  sim_.cancel(agents_tick_event_);
  sim_.cancel(global_event_);
  if (monitor_event_) sim_.cancel(monitor_event_);
}

Coordinator::Wiring ClusterDaemon::make_wiring(
    int id, bool initially_leader, const mach::FrequencyTable& table) {
  Coordinator::Wiring w;
  w.id = id;
  w.initially_leader = initially_leader;
  w.sim = &sim_;
  w.journal = config_.journal;
  w.journal_protocol = protocol_visible_;
  w.faults = config_.fault_plan;
  w.failover = config_.failover;
  w.period_s = config_.t_sample_s * config_.schedule_every_n_samples;
  w.silent_node_factor = config_.silent_node_factor;
  for (const auto& agent : agents_) {
    w.node_spans.emplace_back(agent->first_cpu, agent->sampler.cpu_count());
  }
  w.loop_config.schedule_every_n_samples = config_.schedule_every_n_samples;
  w.loop_config.record_traces = false;  // Nothing to score globally.
  w.loop_config.journal = config_.journal;
  // Both coordinators share the monitor's downgrade/infeasible channels:
  // run_round gates on leadership, so only the acting leader ever feeds.
  w.loop_config.monitor = config_.monitor;
  w.default_table = &table;
  w.latencies = &cluster_.node(0).machine().latencies;
  w.scheduler = config_.scheduler;
  w.policy_factory = config_.policy_factory;
  w.proc_tables = proc_tables_;
  // The standby shadows without telemetry; its engine journals only the
  // rounds it runs as leader.
  w.telemetry = id == 0 ? &telemetry_ : nullptr;
  w.fan_out = [this](const Coordinator& from, const ScheduleResult& result,
                     bool budget_triggered) {
    fan_out(from, result, budget_triggered);
  };
  return w;
}

std::size_t ClusterDaemon::failsafe_node_count() const {
  std::size_t n = 0;
  for (char f : node_failsafe_) n += f ? 1 : 0;
  return n;
}

void ClusterDaemon::agents_tick() {
  const double now = sim_.now();
  ++ticks_;
  if (config_.fault_plan) crash_edges(now);
  const bool summary_instant =
      ticks_ % static_cast<std::uint64_t>(config_.schedule_every_n_samples) ==
      0;
  if (step_pool_ && summary_instant) {
    // Parallel pre-sync: advance every live node's cores to the summary
    // instant before the serial commits below.  The instant is a lattice
    // point, a sync boundary of every live core whoever crosses it, so the
    // result is bit-identical to the serial run's lazy advance — the
    // per-core advance draws its noise at the same chunk boundaries either
    // way.  Crashed nodes must be left alone (their grids are suspended);
    // workers only read the mask.
    const unsigned char* skip =
        reinterpret_cast<const unsigned char*>(node_crashed_.data());
    step_pool_->run(shards_.size(), [this, now, skip](std::size_t s) {
      shards_[s].advance_to(now, skip);
    });
  }
  // The ordered (node-id, tick) merge: journal events, channel sends and
  // summary deliveries are all emitted here, on the simulation thread, in
  // node order — byte-identical to a serial run at any thread count.
  for (std::size_t n = 0; n < agents_.size(); ++n) node_tick(n);
  // Monitor evaluation every n ticks.  Runs on the daemon's clock, after
  // the node loop, even while every coordinator is down (coordinator
  // silence is a rule, not an outage of the alerting itself).
  if (config_.monitor && summary_instant) monitor_sample();
}

void ClusterDaemon::crash_edges(double now) {
  // A crashed node's agent reads no counters, so its cores must gain no
  // sync boundary at the ticks it misses: at its first crashed tick they
  // are brought to the previous tick (the last one the agent saw) and
  // their grids suspended, so they advance in one piece until the first
  // live tick resumes the lattice there.
  for (std::size_t n = 0; n < agents_.size(); ++n) {
    const char crashed = config_.fault_plan->active(sim::FaultKind::kNodeCrash,
                                                    static_cast<int>(n), now)
                             ? 1
                             : 0;
    if (crashed == node_crashed_[n]) continue;
    node_crashed_[n] = crashed;
    for (std::size_t c = 0; c < cluster_.node(n).cpu_count(); ++c) {
      cpu::Core& core = cluster_.node(n).core(c);
      if (crashed) {
        if (ticks_ > 1) {
          core.advance_to(grid_origin_ + static_cast<double>(ticks_ - 2) *
                                             config_.t_sample_s);
        }
        core.suspend_sampling_grid();
      } else {
        core.resume_sampling_grid(now);
      }
    }
  }
}

void ClusterDaemon::node_tick(std::size_t node) {
  // A crashed node's agent does nothing: no sampling, no summaries, and
  // its tick does not count.  Its interval keeps accumulating and is
  // shipped after the restart.
  if (node_crashed_[node]) return;
  if (config_.failover.node_failsafe_factor > 0.0) node_failsafe_tick(node);
  auto& agent = *agents_[node];
  if (++agent.samples >= config_.schedule_every_n_samples) {
    agent.samples = 0;
    node_send_summary(node);
  }
}

double ClusterDaemon::node_failsafe_hz(std::size_t node) const {
  // The power budget is a hardware broadcast (paper Sec. 2), so a node cut
  // off from every coordinator still knows the global limit; its fair,
  // coordination-free share is budget over the cluster's CPU count.
  const double share_w = budget_.effective_limit_w() /
                         static_cast<double>(proc_tables_.size());
  const auto& table = cluster_.node(node).machine().freq_table;
  if (const auto point = table.highest_under_power(share_w)) {
    return point->hz;
  }
  return table.min_hz();  // Even f_min exceeds the share: best effort.
}

void ClusterDaemon::node_failsafe_tick(std::size_t node) {
  const double now = sim_.now();
  if (!node_failsafe_[node]) {
    const double threshold =
        config_.failover.node_failsafe_factor *
        (config_.t_sample_s * config_.schedule_every_n_samples);
    if (now - node_last_contact_[node] <= threshold) return;
    // No coordinator heard from for > k*T: assume total coordinator loss
    // and autonomously drop to the frequency that keeps this node's share
    // of the budget honoured without any coordination.
    node_failsafe_[node] = 1;
    const double hz = node_failsafe_hz(node);
    node_failsafe_hz_[node] = hz;
    for (std::size_t c = 0; c < cluster_.node(node).cpu_count(); ++c) {
      cluster_.node(node).core(c).set_frequency(hz);
    }
    const double power_w = cluster_.cpu_power_w();
    power_trace_->add(now, power_w);
    if (config_.journal) {
      config_.journal->append(now, sim::EventType::kDegradedMode)
          .set("node", static_cast<double>(node))
          .set("hz", hz)
          .set("silent_s", now - node_last_contact_[node])
          .set("state", std::string("enter"))
          .set("reason", std::string("coordinator_silent"));
      // The autonomous apply, in the same shape as a coordinated one, so
      // the inspector's compliance checks see the recovery.
      config_.journal->append(now, sim::EventType::kActuation)
          .set("node", static_cast<double>(node))
          .set("cluster_power_w", power_w)
          .set("failsafe", 1.0)
          .set("stage", std::string("node_apply"));
    }
    return;
  }
  // Already in the fail-safe: track budget moves (the broadcast keeps
  // arriving) until a coordinator's settings take over again.
  const double hz = node_failsafe_hz(node);
  if (hz != node_failsafe_hz_[node]) {
    node_failsafe_hz_[node] = hz;
    for (std::size_t c = 0; c < cluster_.node(node).cpu_count(); ++c) {
      cluster_.node(node).core(c).set_frequency(hz);
    }
    const double power_w = cluster_.cpu_power_w();
    power_trace_->add(now, power_w);
    if (config_.journal) {
      config_.journal->append(now, sim::EventType::kActuation)
          .set("node", static_cast<double>(node))
          .set("cluster_power_w", power_w)
          .set("failsafe", 1.0)
          .set("stage", std::string("node_apply"));
    }
  }
}

void ClusterDaemon::node_send_summary(std::size_t node) {
  auto& agent = *agents_[node];
  agent.sampler.end_interval(sim_.now(), interval_scratch_);
  if (interval_scratch_.empty() || interval_scratch_.front().elapsed_s <= 0.0) {
    return;
  }

  // Distil this interval into per-CPU views and ship only the summary
  // across the network, as a real agent would.  A wedged sensor path
  // (kStaleSummaries) keeps sending but the views stay frozen.
  const bool stale =
      config_.fault_plan &&
      config_.fault_plan->active(sim::FaultKind::kStaleSummaries,
                                 static_cast<int>(node), sim_.now());
  if (!stale) agent.estimator.update(interval_scratch_, agent.views);

  // The transport shim owns fault-injected loss (and the other channel
  // faults); summaries ride untracked — the next round's summary
  // supersedes a lost one by construction — but in reliable mode they are
  // sequenced for duplicate suppression and carry the node's cumulative
  // settings ack.
  // The in-flight copy rides in the agent's own buffer, free again once
  // the previous summary has been delivered.
  reusable_buffer(agent.summary) = agent.views;
  sending_node_ = static_cast<int>(node);
  cluster::Envelope envelope;
  envelope.epoch = down_transport_->node_ack_epoch(static_cast<int>(node));
  up_transport_->send(
      static_cast<int>(node), envelope,
      down_transport_->node_ack(static_cast<int>(node)), /*track=*/false,
      [this, node, summary = agent.summary](const cluster::Frame& frame) {
        deliver_summary(node, *summary, frame);
      });
}

void ClusterDaemon::deliver_summary(std::size_t node,
                                    const std::vector<ProcView>& summary,
                                    const cluster::Frame& frame) {
  const double now = sim_.now();
  const std::size_t first_cpu = agents_[node]->first_cpu;
  // A frame damaged in flight is detected here by its checksum and
  // dropped — never silently misdelivered as a good summary.
  if (cluster::frame_corrupt(frame)) {
    ++messages_corrupt_;
    journal_corrupt(static_cast<int>(node), "up");
    return;
  }
  // One summary reaches every coordinator (the standby shadows the same
  // traffic, which is what makes takeover warm).  A crashed or partitioned
  // coordinator misses it; the loss is journalled only when it deprives
  // the acting leader, so passive shadows don't inflate the loss count.
  bool acked = false;
  for (Coordinator* coordinator : {primary_.get(), standby_.get()}) {
    if (!coordinator) continue;
    if (!coordinator->refresh_fault_state(now)) {
      if (coordinator->leader()) {
        journal_message_lost(static_cast<int>(node), "up",
                             "coordinator_crash");
      }
      continue;
    }
    if (coordinator->partitioned(now)) {
      if (coordinator->leader()) {
        journal_message_lost(static_cast<int>(node), "up", "partition");
      }
      continue;
    }
    if (!acked && up_transport_->reliable()) {
      // The piggybacked cumulative ack reached a live coordinator:
      // release (or fast-retransmit) the node's pending settings.
      acked = true;
      down_transport_->on_ack(static_cast<int>(node), frame.envelope.epoch,
                              frame.ack);
    }
    if (up_transport_->receive_at_coordinator(coordinator->id(),
                                              static_cast<int>(node), frame) ==
        cluster::Transport::Verdict::kDuplicate) {
      if (coordinator->leader()) {
        journal_duplicate(static_cast<int>(node), frame.seq, frame.seq, "up");
      }
      continue;
    }
    coordinator->on_summary(node, first_cpu, summary, now);
  }
}

void ClusterDaemon::journal_message_lost(int node, const char* direction,
                                         const char* cause) {
  ++messages_lost_;
  if (config_.journal) {
    config_.journal->append(sim_.now(), sim::EventType::kMessageLost)
        .set("node", static_cast<double>(node))
        .set("direction", std::string(direction))
        .set("cause", std::string(cause));
  }
}

void ClusterDaemon::journal_retransmit(int node, std::uint64_t seq,
                                       int attempt, const char* direction) {
  if (config_.journal) {
    config_.journal->append(sim_.now(), sim::EventType::kMessageRetransmit)
        .set("node", static_cast<double>(node))
        .set("seq", static_cast<double>(seq))
        .set("attempt", static_cast<double>(attempt))
        .set("direction", std::string(direction));
  }
}

void ClusterDaemon::journal_expired(int node, std::uint64_t seq, int attempts,
                                    const char* cause,
                                    const char* direction) {
  if (config_.journal) {
    config_.journal->append(sim_.now(), sim::EventType::kMessageExpired)
        .set("node", static_cast<double>(node))
        .set("seq", static_cast<double>(seq))
        .set("attempts", static_cast<double>(attempts))
        .set("cause", std::string(cause))
        .set("direction", std::string(direction));
  }
}

void ClusterDaemon::journal_duplicate(int node, std::uint64_t seq,
                                      std::uint64_t applied,
                                      const char* direction) {
  if (config_.journal) {
    config_.journal->append(sim_.now(), sim::EventType::kMessageDuplicate)
        .set("node", static_cast<double>(node))
        .set("seq", static_cast<double>(seq))
        .set("applied_seq", static_cast<double>(applied))
        .set("direction", std::string(direction));
  }
}

void ClusterDaemon::journal_corrupt(int node, const char* direction) {
  if (config_.journal) {
    config_.journal->append(sim_.now(), sim::EventType::kMessageCorrupt)
        .set("node", static_cast<double>(node))
        .set("direction", std::string(direction));
  }
}

void ClusterDaemon::global_round(CycleTrigger trigger) {
  const double now = sim_.now();
  const double budget_w = budget_.effective_limit_w();
  primary_->refresh_fault_state(now);
  if (standby_) standby_->refresh_fault_state(now);
  // Every coordinator gets the trigger; run_round itself no-ops unless the
  // coordinator is the live leader past its recovery warm-up.
  primary_->run_round(now, budget_w, trigger);
  if (standby_) standby_->run_round(now, budget_w, trigger);
}

void ClusterDaemon::monitor_sample() {
  sim::monitor::Monitor& mon = *config_.monitor;
  const double now = sim_.now();
  const double nodes = static_cast<double>(agents_.size());
  // Measured draw, not the schedule's belief: silent or sticky nodes keep
  // drawing real power and that overshoot is what the rule pack watches.
  mon.observe(mon_over_budget_, now,
              std::max(0.0, cluster_.cpu_power_w() -
                                budget_.effective_limit_w()));
  mon.observe(mon_failsafe_frac_, now,
              static_cast<double>(failsafe_node_count()) / nodes);
  mon.observe(mon_stale_frac_, now,
              static_cast<double>(leader_coordinator().stale_node_count()) /
                  nodes);
  // A budget-triggered round whose applies are still outstanding past the
  // promised compliance window is a breach (0/1 level input).
  const bool breach = pending_trigger_applies_ > 0 &&
                      failover_window_s_ > 0.0 && last_trigger_time_ >= 0.0 &&
                      now - last_trigger_time_ > failover_window_s_;
  mon.observe(mon_failover_breach_, now, breach ? 1.0 : 0.0);
  // Coordinator progress clock: a fresh round since the last evaluation
  // resets the silence timer to that evaluation's instant, so the input
  // measures (to one period's granularity) how long no round has landed.
  const std::size_t seen = rounds();
  if (seen != mon_rounds_seen_) {
    mon_rounds_seen_ = seen;
    mon_last_round_time_ = now;
  }
  mon.observe(mon_since_round_, now, now - mon_last_round_time_);
  mon.observe(mon_messages_lost_, now,
              static_cast<double>(messages_lost_ - mon_last_messages_lost_));
  mon_last_messages_lost_ = messages_lost_;
  // Retransmission pressure (0 in datagram mode): the retransmit_storm
  // rule watches this delta for a channel so bad the reliable transport
  // is spinning instead of converging.
  const std::size_t retx = messages_retransmitted();
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

void ClusterDaemon::monitor_tick() {
  const double now = sim_.now();
  primary_->refresh_fault_state(now);
  standby_->refresh_fault_state(now);
  for (Coordinator* coordinator : {primary_.get(), standby_.get()}) {
    if (coordinator->heartbeat_due(now)) send_heartbeat(*coordinator);
  }
  for (Coordinator* coordinator : {primary_.get(), standby_.get()}) {
    if (coordinator->maybe_take_over(now)) {
      // Announce the new epoch at once (fencing off the old leader), then
      // schedule immediately — the shadowed mailbox is already warm and
      // the cluster may be sitting on a stale budget.
      send_heartbeat(*coordinator);
      coordinator->run_round(now, budget_.effective_limit_w(),
                             CycleTrigger::kManual);
    }
  }
}

void ClusterDaemon::send_heartbeat(Coordinator& from) {
  const double now = sim_.now();
  from.heartbeat_sent(now);
  if (from.partitioned(now)) {
    journal_message_lost(-1, "down", "partition");
    return;
  }
  const cluster::Envelope envelope{from.epoch(), from.id()};
  sending_node_ = -1;
  down_channel_.send(
      envelope, [this, grants = from.last_grants(),
                 budget_w = budget_.effective_limit_w()](
                    const cluster::Envelope& env) {
        deliver_heartbeat(env, grants, budget_w);
      });
}

void ClusterDaemon::deliver_heartbeat(const cluster::Envelope& envelope,
                                      const std::vector<double>& grants,
                                      double budget_w) {
  const double now = sim_.now();
  // The heartbeat doubles as the nodes' liveness signal: hearing a current
  // (fence-admitted) coordinator resets the fail-safe clock, so a leader
  // whose settings happen to be lost still keeps its nodes out of the
  // autonomous mode.
  for (std::size_t n = 0; n < node_fence_.size(); ++n) {
    if (node_fence_[n].admit(envelope.epoch)) node_last_contact_[n] = now;
  }
  // Epoch fencing for the retransmit queue: once a newer coordinator is
  // announced, a deposed leader's pending settings can never be acked —
  // drain them (message_expired cause "epoch") instead of retransmitting
  // into the nodes' fences.
  if (down_transport_->reliable()) down_transport_->fence(envelope.epoch);
  Coordinator* peer =
      envelope.sender == 0 ? standby_.get() : primary_.get();
  if (!peer) return;
  if (!peer->refresh_fault_state(now) || peer->partitioned(now)) return;
  peer->on_peer_heartbeat(envelope.epoch, grants, budget_w, now);
}

void ClusterDaemon::fan_out(const Coordinator& from,
                            const ScheduleResult& result,
                            bool budget_triggered) {
  if (budget_triggered) {
    last_trigger_time_ = sim_.now();
    last_applied_time_ = -1.0;
    pending_trigger_applies_ = agents_.size();
    pending_apply_.assign(agents_.size(), 1);
  }

  // Fan the round's grants back out over the network, each message fenced
  // with the sender's epoch.  One refcounted snapshot of the whole round's
  // frequencies is shared by every node's deliver closure (each reads its
  // own slice by first_cpu); the buffer recycles once no in-flight
  // closure — including a reliable-mode retransmit slot — still holds it.
  const bool cut_off = from.partitioned(sim_.now());
  const cluster::Envelope envelope{from.epoch(), from.id()};
  std::vector<double>& grants = reusable_buffer(grants_);
  grants.resize(result.decisions.size());
  for (std::size_t i = 0; i < result.decisions.size(); ++i) {
    grants[i] = result.decisions[i].hz;
  }
  const std::shared_ptr<const std::vector<double>> snapshot = grants_;
  for (std::size_t n = 0; n < agents_.size(); ++n) {
    if (cut_off) {
      journal_message_lost(static_cast<int>(n), "down", "partition");
      continue;
    }
    // The transport owns fault-injected loss and, in reliable mode, tracks
    // the frame for ack-or-retransmit.  The deliver closure is re-invoked
    // on every retransmission, so it must not consume its captures.
    sending_node_ = static_cast<int>(n);
    down_transport_->send(
        static_cast<int>(n), envelope, /*ack=*/0, /*track=*/true,
        [this, n, snapshot](const cluster::Frame& frame) {
          apply_on_node(n, snapshot, frame);
        });
  }
}

void ClusterDaemon::apply_on_node(
    std::size_t node, const std::shared_ptr<const std::vector<double>>& freqs,
    const cluster::Frame& frame) {
  const cluster::Envelope& envelope = frame.envelope;
  // Settings arriving at a crashed node land on nothing.
  if (config_.fault_plan &&
      config_.fault_plan->active(sim::FaultKind::kNodeCrash,
                                 static_cast<int>(node), sim_.now())) {
    journal_message_lost(static_cast<int>(node), "down", "node_crash");
    return;
  }
  // A frame damaged in flight is detected here by its checksum and
  // dropped — never silently applied as good settings.
  if (cluster::frame_corrupt(frame)) {
    ++messages_corrupt_;
    journal_corrupt(static_cast<int>(node), "down");
    return;
  }
  // The epoch fence: grants from a deposed coordinator are refused, so a
  // stale leader can never over-commit the budget (split-brain guard).
  if (!node_fence_[node].admit(envelope.epoch)) {
    ++settings_rejected_;
    if (config_.journal) {
      config_.journal->append(sim_.now(), sim::EventType::kSettingsRejected)
          .set("node", static_cast<double>(node))
          .set("msg_epoch", static_cast<double>(envelope.epoch))
          .set("epoch", static_cast<double>(node_fence_[node].current()));
    }
    return;
  }
  // Duplicate suppression (retransmitted or fault-duplicated frames):
  // at-least-once delivery on the wire, effectively-once application
  // here.  A duplicate still refreshes the ack state above it, but must
  // not re-apply, re-journal or roll back newer settings.
  if (down_transport_->receive_at_node(static_cast<int>(node), frame) ==
      cluster::Transport::Verdict::kDuplicate) {
    journal_duplicate(
        static_cast<int>(node), frame.seq,
        down_transport_->node_ack(static_cast<int>(node)), "down");
    return;
  }
  node_last_contact_[node] = sim_.now();
  if (node_failsafe_[node]) {
    // Coordinated settings are back: leave the autonomous budget/N mode
    // (the grants below supersede the fail-safe frequency).
    node_failsafe_[node] = 0;
    if (config_.journal) {
      config_.journal->append(sim_.now(), sim::EventType::kDegradedMode)
          .set("node", static_cast<double>(node))
          .set("state", std::string("exit"))
          .set("reason", std::string("coordinator_silent"));
    }
  }
  const std::size_t first = agents_[node]->first_cpu;
  const std::size_t cpus = cluster_.node(node).cpu_count();
  for (std::size_t c = 0; c < cpus; ++c) {
    cluster_.node(node).core(c).set_frequency((*freqs)[first + c]);
  }
  // Response-latency accounting: a node's slot for the latest budget-
  // triggered round is closed by the first settings it *accepts* — if the
  // triggered message itself was lost, the next round's repair closes it,
  // so the measurement completes instead of wedging open forever.
  if (pending_apply_[node]) {
    pending_apply_[node] = 0;
    if (pending_trigger_applies_ > 0 && --pending_trigger_applies_ == 0) {
      last_applied_time_ = sim_.now();
      sim::LogLine(sim::LogLevel::kInfo, "cluster-fvsst", sim_.now())
          << "budget trigger applied cluster-wide in "
          << (last_applied_time_ - last_trigger_time_) * 1e3 << " ms";
    }
  }
  const double power_w = cluster_.cpu_power_w();
  power_trace_->add(sim_.now(), power_w);
  if (config_.journal) {
    // The deferred, per-node half of the actuation: settings landed after
    // crossing the down channel.
    auto& event =
        config_.journal->append(sim_.now(), sim::EventType::kActuation)
            .set("node", static_cast<double>(node))
            .set("cluster_power_w", power_w);
    if (protocol_visible_ || (transport_visible_ && frame.seq > 0)) {
      event.set("epoch", static_cast<double>(envelope.epoch));
    }
    if (transport_visible_ && frame.seq > 0) {
      // The session sequence the checker's monotone-apply invariant runs
      // on (reliable mode only; datagram frames are unsequenced).
      event.set("seq", static_cast<double>(frame.seq));
    }
    event.set("stage", std::string("node_apply"));
  }
}

}  // namespace fvsst::core
