// Tests for the reliable cluster transport (cluster/transport.h): framing
// and checksums, ack/retransmit sessions, duplicate suppression, epoch
// fencing, the channel fault shim, the fault-plan parser's validation of
// the new channel kinds, and the daemon-level guarantees — journal
// invariants (bounded convergence included) and bit determinism under
// adversarial channels.
//
// The property sweep drives a synthetic coordinator/node harness over
// 1000 seeded fault scenarios; a CI failure reproduces locally with
//   FVSST_CHAOS_SEED=<seed> ./tests/test_transport
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/transport.h"
#include "core/cluster_daemon.h"
#include "mach/machine_config.h"
#include "power/budget.h"
#include "proptest.h"
#include "run_bytes.h"
#include "simkit/event_log.h"
#include "simkit/fault_plan.h"
#include "simkit/units.h"
#include "workload/synthetic.h"

namespace fvsst {
namespace {

using cluster::Envelope;
using cluster::Frame;
using cluster::Transport;
using cluster::TransportMode;
using cluster::TransportOptions;
using units::ms;

// --- Framing ---------------------------------------------------------------

TEST(Frame, ChecksumDetectsAnySingleFieldDamage) {
  Frame frame;
  frame.envelope.epoch = 7;
  frame.envelope.sender = 1;
  frame.seq = 42;
  frame.ack = 13;
  frame.checksum = cluster::frame_checksum(frame);
  EXPECT_FALSE(cluster::frame_corrupt(frame));

  Frame damaged = frame;
  damaged.seq ^= 1;
  EXPECT_TRUE(cluster::frame_corrupt(damaged));
  damaged = frame;
  damaged.ack += 1;
  EXPECT_TRUE(cluster::frame_corrupt(damaged));
  damaged = frame;
  damaged.envelope.epoch = 8;
  EXPECT_TRUE(cluster::frame_corrupt(damaged));
  damaged = frame;
  damaged.envelope.sender = 0;
  EXPECT_TRUE(cluster::frame_corrupt(damaged));
  damaged = frame;
  damaged.checksum ^= 0x5a5a5a5a5a5a5a5aull;
  EXPECT_TRUE(cluster::frame_corrupt(damaged));
}

// --- Session-layer unit tests ----------------------------------------------

struct Harness {
  sim::Simulation sim;
  cluster::Channel channel;
  TransportOptions opts;

  explicit Harness(TransportMode mode, double latency = 0.002)
      : channel(sim, latency, 0.0, sim::Rng(404)) {
    opts.mode = mode;
    opts.round_period_s = 0.1;
  }
};

TEST(Transport, DatagramFramesAreUnsequenced) {
  Harness h(TransportMode::kDatagram);
  Transport t(h.sim, h.channel, nullptr, h.opts, 2, 1, "down");
  std::vector<std::uint64_t> seqs;
  Envelope envelope;
  t.send(0, envelope, 0, true,
         [&](const Frame& f) { seqs.push_back(f.seq); });
  t.send(0, envelope, 0, true,
         [&](const Frame& f) { seqs.push_back(f.seq); });
  h.sim.run_for(0.05);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_FALSE(t.has_pending());  // datagram tracks nothing
  EXPECT_EQ(t.retransmits(), 0u);
}

TEST(Transport, ReliableSequencesPerNodeAndAcksRelease) {
  Harness h(TransportMode::kReliable);
  Transport t(h.sim, h.channel, nullptr, h.opts, 2, 1, "down");
  std::vector<std::uint64_t> node0;
  std::vector<std::uint64_t> node1;
  Envelope envelope;
  envelope.epoch = 1;
  t.send(0, envelope, 0, true, [&](const Frame& f) { node0.push_back(f.seq); });
  t.send(1, envelope, 0, true, [&](const Frame& f) { node1.push_back(f.seq); });
  t.send(0, envelope, 0, true, [&](const Frame& f) { node0.push_back(f.seq); });
  h.sim.run_for(0.05);
  EXPECT_EQ(node0, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(node1, (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(t.has_pending());
  t.on_ack(0, 1, 2);
  t.on_ack(1, 1, 1);
  EXPECT_FALSE(t.has_pending());
  h.sim.run_for(2.0);  // no timer retries after release
  EXPECT_EQ(t.retransmits(), 0u);
}

TEST(Transport, TimerRetransmitsThroughLossBurstThenDelivers) {
  // A 100%-loss window shorter than the retransmit schedule: the first
  // transmission and early retries are eaten, a later retry lands.
  sim::FaultPlan plan(3);
  plan.add({sim::FaultKind::kChannelLoss, 0.0, 0.3, /*target=*/0, 1.0});
  Harness h(TransportMode::kReliable);
  Transport t(h.sim, h.channel, &plan, h.opts, 1, 1, "down");
  int fault_drops = 0;
  Transport::Hooks hooks;
  hooks.on_fault_drop = [&](int) { ++fault_drops; };
  t.set_hooks(std::move(hooks));
  std::vector<double> applied_at;
  Envelope envelope;
  envelope.epoch = 1;
  // A minimal node: dedup-admitted frames apply and ack immediately, as
  // the daemon's apply path does via the next summary.
  t.send(0, envelope, 0, true, [&](const Frame& f) {
    if (t.receive_at_node(0, f) == Transport::Verdict::kDuplicate) return;
    applied_at.push_back(h.sim.now());
    t.on_ack(0, f.envelope.epoch, f.seq);
  });
  h.sim.run_for(1.5);
  ASSERT_EQ(applied_at.size(), 1u);
  EXPECT_GT(applied_at.front(), 0.3);
  EXPECT_GT(t.retransmits(), 0u);
  EXPECT_GT(fault_drops, 0);
  EXPECT_FALSE(t.has_pending());
  EXPECT_EQ(t.expired(), 0u);
}

TEST(Transport, PermanentLossExpiresAfterMaxRetransmits) {
  sim::FaultPlan plan(4);
  plan.add({sim::FaultKind::kChannelLoss, 0.0, 100.0, /*target=*/0, 1.0});
  Harness h(TransportMode::kReliable);
  h.opts.rto_s = 0.05;  // tighten so all retries fit in a short run
  Transport t(h.sim, h.channel, &plan, h.opts, 1, 1, "down");
  std::vector<std::pair<std::uint64_t, std::string>> expirations;
  Transport::Hooks hooks;
  hooks.on_expired = [&](int, std::uint64_t seq, int attempts,
                         const char* cause) {
    EXPECT_EQ(attempts, 5);
    expirations.emplace_back(seq, cause);
  };
  t.set_hooks(std::move(hooks));
  Envelope envelope;
  envelope.epoch = 1;
  bool delivered = false;
  t.send(0, envelope, 0, true, [&](const Frame&) { delivered = true; });
  h.sim.run_for(30.0);
  EXPECT_FALSE(delivered);
  ASSERT_EQ(expirations.size(), 1u);
  EXPECT_EQ(expirations.front().first, 1u);
  EXPECT_EQ(expirations.front().second, "retries");
  EXPECT_EQ(t.retransmits(), 5u);
  EXPECT_EQ(t.expired(), 1u);
  EXPECT_FALSE(t.has_pending());
}

TEST(Transport, StaleAckFastRetransmitsAfterFlightTime) {
  Harness h(TransportMode::kReliable);
  Transport t(h.sim, h.channel, nullptr, h.opts, 1, 1, "down");
  Envelope envelope;
  envelope.epoch = 1;
  t.send(0, envelope, 0, true, [](const Frame&) {});
  // Immediately stale ack: inside the ack flight window, must NOT trigger
  // a retransmit (the ack may simply predate the send).
  t.on_ack(0, 1, 0);
  EXPECT_EQ(t.retransmits(), 0u);
  // Past the flight window the same stale ack proves the frame was missed.
  h.sim.run_for(2.0 * (h.channel.latency_s() + h.channel.jitter_s()) + 0.001);
  t.on_ack(0, 1, 0);
  EXPECT_EQ(t.retransmits(), 1u);
}

TEST(Transport, FenceExpiresOlderEpochsOnly) {
  Harness h(TransportMode::kReliable);
  Transport t(h.sim, h.channel, nullptr, h.opts, 2, 1, "down");
  std::vector<std::string> causes;
  Transport::Hooks hooks;
  hooks.on_expired = [&](int, std::uint64_t, int, const char* cause) {
    causes.emplace_back(cause);
  };
  t.set_hooks(std::move(hooks));
  Envelope old_epoch;
  old_epoch.epoch = 1;
  Envelope new_epoch;
  new_epoch.epoch = 2;
  t.send(0, old_epoch, 0, true, [](const Frame&) {});
  t.send(1, new_epoch, 0, true, [](const Frame&) {});
  t.fence(2);
  EXPECT_EQ(causes, (std::vector<std::string>{"epoch"}));
  EXPECT_TRUE(t.has_pending());  // node 1's epoch-2 frame survives
  EXPECT_EQ(t.expired(), 1u);
}

TEST(Transport, DeposedSenderCannotSupersedeNewerPending) {
  Harness h(TransportMode::kReliable);
  Transport t(h.sim, h.channel, nullptr, h.opts, 1, 1, "down");
  Envelope new_epoch;
  new_epoch.epoch = 5;
  Envelope old_epoch;
  old_epoch.epoch = 4;
  t.send(0, new_epoch, 0, true, [](const Frame&) {});
  t.send(0, old_epoch, 0, true, [](const Frame&) {});
  // The stale sender's frame went out untracked; fencing at the newer
  // epoch must find the epoch-5 frame still pending, not expired.
  t.fence(5);
  EXPECT_TRUE(t.has_pending());
  EXPECT_EQ(t.expired(), 0u);
}

TEST(Transport, NodeReceiveSuppressesDuplicatesWithinEpoch) {
  Harness h(TransportMode::kReliable);
  Transport t(h.sim, h.channel, nullptr, h.opts, 1, 1, "down");
  Frame frame;
  frame.envelope.epoch = 1;
  frame.seq = 1;
  EXPECT_EQ(t.receive_at_node(0, frame), Transport::Verdict::kDeliver);
  EXPECT_EQ(t.receive_at_node(0, frame), Transport::Verdict::kDuplicate);
  frame.seq = 3;  // a gap is fine: cumulative semantics
  EXPECT_EQ(t.receive_at_node(0, frame), Transport::Verdict::kDeliver);
  frame.seq = 2;  // late straggler behind the applied watermark
  EXPECT_EQ(t.receive_at_node(0, frame), Transport::Verdict::kDuplicate);
  // A newer epoch resets the sequence space.
  frame.envelope.epoch = 2;
  frame.seq = 1;
  EXPECT_EQ(t.receive_at_node(0, frame), Transport::Verdict::kDeliver);
  EXPECT_EQ(t.node_ack(0), 1u);
  EXPECT_EQ(t.node_ack_epoch(0), 2u);
  EXPECT_EQ(t.duplicates_suppressed(), 2u);
}

TEST(Transport, CoordinatorReceiveDedupsPerCoordinator) {
  Harness h(TransportMode::kReliable);
  Transport t(h.sim, h.channel, nullptr, h.opts, 1, 2, "up");
  Frame frame;
  frame.envelope.epoch = 1;
  frame.seq = 1;
  EXPECT_EQ(t.receive_at_coordinator(0, 0, frame),
            Transport::Verdict::kDeliver);
  // The standby (coordinator 1) sees the same frame for the first time.
  EXPECT_EQ(t.receive_at_coordinator(1, 0, frame),
            Transport::Verdict::kDeliver);
  EXPECT_EQ(t.receive_at_coordinator(0, 0, frame),
            Transport::Verdict::kDuplicate);
}

TEST(Transport, DuplicateFaultDeliversTwiceOnWireOnceAfterDedup) {
  sim::FaultPlan plan(6);
  plan.add({sim::FaultKind::kChannelDuplicate, 0.0, 1.0, /*target=*/0, 1.0});
  Harness h(TransportMode::kReliable);
  Transport t(h.sim, h.channel, &plan, h.opts, 1, 1, "down");
  int wire_deliveries = 0;
  int applied = 0;
  Envelope envelope;
  envelope.epoch = 1;
  t.send(0, envelope, 0, true, [&](const Frame& f) {
    ++wire_deliveries;
    if (t.receive_at_node(0, f) == Transport::Verdict::kDeliver) ++applied;
  });
  t.on_ack(0, 1, 1);  // release before the timer fires: isolate the fault
  h.sim.run_for(0.5);
  EXPECT_EQ(wire_deliveries, 2);
  EXPECT_EQ(applied, 1);
  EXPECT_EQ(t.duplicates_suppressed(), 1u);
}

TEST(Transport, CorruptFaultIsDetectedNeverMisdelivered) {
  sim::FaultPlan plan(7);
  plan.add({sim::FaultKind::kChannelCorrupt, 0.0, 1.0, /*target=*/0, 1.0});
  Harness h(TransportMode::kReliable);
  Transport t(h.sim, h.channel, &plan, h.opts, 1, 1, "down");
  int corrupt = 0;
  int applied = 0;
  Envelope envelope;
  envelope.epoch = 1;
  t.send(0, envelope, 0, true, [&](const Frame& f) {
    if (cluster::frame_corrupt(f)) {
      ++corrupt;
      return;
    }
    ++applied;
  });
  h.sim.run_for(0.01);
  EXPECT_EQ(corrupt, 1);
  EXPECT_EQ(applied, 0);
}

TEST(Transport, ReorderFaultDelaysBehindLaterTraffic) {
  sim::FaultPlan plan(8);
  // Reorder only the first round's frame (window closes before round 2).
  plan.add({sim::FaultKind::kChannelReorder, 0.0, 0.001, /*target=*/0, 1.0});
  Harness h(TransportMode::kDatagram);
  Transport t(h.sim, h.channel, &plan, h.opts, 1, 1, "down");
  std::vector<int> arrivals;
  Envelope envelope;
  t.send(0, envelope, 0, false, [&](const Frame&) { arrivals.push_back(1); });
  h.sim.schedule_at(0.01, [&] {
    t.send(0, envelope, 0, false,
           [&](const Frame&) { arrivals.push_back(2); });
  });
  h.sim.run_for(1.0);
  EXPECT_EQ(arrivals, (std::vector<int>{2, 1}));
}

TEST(Transport, RoundBudgetDefersExcessRetransmits) {
  sim::FaultPlan plan(9);
  plan.add({sim::FaultKind::kChannelLoss, 0.0, 0.35, /*target=*/-1, 1.0});
  Harness h(TransportMode::kReliable);
  h.opts.rto_s = 0.02;
  h.opts.round_retransmit_budget = 1;  // one retry per round window
  Transport t(h.sim, h.channel, &plan, h.opts, 4, 1, "down");
  Envelope envelope;
  envelope.epoch = 1;
  for (int n = 0; n < 4; ++n) {
    t.send(n, envelope, 0, true, [](const Frame&) {});
  }
  h.sim.run_for(0.1);  // one full round window after the sends
  // Four frames wanted to retry (rto 20 ms), but the budget admits one per
  // 100 ms window; deferral must consume no retry attempts.
  EXPECT_LE(t.retransmits(), 2u);
  EXPECT_EQ(t.expired(), 0u);
  h.sim.run_for(3.0);  // budget refills each window; all deliver eventually
  EXPECT_TRUE(!t.has_pending() || t.expired() == 0u);
}

// --- Fault-plan parser: new channel kinds ----------------------------------

sim::FaultPlan parse_plan(const std::string& text) {
  std::istringstream in(text);
  return sim::FaultPlan::parse(in);
}

TEST(TransportFaultParser, AcceptsAllChannelKinds) {
  const sim::FaultPlan plan = parse_plan(
      "seed 5\n"
      "channel_reorder 0.1 0.4 node=0 p=0.5\n"
      "channel_duplicate 0.1 0.4 node=1 p=0.25\n"
      "channel_delay_spike 0.2 0.5 node=0 delay=0.02\n"
      "channel_corrupt 0.3 0.6 p=0.75\n");
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.specs()[0].kind, sim::FaultKind::kChannelReorder);
  EXPECT_EQ(plan.specs()[1].kind, sim::FaultKind::kChannelDuplicate);
  EXPECT_EQ(plan.specs()[2].kind, sim::FaultKind::kChannelDelaySpike);
  EXPECT_EQ(plan.specs()[3].kind, sim::FaultKind::kChannelCorrupt);
  EXPECT_DOUBLE_EQ(plan.specs()[2].value, 0.02);
  EXPECT_EQ(plan.specs()[3].target, -1);
}

TEST(TransportFaultParser, RejectsOutOfRangeProbabilityWithLineNumber) {
  try {
    parse_plan("channel_loss 0.0 1.0 p=0.5\nchannel_reorder 0.1 0.4 p=1.5\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("[0, 1]"), std::string::npos) << what;
  }
}

TEST(TransportFaultParser, RejectsNaNProbability) {
  // NaN passes strtod but must fail the range check (NaN compares false
  // against everything, so only a negated comparison catches it).
  EXPECT_THROW(parse_plan("channel_corrupt 0.0 1.0 p=nan\n"),
               std::runtime_error);
  EXPECT_THROW(parse_plan("channel_duplicate 0.0 1.0 p=-0.1\n"),
               std::runtime_error);
}

TEST(TransportFaultParser, RejectsNegativeDelaySpike) {
  try {
    parse_plan("channel_delay_spike 0.0 1.0 delay=-0.005\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

// --- Property sweep: the bounded-convergence guarantee ---------------------

// A synthetic coordinator/node harness: settings rounds every T to three
// nodes over a faulted channel, summaries carrying cumulative acks back,
// one mid-run coordinator epoch bump.  Asserts the transport's contract:
// applied sequences are strictly increasing within an epoch (no duplicate
// or rolled-back apply), and once the fault windows close every node
// converges to the final grant within a bounded number of rounds.
void run_transport_scenario(std::uint64_t seed) {
  constexpr double kDuration = 2.0;
  constexpr double kPeriod = 0.1;
  constexpr std::size_t kNodes = 3;
  constexpr double kLastRound = 0.8 * kDuration;
  sim::Simulation sim;
  sim::Rng rng(seed);

  // Random channel-fault windows, all inside [0, 0.5 * duration].
  sim::FaultPlan plan(seed);
  const int n_faults = 1 + static_cast<int>(rng.uniform_int(0, 2));
  for (int i = 0; i < n_faults; ++i) {
    constexpr sim::FaultKind kKinds[] = {
        sim::FaultKind::kChannelLoss, sim::FaultKind::kChannelReorder,
        sim::FaultKind::kChannelDuplicate, sim::FaultKind::kChannelDelaySpike,
        sim::FaultKind::kChannelCorrupt};
    sim::FaultSpec spec;
    spec.kind = kKinds[rng.uniform_int(0, 4)];
    spec.start_s = rng.uniform(0.0, 0.3 * kDuration);
    spec.end_s = spec.start_s + rng.uniform(0.05, 0.2 * kDuration);
    spec.end_s = std::min(spec.end_s, 0.5 * kDuration);
    spec.target = rng.bernoulli(0.5)
                      ? -1
                      : static_cast<int>(rng.uniform_int(0, kNodes - 1));
    spec.value = spec.kind == sim::FaultKind::kChannelDelaySpike
                     ? rng.uniform(0.001, 0.03)
                     : rng.uniform(0.2, 0.8);
    plan.add(spec);
  }

  cluster::Channel down_ch(sim, 0.002, 0.001, sim::Rng(seed));
  cluster::Channel up_ch(sim, 0.002, 0.001, sim::Rng(seed ^ 0x5555));
  TransportOptions opts;
  opts.mode = TransportMode::kReliable;
  opts.round_period_s = kPeriod;
  Transport down(sim, down_ch, &plan, opts, kNodes, 1, "down");
  Transport up(sim, up_ch, &plan, opts, kNodes, 1, "up");

  cluster::Epoch coordinator_epoch = 1;
  std::vector<cluster::Epoch> node_epoch(kNodes, 0);
  std::vector<std::uint64_t> node_applied(kNodes, 0);
  std::vector<std::uint64_t> last_sent(kNodes, 0);
  std::vector<double> last_apply_t(kNodes, -1.0);

  auto node_receive = [&](std::size_t n, const Frame& frame) {
    if (cluster::frame_corrupt(frame)) return;
    if (frame.envelope.epoch < node_epoch[n]) return;  // fenced
    if (down.receive_at_node(static_cast<int>(n), frame) ==
        Transport::Verdict::kDuplicate) {
      return;
    }
    // The transport's effectively-once contract: within an epoch the
    // applied sequence strictly increases (no duplicate, no rollback).
    if (frame.envelope.epoch == node_epoch[n]) {
      ASSERT_GT(frame.seq, node_applied[n]) << "duplicate apply on node " << n;
    }
    node_epoch[n] = frame.envelope.epoch;
    node_applied[n] = frame.seq;
    last_apply_t[n] = sim.now();
  };

  sim.schedule_every(kPeriod, [&] {
    if (sim.now() > kLastRound) return;
    for (std::size_t n = 0; n < kNodes; ++n) {
      Envelope envelope;
      envelope.epoch = coordinator_epoch;
      down.send(static_cast<int>(n), envelope, 0, /*track=*/true,
                [&, n](const Frame& frame) { node_receive(n, frame); });
      ++last_sent[n];
    }
  });

  // Summaries: each node acks its applied watermark once per round,
  // offset from the settings rounds as in the daemon.
  sim.schedule_every(kPeriod, [&] {
    for (std::size_t n = 0; n < kNodes; ++n) {
      Envelope envelope;
      envelope.epoch = down.node_ack_epoch(static_cast<int>(n));
      up.send(static_cast<int>(n), envelope,
              down.node_ack(static_cast<int>(n)), /*track=*/false,
              [&, n](const Frame& frame) {
                if (cluster::frame_corrupt(frame)) return;
                if (up.receive_at_coordinator(0, static_cast<int>(n), frame) ==
                    Transport::Verdict::kDuplicate) {
                  return;
                }
                down.on_ack(static_cast<int>(n), frame.envelope.epoch,
                            frame.ack);
              });
    }
  });

  // Mid-run failover: a new coordinator epoch; the old queue drains.
  sim.schedule_at(0.45 * kDuration, [&] {
    coordinator_epoch = 2;
    down.fence(2);
  });

  sim.run_for(kDuration);

  // Bounded convergence: the fault windows all closed by 0.5 * duration
  // and the last settings round went out at 0.8 * duration on a clean
  // channel, so every node must hold the final grant by the end of the
  // run, and must have reached it within a few rounds of the last send.
  for (std::size_t n = 0; n < kNodes; ++n) {
    EXPECT_EQ(node_applied[n], last_sent[n]) << "node " << n;
    EXPECT_EQ(node_epoch[n], 2u) << "node " << n;
    EXPECT_LE(last_apply_t[n], kLastRound + 3.0 * kPeriod) << "node " << n;
  }
  EXPECT_FALSE(down.has_pending());
}

TEST(TransportProperty, SeededScenariosConvergeWithoutDuplicateApply) {
  proptest::run_seeded(40000, 1000,
                       "./tests/test_transport "
                       "--gtest_filter=TransportProperty.*",
                       run_transport_scenario);
}

// --- Daemon-level acceptance -----------------------------------------------

sim::FaultPlan adversarial_plan() {
  sim::FaultPlan plan(77);
  plan.add({sim::FaultKind::kChannelLoss, 0.3, 0.9, /*target=*/-1, 0.5});
  plan.add({sim::FaultKind::kChannelReorder, 0.3, 0.9, /*target=*/-1, 0.4});
  plan.add({sim::FaultKind::kChannelDuplicate, 0.3, 0.9, /*target=*/-1, 0.3});
  plan.add({sim::FaultKind::kChannelCorrupt, 0.4, 0.8, /*target=*/-1, 0.3});
  plan.add({sim::FaultKind::kChannelDelaySpike, 0.3, 0.9, /*target=*/-1,
            0.01});
  return plan;
}

void run_daemon(cluster::TransportMode mode, const sim::FaultPlan* plan,
                sim::EventLog* journal, core::ClusterDaemon** out_daemon,
                int step_threads = 1) {
  sim::Simulation sim;
  sim::Rng rng(31);
  const mach::MachineConfig machine = mach::p630();
  cluster::Cluster cluster =
      cluster::Cluster::homogeneous(sim, machine, 2, rng);
  for (const auto& addr : cluster.all_procs()) {
    cluster.core(addr).add_workload(
        workload::make_uniform_synthetic(70.0, 1e12));
  }
  power::PowerBudget budget(2 * 4 * 140.0);
  core::ClusterDaemonConfig config;
  config.journal = journal;
  config.fault_plan = plan;
  config.transport = mode;
  config.step_threads = step_threads;
  core::ClusterDaemon daemon(sim, cluster, machine.freq_table, budget,
                             config);
  sim.schedule_at(0.5, [&] { budget.set_limit_w(2 * 4 * 140.0 * 0.5); });
  sim.run_for(2.0);
  if (out_daemon) *out_daemon = nullptr;  // daemon dies with this scope
}

std::size_t count_type(const sim::EventLog& log, sim::EventType type) {
  std::size_t n = 0;
  for (const sim::Event& e : log.events()) n += e.type == type;
  return n;
}

TEST(TransportDaemon, ReliableUnderAdversarialChannelKeepsInvariants) {
  const sim::FaultPlan plan = adversarial_plan();
  sim::EventLog journal;
  run_daemon(cluster::TransportMode::kReliable, &plan, &journal, nullptr);
  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());
  // The session layer actually worked for its living: retransmissions
  // fired, duplicates were suppressed, corruption was detected (never
  // silently applied), and the run promised a convergence window.
  EXPECT_GT(count_type(journal, sim::EventType::kMessageRetransmit), 0u);
  EXPECT_GT(count_type(journal, sim::EventType::kMessageDuplicate), 0u);
  EXPECT_GT(count_type(journal, sim::EventType::kMessageCorrupt), 0u);
  bool promised = false;
  for (const sim::Event& e : journal.events()) {
    if (e.type == sim::EventType::kRunMeta && e.has_num("convergence_window_s")) {
      promised = true;
      const std::string* mode = e.find_str("transport");
      ASSERT_NE(mode, nullptr);
      EXPECT_EQ(*mode, "reliable");
    }
  }
  EXPECT_TRUE(promised);
}

TEST(TransportDaemon, DatagramUnderSameChannelKeepsInvariants) {
  // Fire-and-forget under the same adversary: no retransmissions (there is
  // no session), but corruption is still detected by checksum and the
  // journal still passes every check, bounded convergence included (the
  // next round's natural repair converges within the promised window).
  const sim::FaultPlan plan = adversarial_plan();
  sim::EventLog journal;
  run_daemon(cluster::TransportMode::kDatagram, &plan, &journal, nullptr);
  const sim::JournalCheckReport report = sim::check_journal(journal);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(count_type(journal, sim::EventType::kMessageRetransmit), 0u);
  EXPECT_GT(count_type(journal, sim::EventType::kMessageCorrupt), 0u);
}

TEST(TransportDaemon, ReliableUnderFaultsIsBitDeterministic) {
  const sim::FaultPlan plan = adversarial_plan();
  sim::EventLog a;
  run_daemon(cluster::TransportMode::kReliable, &plan, &a, nullptr);
  sim::EventLog b;
  run_daemon(cluster::TransportMode::kReliable, &plan, &b, nullptr);
  EXPECT_EQ(run_bytes(a), run_bytes(b));

  // The parallel node stepper must not perturb the retransmit schedule.
  sim::EventLog threaded;
  run_daemon(cluster::TransportMode::kReliable, &plan, &threaded, nullptr,
             /*step_threads=*/4);
  EXPECT_EQ(run_bytes(a), run_bytes(threaded));
}

TEST(TransportDaemon, CleanChannelReliableCostsNothing) {
  // On a clean channel the session layer is pure bookkeeping: zero
  // retransmissions, zero expirations, zero suppressed duplicates.
  sim::EventLog journal;
  run_daemon(cluster::TransportMode::kReliable, nullptr, &journal, nullptr);
  EXPECT_EQ(count_type(journal, sim::EventType::kMessageRetransmit), 0u);
  EXPECT_EQ(count_type(journal, sim::EventType::kMessageExpired), 0u);
  EXPECT_EQ(count_type(journal, sim::EventType::kMessageDuplicate), 0u);
  EXPECT_TRUE(sim::check_journal(journal).ok());
}

}  // namespace
}  // namespace fvsst
