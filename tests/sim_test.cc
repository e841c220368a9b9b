// Unit tests for the discrete-event simulator, sharded workload runs, and
// the network model.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/workload/sharded_run.h"

namespace palette {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(SimTime::FromSeconds(3), [&] { order.push_back(3); });
  sim.At(SimTime::FromSeconds(1), [&] { order.push_back(1); });
  sim.At(SimTime::FromSeconds(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(3));
}

TEST(SimulatorTest, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  const SimTime t = SimTime::FromSeconds(1);
  for (int i = 0; i < 5; ++i) {
    sim.At(t, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, SchedulingInPastClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.At(SimTime::FromSeconds(5), [&] {
    sim.At(SimTime::FromSeconds(1), [&] {
      fired = true;
      EXPECT_EQ(sim.Now(), SimTime::FromSeconds(5));
    });
  });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, AfterIsRelative) {
  Simulator sim;
  SimTime when;
  sim.At(SimTime::FromSeconds(2), [&] {
    sim.After(SimTime::FromSeconds(3), [&] { when = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(when, SimTime::FromSeconds(5));
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) {
      sim.After(SimTime::FromMillis(1), chain);
    }
  };
  sim.After(SimTime::FromMillis(1), chain);
  sim.Run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.executed_events(), 10u);
}

TEST(SimulatorTest, RunRespectsMaxEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> forever = [&] {
    ++count;
    sim.After(SimTime::FromMillis(1), forever);
  };
  sim.After(SimTime::FromMillis(1), forever);
  EXPECT_EQ(sim.Run(100), 100u);
  EXPECT_EQ(count, 100);
}

TEST(SimulatorTest, StepOnEmptyReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, PastClampedEventKeepsSchedulingOrderAtNow) {
  // An event scheduled in the past is clamped to Now() and must run after
  // events already queued for Now (earlier seq) but before any later time.
  Simulator sim;
  std::vector<int> order;
  sim.At(SimTime::FromSeconds(5), [&] {
    sim.At(SimTime::FromSeconds(5), [&] { order.push_back(1); });
    sim.At(SimTime::FromSeconds(1), [&] { order.push_back(2); });  // past
    sim.At(SimTime::FromSeconds(6), [&] { order.push_back(3); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, EqualTimestampOrderingSurvivesHeapChurn) {
  // Interleaves a spread of distinct times with large equal-time batches so
  // heap sift operations shuffle entries; ties must still execute in
  // scheduling (seq) order. A linear-congruential walk keeps the schedule
  // deterministic.
  Simulator sim;
  std::vector<std::pair<std::int64_t, int>> executed;
  std::uint64_t lcg = 12345;
  int seq_in_batch = 0;
  for (int i = 0; i < 2000; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto bucket = static_cast<std::int64_t>((lcg >> 33) % 97);
    const SimTime when = SimTime::FromMicros(static_cast<double>(bucket));
    sim.At(when, [&executed, bucket, seq = seq_in_batch++] {
      executed.emplace_back(bucket, seq);
    });
  }
  sim.Run();
  ASSERT_EQ(executed.size(), 2000u);
  for (std::size_t i = 1; i < executed.size(); ++i) {
    ASSERT_LE(executed[i - 1].first, executed[i].first);
    if (executed[i - 1].first == executed[i].first) {
      // Same timestamp: scheduling order must be preserved.
      ASSERT_LT(executed[i - 1].second, executed[i].second);
    }
  }
}

TEST(SimulatorTest, PendingEventsTracksPoolReuse) {
  Simulator sim;
  EXPECT_EQ(sim.pending_events(), 0u);
  for (int i = 0; i < 10; ++i) {
    sim.After(SimTime::FromMillis(i), [] {});
  }
  EXPECT_EQ(sim.pending_events(), 10u);
  while (sim.Step()) {
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 10u);
  // Freed slots are recycled: scheduling again must not grow the pending
  // count beyond what is actually queued.
  sim.After(SimTime::FromMillis(1), [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(sim.executed_events(), 11u);
}

TEST(SimulatorTest, CallbackMayRescheduleWhilePoolGrows) {
  // The running callback is moved out of its pool slot before invocation,
  // so a callback that schedules enough new events to reallocate the pool
  // must not invalidate itself.
  Simulator sim;
  int fired = 0;
  sim.At(SimTime::FromMillis(1), [&] {
    for (int i = 0; i < 1000; ++i) {
      sim.After(SimTime::FromMillis(1), [&fired] { ++fired; });
    }
  });
  sim.Run();
  EXPECT_EQ(fired, 1000);
}

TEST(SimulatorTest, CapacitySizedCaptureFits) {
  // A capture exactly at the inline buffer's capacity must be accepted
  // (the platform's continuations rely on this headroom).
  struct Padded {
    int* target;
    unsigned char pad[Simulator::kMaxEventCaptureBytes - sizeof(int*)];
  };
  Simulator sim;
  int hits = 0;
  Padded padded{&hits, {}};
  sim.After(SimTime::FromMillis(1), [padded] { ++*padded.target; });
  sim.Run();
  EXPECT_EQ(hits, 1);
}

TEST(FifoResourceTest, SequentialBookingsQueue) {
  Simulator sim;
  FifoResource cpu(&sim);
  const SimTime first = cpu.Acquire(SimTime::FromSeconds(2));
  const SimTime second = cpu.Acquire(SimTime::FromSeconds(3));
  EXPECT_EQ(first, SimTime::FromSeconds(2));
  EXPECT_EQ(second, SimTime::FromSeconds(5));
  EXPECT_EQ(cpu.busy_time(), SimTime::FromSeconds(5));
}

TEST(FifoResourceTest, NotBeforeDelaysStart) {
  Simulator sim;
  FifoResource cpu(&sim);
  const SimTime done = cpu.Acquire(SimTime::FromSeconds(1),
                                   /*not_before=*/SimTime::FromSeconds(10));
  EXPECT_EQ(done, SimTime::FromSeconds(11));
}

TEST(FifoResourceTest, IdleGapsDoNotCountAsBusy) {
  Simulator sim;
  FifoResource cpu(&sim);
  cpu.Acquire(SimTime::FromSeconds(1));
  cpu.Acquire(SimTime::FromSeconds(1), SimTime::FromSeconds(100));
  EXPECT_EQ(cpu.busy_time(), SimTime::FromSeconds(2));
  EXPECT_EQ(cpu.available_at(), SimTime::FromSeconds(101));
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(&sim_, MakeConfig()) {
    network_.AddNode("a");
    network_.AddNode("b");
    network_.AddNode("c");
  }

  static NetworkConfig MakeConfig() {
    NetworkConfig config;
    config.bandwidth_bits_per_sec = 1e9;  // 125 MB/s
    config.latency = SimTime::FromMillis(1);
    config.local_bandwidth_bits_per_sec = 80e9;
    config.local_latency = SimTime::FromMicros(10);
    return config;
  }

  Simulator sim_;
  Network network_;
};

TEST_F(NetworkTest, RemoteTransferTimeMatchesBandwidthPlusLatency) {
  const SimTime done = network_.Transfer("a", "b", 125'000'000);
  EXPECT_NEAR(done.seconds(), 1.001, 1e-6);
  EXPECT_EQ(network_.remote_bytes(), 125'000'000u);
  EXPECT_EQ(network_.remote_transfers(), 1u);
}

TEST_F(NetworkTest, LocalTransferIsMuchFaster) {
  const SimTime local = network_.Transfer("a", "a", 125'000'000);
  EXPECT_LT(local.seconds(), 0.02);
  EXPECT_EQ(network_.local_bytes(), 125'000'000u);
  EXPECT_EQ(network_.remote_bytes(), 0u);
}

TEST_F(NetworkTest, EgressContentionSerializes) {
  // Two transfers out of the same node share its egress NIC.
  const SimTime first = network_.Transfer("a", "b", 125'000'000);
  const SimTime second = network_.Transfer("a", "c", 125'000'000);
  EXPECT_NEAR(first.seconds(), 1.001, 1e-6);
  EXPECT_NEAR(second.seconds(), 2.001, 1e-6);
}

TEST_F(NetworkTest, IngressContentionSerializes) {
  const SimTime first = network_.Transfer("a", "c", 125'000'000);
  const SimTime second = network_.Transfer("b", "c", 125'000'000);
  EXPECT_NEAR(first.seconds(), 1.001, 1e-6);
  EXPECT_NEAR(second.seconds(), 2.001, 1e-6);
}

TEST_F(NetworkTest, DisjointPairsProceedInParallel) {
  network_.AddNode("d");
  const SimTime first = network_.Transfer("a", "b", 125'000'000);
  const SimTime second = network_.Transfer("c", "d", 125'000'000);
  EXPECT_NEAR(first.seconds(), 1.001, 1e-6);
  EXPECT_NEAR(second.seconds(), 1.001, 1e-6);
}

TEST_F(NetworkTest, ReadyTimeDefersTransfer) {
  const SimTime done =
      network_.Transfer("a", "b", 125'000'000, SimTime::FromSeconds(10));
  EXPECT_NEAR(done.seconds(), 11.001, 1e-6);
}

TEST_F(NetworkTest, HasNode) {
  EXPECT_TRUE(network_.HasNode("a"));
  EXPECT_FALSE(network_.HasNode("zz"));
}

TEST(SimulatorTest, AfterSaturatesInsteadOfWrapping) {
  // A huge delay must land at the end of time, not wrap into the past and
  // fire immediately.
  Simulator sim;
  std::vector<int> order;
  sim.At(SimTime::FromSeconds(5), [&] {
    sim.After(SimTime::Max(), [&] {
      order.push_back(2);
      EXPECT_EQ(sim.Now(), SimTime::Max());
    });
    sim.After(SimTime::FromSeconds(1), [&] { order.push_back(1); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, AfterNearTimeBoundSaturates) {
  // Two near-bound delays whose exact sum exceeds the packed 64-bit time
  // range: the event clamps to SimTime::Max() instead of wrapping.
  Simulator sim;
  const SimTime huge = SimTime::FromNanos(std::int64_t{1} << 62);
  SimTime fired;
  sim.At(huge, [&] {
    sim.After(huge, [&] { fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, SimTime::Max());
}

TEST(SimulatorTest, AfterHugeNegativeDelayClampsToNow) {
  Simulator sim;
  SimTime fired;
  sim.At(SimTime::FromSeconds(5), [&] {
    sim.After(SimTime::Min(), [&] { fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, SimTime::FromSeconds(5));
}

// ---------------------------------------------------------------------------
// Sharded workload runs: each worker group runs as its own simulation.
//
// The pinned samples digests were recorded on the lock-step epoch engine
// that preceded independent group runs. Matching them shows that running
// the groups apart reproduces the coupled simulation bit for bit.

enum class ShardedCell { kBase, kFaults, kEverythingOn };

ShardedRunResult RunShardedCell(int shards, ShardedCell cell,
                                bool profile = false) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 400;
  spec.driver.duration = SimTime::FromSeconds(3);
  spec.mix.color_count = 64;
  spec.mix.zipf_theta = 0.9;
  spec.seed = 7;
  ShardedWorkloadConfig config;
  config.groups = 4;
  config.shards = shards;
  config.routers_per_group = 2;
  config.group_sync_lag = SimTime::FromMillis(5);
  config.profile = profile;
  PlatformConfig platform = DefaultWorkloadPlatformConfig();
  // A mid-run worker crash in group 1 plus a router crash/restart cycle in
  // group 2.
  std::vector<ShardedFault> faults;
  faults.push_back(ShardedFault{
      1, FaultEvent{SimTime::FromSeconds(1), FaultKind::kCrash, "g1w0"}});
  faults.push_back(ShardedFault{
      2,
      FaultEvent{SimTime::FromMillis(1200), FaultKind::kRouterCrash, "r0"}});
  faults.push_back(ShardedFault{
      2, FaultEvent{SimTime::FromSeconds(2), FaultKind::kRouterRestart,
                    "r0"}});
  if (cell == ShardedCell::kEverythingOn) {
    platform.dispatch_mode = FaasDispatchMode::kHybrid;
    platform.storage.mode = CoherenceMode::kWriteBack;
    spec.mix.write_fraction = 0.2;
    config.planner.plan_every = SimTime::FromMillis(300);
    config.group_dispatch = DispatchMode::kSpray;
  }
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  return RunShardedWorkload(spec, PolicyKind::kLeastAssigned,
                            /*total_workers=*/16, config, slo, platform,
                            cell == ShardedCell::kBase ? nullptr : &faults);
}

// Runs `cell` on 1 and 4 shards and checks the pinned samples digest plus
// shard invariance of everything the run reports.
void ExpectPinnedAndShardInvariant(ShardedCell cell,
                                   std::uint64_t pinned_digest) {
  const ShardedRunResult one = RunShardedCell(1, cell);
  const ShardedRunResult four = RunShardedCell(4, cell);
  EXPECT_GT(one.report.completed, 0u);
  EXPECT_TRUE(one.books_close);
  EXPECT_TRUE(four.books_close);
  EXPECT_EQ(one.samples_digest, pinned_digest);
  EXPECT_EQ(four.samples_digest, pinned_digest);
  EXPECT_EQ(one.engine_digest, four.engine_digest);
  EXPECT_EQ(one.sim_events, four.sim_events);
  EXPECT_EQ(one.driver_submitted, four.driver_submitted);
  EXPECT_EQ(one.driver_completed, four.driver_completed);
  EXPECT_EQ(one.group_rejections, four.group_rejections);
  EXPECT_EQ(one.retries, four.retries);
}

TEST(ShardedWorkloadTest, ZipfMmppDigestsInvariantAcrossShardCounts) {
  ExpectPinnedAndShardInvariant(ShardedCell::kBase, 0x98449c34f1a343d8ULL);
}

TEST(ShardedWorkloadTest, FaultCellStaysDeterministic) {
  ExpectPinnedAndShardInvariant(ShardedCell::kFaults, 0xbcf9d7f7a9b89d70ULL);
  // The faults actually bit: the event stream diverges from the fault-free
  // run (membership churn, view resync, re-coloring).
  EXPECT_NE(RunShardedCell(1, ShardedCell::kFaults).engine_digest,
            RunShardedCell(1, ShardedCell::kBase).engine_digest);
}

TEST(ShardedWorkloadTest, EverythingOnCellPinnedAcrossShardCounts) {
  // Faults plus hybrid dispatch, write-back storage, the planner and
  // spraying group routers: every optional layer inside the groups.
  ExpectPinnedAndShardInvariant(ShardedCell::kEverythingOn,
                                0xd4d04131b9c24132ULL);
}

TEST(ShardedWorkloadTest, SampleBookFollowsTheDriverStopRule) {
  // The sharded book is sized by a counting pass over the arrival stream.
  // It must stop exactly where an OpenLoopDriver stops: at the horizon or
  // at max_invocations, whichever comes first.
  WorkloadSpec spec;
  spec.arrival.rate_per_sec = 400;
  spec.driver.duration = SimTime::FromSeconds(3);
  spec.mix.color_count = 64;
  spec.seed = 7;
  ShardedWorkloadConfig config;
  config.groups = 4;
  config.shards = 2;
  SloConfig slo;
  const PlatformConfig platform = DefaultWorkloadPlatformConfig();
  auto expect_same_count_as_monolithic = [&](const WorkloadSpec& at) {
    const ShardedRunResult sharded = RunShardedWorkload(
        at, PolicyKind::kLeastAssigned, 16, config, slo, platform);
    const WorkloadRunResult monolithic =
        RunWorkload(at, PolicyKind::kLeastAssigned, 16, slo, platform);
    EXPECT_EQ(sharded.driver_submitted, monolithic.samples.size());
    EXPECT_EQ(sharded.report.submitted, sharded.driver_submitted);
    EXPECT_TRUE(sharded.books_close);
    return sharded;
  };

  const ShardedRunResult full = expect_same_count_as_monolithic(spec);
  ASSERT_GT(full.driver_submitted, 1000u);

  // A cap below the arrival count submits exactly the cap.
  WorkloadSpec capped = spec;
  capped.driver.max_invocations = 500;
  const ShardedRunResult run = expect_same_count_as_monolithic(capped);
  EXPECT_EQ(run.driver_submitted, 500u);
  EXPECT_EQ(run.group_submitted + run.group_rejections, 500u);

  // A zero-length horizon admits no arrival at all.
  WorkloadSpec empty = spec;
  empty.driver.duration = SimTime();
  const ShardedRunResult none = expect_same_count_as_monolithic(empty);
  EXPECT_EQ(none.driver_submitted, 0u);
  EXPECT_EQ(none.group_submitted, 0u);
}

TEST(ShardedWorkloadTest, ProfilerAccountsEveryGroupRun) {
  // One epoch is one group run. Whichever thread runs a group, the
  // per-thread counts add up to the groups and to the run's events.
  for (const int shards : {1, 4}) {
    const ShardedRunResult run =
        RunShardedCell(shards, ShardedCell::kBase, /*profile=*/true);
    const EngineProfile& profile = run.profile;
    EXPECT_EQ(profile.groups, 4);
    EXPECT_EQ(profile.shards, shards);
    EXPECT_EQ(profile.epochs, 4u);
    EXPECT_EQ(profile.events, run.sim_events);
    ASSERT_EQ(profile.per_shard.size(), static_cast<std::size_t>(shards));
    std::uint64_t epochs = 0;
    std::uint64_t events = 0;
    for (const ShardProfile& shard : profile.per_shard) {
      epochs += shard.epochs;
      events += shard.events;
      EXPECT_LE(shard.busy_epochs, shard.epochs);
    }
    EXPECT_EQ(epochs, profile.epochs);
    EXPECT_EQ(events, run.sim_events);
    // Every group ran on some thread, so some thread spent time on them.
    EXPECT_GT(profile.per_shard.front().execute_ns +
                  profile.per_shard.back().execute_ns,
              0u);
  }
}

TEST(ShardedWorkloadTest, ProfilerOffReportsNoWallTime) {
  const ShardedRunResult run = RunShardedCell(2, ShardedCell::kBase);
  // Counts are kept regardless; the wall-clock fields stay zero.
  EXPECT_EQ(run.profile.events, run.sim_events);
  for (const ShardProfile& shard : run.profile.per_shard) {
    EXPECT_EQ(shard.execute_ns, 0u);
    EXPECT_EQ(shard.barrier_wait_ns, 0u);
    EXPECT_EQ(shard.drain_ns, 0u);
  }
}

// ---------------------------------------------------------------------------
// Clock observer: the event-free hook driving the telemetry sampler.

TEST(ClockObserverTest, FiresAtMarksBeforeTheNextEvent) {
  Simulator sim;
  std::vector<std::int64_t> marks;
  std::vector<std::int64_t> events;
  sim.SetClockObserver(SimTime::FromMillis(10), [&marks](SimTime mark) {
    marks.push_back(mark.nanos());
  });
  sim.At(SimTime::FromMillis(5),
         [&] { events.push_back(sim.Now().nanos()); });
  sim.At(SimTime::FromMillis(25),
         [&] { events.push_back(sim.Now().nanos()); });
  sim.Run();
  // The 5 ms event precedes the first mark; before the 25 ms event the
  // observer catches up through the 10 ms and 20 ms marks.
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(marks[0], SimTime::FromMillis(10).nanos());
  EXPECT_EQ(marks[1], SimTime::FromMillis(20).nanos());
  EXPECT_EQ(sim.next_observer_mark(), SimTime::FromMillis(30));
}

TEST(ClockObserverTest, MarkAtEventTimestampFiresFirst) {
  Simulator sim;
  std::vector<std::string> order;
  sim.SetClockObserver(SimTime::FromMillis(10), [&order](SimTime) {
    order.push_back("mark");
  });
  sim.At(SimTime::FromMillis(10), [&order] { order.push_back("event"); });
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "mark");  // window closes before its boundary event
  EXPECT_EQ(order[1], "event");
}

TEST(ClockObserverTest, AddsNoEventsAndKeepsDigest) {
  auto run = [](bool observe) {
    Simulator sim;
    std::uint64_t marks = 0;
    if (observe) {
      sim.SetClockObserver(SimTime::FromMillis(1),
                           [&marks](SimTime) { ++marks; });
    }
    for (int i = 0; i < 50; ++i) {
      sim.At(SimTime::FromMicros(700 * i), [] {});
    }
    sim.Run();
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>(
        sim.executed_events(), sim.event_digest(), marks);
  };
  const auto off = run(false);
  const auto on = run(true);
  // Marks fired but the executed stream is bit-identical: sampling is
  // invisible to the event digests by construction.
  EXPECT_GT(std::get<2>(on), 0u);
  EXPECT_EQ(std::get<2>(off), 0u);
  EXPECT_EQ(std::get<0>(on), std::get<0>(off));
  EXPECT_EQ(std::get<1>(on), std::get<1>(off));
}

TEST(ClockObserverTest, FlushEmitsIdleTailAndUninstallStops) {
  Simulator sim;
  std::vector<std::int64_t> marks;
  sim.SetClockObserver(SimTime::FromMillis(10), [&marks](SimTime mark) {
    marks.push_back(mark.nanos());
  });
  sim.At(SimTime::FromMillis(12), [] {});
  sim.Run();  // fires the 10 ms mark only; the clock stops at 12 ms
  ASSERT_EQ(marks.size(), 1u);
  sim.FlushObserverUpTo(SimTime::FromMillis(45));
  // 20, 30, 40 — the idle tail up to the horizon, aligned to the grid.
  ASSERT_EQ(marks.size(), 4u);
  EXPECT_EQ(marks.back(), SimTime::FromMillis(40).nanos());
  sim.SetClockObserver(SimTime(), nullptr);
  EXPECT_EQ(sim.next_observer_mark(), SimTime::Max());
  sim.FlushObserverUpTo(SimTime::FromMillis(100));
  sim.At(SimTime::FromMillis(90), [] {});
  sim.Run();
  EXPECT_EQ(marks.size(), 4u);  // uninstalled: nothing more fires
}

TEST(ClockObserverTest, MidRunInstallSkipsPassedMarks) {
  Simulator sim;
  std::vector<std::int64_t> marks;
  sim.At(SimTime::FromMillis(35), [&] {
    sim.SetClockObserver(SimTime::FromMillis(10), [&marks](SimTime mark) {
      marks.push_back(mark.nanos());
    });
  });
  sim.At(SimTime::FromMillis(52), [] {});
  sim.Run();
  // Installed at 35 ms: the first mark is the next grid multiple (40 ms),
  // never a replay of 10/20/30.
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(marks[0], SimTime::FromMillis(40).nanos());
  EXPECT_EQ(marks[1], SimTime::FromMillis(50).nanos());
}

}  // namespace
}  // namespace palette
