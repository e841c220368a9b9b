// Pull/hybrid dispatch tests: late binding from per-color pending queues,
// locality-aware claim ordering, budget-gated stealing, and the fault
// paths that return claimed-but-unstarted work to its color queue. Also
// the dispatch-path bugfix sweep riding along: drain-candidate tie-breaks
// by interned InstanceId, and RetryPolicy backoff saturation at extreme
// configs.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/table_printer.h"
#include "src/core/plan.h"
#include "src/faas/platform.h"
#include "src/faas/retry_policy.h"
#include "src/router/router_tier.h"
#include "src/sim/simulator.h"
#include "src/workload/driver.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/sharded_run.h"
#include "src/workload/slo.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

PlatformConfig PullConfig(FaasDispatchMode mode) {
  PlatformConfig config;
  config.cpu_ops_per_second = 1e9;
  config.serialization_bytes_per_second = 0;
  config.dispatch_latency = SimTime::FromMillis(1);
  config.cold_start = SimTime();
  config.dispatch_mode = mode;
  return config;
}

InvocationSpec Colored(const std::string& color, double cpu_ops) {
  InvocationSpec spec;
  spec.function = "f";
  spec.color = Color(color);
  spec.cpu_ops = cpu_ops;
  return spec;
}

// Places a color on `want` by running one warm-up invocation while `want`
// is the only worker, then adds `other`: the color's home stays on `want`,
// so `other` is unambiguously foreign for it.
std::string ForeignProofColor(Simulator* sim, FaasPlatform* platform,
                              const std::string& want,
                              const std::string& other) {
  const std::string color = "pin0";
  bool done = false;
  platform->Invoke(Colored(color, 1e3), [&](const InvocationResult& r) {
    done = true;
    EXPECT_EQ(r.instance, want);
  });
  sim->Run();
  EXPECT_TRUE(done);
  platform->AddWorker(other);
  EXPECT_EQ(platform->ColorHome(color), InternInstance(want));
  return color;
}

TEST(FaasDispatchModeTest, ParseAndFormat) {
  EXPECT_EQ(FaasDispatchModeId(FaasDispatchMode::kPush), "push");
  EXPECT_EQ(FaasDispatchModeId(FaasDispatchMode::kPull), "pull");
  EXPECT_EQ(FaasDispatchModeId(FaasDispatchMode::kHybrid), "hybrid");
  FaasDispatchMode mode;
  EXPECT_TRUE(ParseFaasDispatchMode("pull", &mode));
  EXPECT_EQ(mode, FaasDispatchMode::kPull);
  EXPECT_TRUE(ParseFaasDispatchMode("hybrid", &mode));
  EXPECT_EQ(mode, FaasDispatchMode::kHybrid);
  EXPECT_TRUE(ParseFaasDispatchMode("push", &mode));
  EXPECT_EQ(mode, FaasDispatchMode::kPush);
  EXPECT_FALSE(ParseFaasDispatchMode("steal", &mode));
}

TEST(PullDispatchTest, EveryInvocationIsPulledAndBooksClose) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        PullConfig(FaasDispatchMode::kPull));
  platform.AddWorkers(4);
  int completed = 0;
  for (int i = 0; i < 24; ++i) {
    platform.Invoke(Colored(StrFormat("c%d", i % 6), 1e6),
                    [&](const InvocationResult&) { ++completed; });
  }
  sim.Run();
  EXPECT_EQ(completed, 24);
  // Pull mode never hard-binds at route time: every completion came
  // through a claim.
  EXPECT_EQ(platform.total_pulls(), 24u);
  EXPECT_EQ(platform.PendingTotal(), 0u);
  EXPECT_EQ(platform.submitted_invocations(),
            platform.completed_invocations() +
                platform.dropped_invocations() +
                platform.abandoned_invocations());
}

TEST(PullDispatchTest, ColorStaysOnItsHomeWorkerWhileHomeKeepsUp) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        PullConfig(FaasDispatchMode::kPull));
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  // Sequential submissions with the home always free: all of them must
  // run on the home even though w1 idles right next to the queue.
  std::set<std::string> instances;
  for (int i = 0; i < 6; ++i) {
    platform.Invoke(Colored(color, 1e6), [&](const InvocationResult& r) {
      instances.insert(r.instance);
    });
    sim.Run();
  }
  EXPECT_EQ(instances, (std::set<std::string>{"w0"}));
  EXPECT_EQ(platform.total_steals(), 0u);
}

TEST(PullDispatchTest, HotForeignColorIsStolenAndPriced) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 1;
  config.steal_min_depth = 2;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  // Occupy the home with a 1 s job, then burst two 10 ms jobs of the same
  // color. The queue goes hot (depth 2), w1 is idle and foreign: it
  // steals the FRONT job. The remainder is depth 1 — below the steal
  // threshold — so it waits for the home and runs there after the long
  // job, proving a steal takes exactly one claim, not the whole queue.
  platform.Invoke(Colored(color, 1e9), nullptr);
  std::vector<std::string> ran_on;
  for (int i = 0; i < 2; ++i) {
    InvocationSpec spec = Colored(color, 1e7);
    spec.inputs.push_back(ObjectRef{StrFormat("%s___in%d", color.c_str(), i),
                                    3 * kMiB});
    platform.Invoke(std::move(spec), [&](const InvocationResult& r) {
      ran_on.push_back(r.instance);
    });
  }
  sim.Run();
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_EQ(ran_on[0], "w1");  // stolen: completes while the home grinds
  EXPECT_EQ(ran_on[1], "w0");  // waited for its home
  EXPECT_EQ(platform.total_steals(), 1u);
  // The steal price is booked: the stolen attempt's input bytes.
  EXPECT_EQ(platform.total_steal_bytes(), 3u * kMiB);
}

TEST(PullDispatchTest, StealBudgetZeroDisablesStealing) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 0;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  platform.Invoke(Colored(color, 1e9), nullptr);
  std::set<std::string> instances;
  for (int i = 0; i < 4; ++i) {
    platform.Invoke(Colored(color, 1e7), [&](const InvocationResult& r) {
      instances.insert(r.instance);
    });
  }
  sim.Run();
  // The queue was hot and w1 idled through it all; with the budget at
  // zero the work waited for its home anyway.
  EXPECT_EQ(instances, (std::set<std::string>{"w0"}));
  EXPECT_EQ(platform.total_steals(), 0u);
  EXPECT_EQ(platform.submitted_invocations(),
            platform.completed_invocations());
}

TEST(PullDispatchTest, ShallowForeignQueueWaitsForItsHome) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 4;
  config.steal_min_depth = 3;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  // Depth 2 < steal_min_depth 3: not hot enough to steal.
  platform.Invoke(Colored(color, 1e9), nullptr);
  std::set<std::string> instances;
  for (int i = 0; i < 2; ++i) {
    platform.Invoke(Colored(color, 1e7), [&](const InvocationResult& r) {
      instances.insert(r.instance);
    });
  }
  sim.Run();
  EXPECT_EQ(instances, (std::set<std::string>{"w0"}));
  EXPECT_EQ(platform.total_steals(), 0u);
}

TEST(PullDispatchTest, HybridPushesToIdleHomeAndPullsWhenBusy) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        PullConfig(FaasDispatchMode::kHybrid));
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());
  const std::uint64_t pulls_before = platform.total_pulls();

  // Idle home: hybrid binds eagerly — no pull.
  bool done = false;
  platform.Invoke(Colored(color, 1e6), [&](const InvocationResult& r) {
    done = true;
    EXPECT_EQ(r.instance, "w0");
  });
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(platform.total_pulls(), pulls_before);

  // Busy home: the route becomes a hint and the work is claimed — still
  // by the home once it frees up (w1 stays foreign, depth below the
  // steal threshold).
  platform.Invoke(Colored(color, 1e8), nullptr);
  std::string ran_on;
  platform.Invoke(Colored(color, 1e6),
                  [&](const InvocationResult& r) { ran_on = r.instance; });
  sim.Run();
  EXPECT_EQ(ran_on, "w0");
  EXPECT_GT(platform.total_pulls(), pulls_before);
}

// ---------------------------------------------------------------------------
// Fault matrix: claimed-but-unstarted work must return to its color queue
// and the books must close in every cell.

TEST(PullDispatchFaultTest, CrashDuringClaimWindowRequeuesWithoutRetry) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.pull_claim_latency = SimTime::FromMillis(10);
  config.retry.max_attempts = 3;  // a burned attempt would show up here
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  // The claim handoff starts at t=1ms (dispatch) and lands at t=11ms.
  // Crash the claimer mid-window: the attempt was never started, so it
  // goes back to the FRONT of its color queue — no retry budget burned —
  // and the survivor claims it.
  std::string ran_on;
  platform.Invoke(Colored(color, 1e6),
                  [&](const InvocationResult& r) { ran_on = r.instance; });
  sim.After(SimTime::FromMillis(5), [&]() { platform.CrashWorker("w0"); });
  sim.Run();
  EXPECT_EQ(ran_on, "w1");
  EXPECT_EQ(platform.total_retries(), 0u);
  EXPECT_EQ(platform.dropped_invocations(), 0u);
  EXPECT_EQ(platform.abandoned_invocations(), 0u);
  EXPECT_EQ(platform.submitted_invocations(),
            platform.completed_invocations());
}

TEST(PullDispatchFaultTest, RemoveWorkerMidPullRequeuesPendingAndClaimed) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.pull_claim_latency = SimTime::FromMillis(10);
  config.steal_min_depth = 10;  // isolate requeue order from stealing
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());

  // Three jobs: #0 is mid-claim toward w0 when the scale-in lands, #1 and
  // #2 still sit in the color queue. The survivor becomes the color's
  // ring home at removal and claims #1 immediately; #0's in-flight claim
  // bounces back to the FRONT of the queue, so it runs before #2 — a
  // back-of-queue requeue would finish {1, 2, 0} instead.
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    platform.Invoke(Colored(color, 1e6),
                    [&, i](const InvocationResult& r) {
                      order.push_back(i);
                      EXPECT_EQ(r.instance, "w1");
                    });
  }
  sim.After(SimTime::FromMillis(5), [&]() { platform.RemoveWorker("w0"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(platform.total_retries(), 0u);
  EXPECT_EQ(platform.submitted_invocations(),
            platform.completed_invocations());
}

TEST(PullDispatchFaultTest, LastWorkerGoneFailsPendingAndClaimed) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.pull_claim_latency = SimTime::FromMillis(10);
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");

  // One job mid-claim, one still pending. With no workers left there is
  // nothing to requeue toward: both book as dropped, nothing leaks.
  platform.Invoke(Colored("c", 1e6), nullptr);
  platform.Invoke(Colored("c", 1e6), nullptr);
  sim.After(SimTime::FromMillis(5), [&]() { platform.CrashWorker("w0"); });
  sim.Run();
  EXPECT_EQ(platform.completed_invocations(), 0u);
  EXPECT_EQ(platform.dropped_invocations(), 2u);
  EXPECT_EQ(platform.PendingTotal(), 0u);
  EXPECT_EQ(platform.submitted_invocations(),
            platform.dropped_invocations());
}

TEST(PullDispatchFaultTest, ApplyPlanRacingStealKeepsBooksClosed) {
  Simulator sim;
  PlatformConfig config = PullConfig(FaasDispatchMode::kPull);
  config.steal_budget = 2;
  config.steal_min_depth = 2;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  const std::string color =
      ForeignProofColor(&sim, &platform, "w0", "w1");
  ASSERT_FALSE(color.empty());
  platform.AddWorker("w2");

  // Hot queue on w0 with steals in flight toward the idle workers; while
  // they run, a planner round re-places the color onto w2. Late binding
  // must absorb the move: every job completes exactly once.
  platform.Invoke(Colored(color, 1e9), nullptr);
  int completed = 0;
  for (int i = 0; i < 6; ++i) {
    platform.Invoke(Colored(color, 1e7),
                    [&](const InvocationResult&) { ++completed; });
  }
  sim.After(SimTime::FromMillis(3), [&]() {
    Plan plan;
    plan.moves.push_back(
        PlanMove{color, InternInstance("w0"), InternInstance("w2")});
    platform.ApplyPlan(plan);
  });
  sim.Run();
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(platform.PendingTotal(), 0u);
  EXPECT_EQ(platform.submitted_invocations(),
            platform.completed_invocations() +
                platform.dropped_invocations() +
                platform.abandoned_invocations());
}

// ---------------------------------------------------------------------------
// Whole-run determinism: pull claims happen in simulator callbacks over
// ordered structures, so identical scenarios replay bit-identically, on
// one shard and across shard counts.

ShardedRunResult PullShardedCell(int shards) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 300;
  spec.driver.duration = SimTime::FromSeconds(2);
  spec.mix.color_count = 48;
  spec.mix.zipf_theta = 0.9;
  spec.seed = 13;
  ShardedWorkloadConfig config;
  config.groups = 2;
  config.shards = shards;
  config.routers_per_group = 2;
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(250);
  PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  platform_config.dispatch_mode = FaasDispatchMode::kPull;
  return RunShardedWorkload(spec, PolicyKind::kLeastAssigned,
                            /*total_workers=*/8, config, slo,
                            platform_config, nullptr);
}

TEST(PullDispatchDeterminismTest, RepeatRunsAreBitIdentical) {
  WorkloadSpec spec;
  spec.arrival.rate_per_sec = 200;
  spec.driver.duration = SimTime::FromSeconds(2);
  spec.mix.color_count = 32;
  spec.seed = 5;
  SloConfig slo;
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.dispatch_mode = FaasDispatchMode::kPull;
  const WorkloadRunResult a =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 6, slo, config);
  const WorkloadRunResult b =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 6, slo, config);
  EXPECT_GT(a.pulls, 0u);
  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.pulls, b.pulls);
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.steal_bytes, b.steal_bytes);
}

TEST(PullDispatchDeterminismTest, ShardCountsAgreeUnderPull) {
  const ShardedRunResult one = PullShardedCell(1);
  const ShardedRunResult four = PullShardedCell(4);
  EXPECT_GT(one.pulls, 0u);
  EXPECT_TRUE(one.books_close);
  EXPECT_TRUE(four.books_close);
  EXPECT_EQ(one.samples_digest, four.samples_digest);
  EXPECT_EQ(one.engine_digest, four.engine_digest);
  EXPECT_EQ(one.sim_events, four.sim_events);
  EXPECT_EQ(one.pulls, four.pulls);
  EXPECT_EQ(one.steals, four.steals);
  EXPECT_EQ(one.steal_bytes, four.steal_bytes);
}

// ---------------------------------------------------------------------------
// Pinned matcher cells. Each cell runs pull or hybrid dispatch behind four
// spraying routers on a bursty, skewed mix with some uncolored work, and
// crashes a worker mid-run before bringing it back. The samples digest,
// pulls and steals of every cell were recorded from the matcher that
// re-resolved every color's home per idle worker, before homes were
// resolved once per MatchPending call and the call gained its early exit:
// any change to the claim schedule fails a cell by name.

struct MatcherCellResult {
  std::uint64_t digest = 0;
  std::uint64_t pulls = 0;
  std::uint64_t steals = 0;
};

MatcherCellResult RunMatcherCell(FaasDispatchMode mode, int steal_budget,
                                 std::size_t steal_min_depth) {
  Simulator sim;
  PlatformConfig config = PullConfig(mode);
  config.steal_budget = steal_budget;
  config.steal_min_depth = steal_min_depth;
  config.retry.max_attempts = 3;
  // Attempts stuck behind a burst time out of their queue and retry.
  config.default_deadline = SimTime::FromMillis(40);
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 3, config);
  platform.AddWorkers(6);
  RouterTierConfig tier_config;
  tier_config.routers = 4;
  tier_config.dispatch = DispatchMode::kSpray;
  RouterTier tier(&platform, tier_config);
  FaultSchedule faults;
  // The crash lands mid-burst, with work queued, claimed and running.
  faults.Add(FaultEvent{SimTime::FromMillis(20), FaultKind::kCrash, "w2"});
  faults.Add(
      FaultEvent{SimTime::FromMillis(500), FaultKind::kRestart, "w2"});
  faults.InstallOn(&sim, &platform, &tier);

  // Bursts of 100 arrivals every ~0.35 ms alternate with 100 every ~4 ms;
  // seven in sixteen invocations hit one of three hot colors, seven one of
  // 40 cold ones, and two carry no color.
  constexpr int kArrivals = 800;
  constexpr std::uint32_t kUncolored = UINT32_MAX;
  std::vector<InvocationSample> samples(kArrivals);
  std::vector<InvocationSpec> specs(kArrivals);
  Rng rng(29);
  SimTime at;
  for (int i = 0; i < kArrivals; ++i) {
    const bool burst = (i / 100) % 2 == 0;
    at += SimTime::FromMicros(
        static_cast<std::int64_t>(burst ? 100 + rng.NextBelow(500)
                                        : 2000 + rng.NextBelow(4000)));
    const std::uint64_t pick = rng.NextBelow(16);
    const std::uint32_t color =
        pick < 2   ? kUncolored
        : pick < 9 ? static_cast<std::uint32_t>(rng.NextBelow(3))
                   : static_cast<std::uint32_t>(3 + rng.NextBelow(40));
    InvocationSpec spec;
    spec.function = "f";
    spec.cpu_ops = static_cast<double>(2000000 + rng.NextBelow(6000000));
    if (color != kUncolored) {
      spec.color = Color(StrFormat("c%u", color));
      for (int k = 0; k < 2; ++k) {
        spec.inputs.push_back(ObjectRef{
            StrFormat("c%u___o%llu", color,
                      static_cast<unsigned long long>(rng.NextBelow(4))),
            64 * 1024});
      }
    }
    specs[static_cast<std::size_t>(i)] = std::move(spec);
    samples[static_cast<std::size_t>(i)].intended_start = at;
    samples[static_cast<std::size_t>(i)].color_id = color;
    sim.At(at, [&tier, &samples, &specs, i]() {
      InvocationSample& sample = samples[static_cast<std::size_t>(i)];
      const auto id = tier.Invoke(
          std::move(specs[static_cast<std::size_t>(i)]),
          [&sample](const InvocationResult& r) {
            sample.completed = r.completed;
            sample.status = SampleStatus::kCompleted;
            sample.local_hits = static_cast<std::uint16_t>(r.local_hits);
            sample.remote_hits = static_cast<std::uint16_t>(r.remote_hits);
            sample.misses = static_cast<std::uint16_t>(r.misses);
          });
      if (!id.has_value()) {
        sample.status = SampleStatus::kRejected;
      }
    });
  }
  sim.Run();
  EXPECT_GT(platform.total_retries(), 0u);
  EXPECT_GT(platform.total_timeouts(), 0u);
  EXPECT_EQ(platform.PendingTotal(), 0u);
  EXPECT_EQ(platform.submitted_invocations(),
            platform.completed_invocations() +
                platform.dropped_invocations() +
                platform.abandoned_invocations());
  return MatcherCellResult{SamplesDigest(samples), platform.total_pulls(),
                           platform.total_steals()};
}

TEST(PullMatcherPinnedTest, CellsMatchRecordedClaimSchedules) {
  struct Cell {
    FaasDispatchMode mode;
    int steal_budget;
    std::size_t steal_min_depth;
    MatcherCellResult want;
  };
  const std::vector<Cell> cells = {
      {FaasDispatchMode::kPull, 0, 1, {14131752755117124892u, 1179, 0}},
      {FaasDispatchMode::kPull, 0, 2, {14131752755117124892u, 1179, 0}},
      {FaasDispatchMode::kPull, 0, 8, {14131752755117124892u, 1179, 0}},
      {FaasDispatchMode::kPull, 1, 1, {1804993517527796603u, 1122, 228}},
      {FaasDispatchMode::kPull, 1, 2, {11910393025760681652u, 1109, 118}},
      {FaasDispatchMode::kPull, 1, 8, {5314531752605684932u, 1122, 75}},
      {FaasDispatchMode::kPull, 4, 1, {421260857137630349u, 1031, 419}},
      {FaasDispatchMode::kPull, 4, 2, {17793889996778084635u, 1033, 173}},
      {FaasDispatchMode::kPull, 4, 8, {4241252179266182281u, 1077, 91}},
      {FaasDispatchMode::kHybrid, 0, 1, {2505363486399561874u, 1104, 0}},
      {FaasDispatchMode::kHybrid, 0, 2, {2505363486399561874u, 1104, 0}},
      {FaasDispatchMode::kHybrid, 0, 8, {2505363486399561874u, 1104, 0}},
      {FaasDispatchMode::kHybrid, 1, 1, {11417346598665677746u, 1037, 223}},
      {FaasDispatchMode::kHybrid, 1, 2, {2865055365752362863u, 1024, 102}},
      {FaasDispatchMode::kHybrid, 1, 8, {4176468561694029073u, 1053, 84}},
      {FaasDispatchMode::kHybrid, 4, 1, {3016532723586286414u, 965, 383}},
      {FaasDispatchMode::kHybrid, 4, 2, {3900580760606825837u, 950, 159}},
      {FaasDispatchMode::kHybrid, 4, 8, {11487890676508295608u, 1013, 86}},
  };
  for (const Cell& cell : cells) {
    SCOPED_TRACE(StrFormat("%s budget %d min_depth %zu",
                           std::string(FaasDispatchModeId(cell.mode)).c_str(),
                           cell.steal_budget, cell.steal_min_depth));
    const MatcherCellResult got =
        RunMatcherCell(cell.mode, cell.steal_budget, cell.steal_min_depth);
    EXPECT_EQ(got.digest, cell.want.digest);
    EXPECT_EQ(got.pulls, cell.want.pulls);
    EXPECT_EQ(got.steals, cell.want.steals);
  }
}

// ---------------------------------------------------------------------------
// Satellite: drain-candidate ties resolve by interned InstanceId (join
// order — stable across rebuilds and shard counts), not by name order.

TEST(DrainCandidateTest, EqualDepthTiesResolveBySmallestInstanceId) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        PullConfig(FaasDispatchMode::kPush));
  // Join order deliberately disagrees with lexicographic name order:
  // "drain_b" joins first, so it has the smallest InstanceId of the
  // three, while "drain_a" sorts first by name.
  platform.AddWorker("drain_b");
  platform.AddWorker("drain_a");
  platform.AddWorker("drain_c");
  EXPECT_EQ(platform.DrainCandidateWorker(), "drain_b");
}

// ---------------------------------------------------------------------------
// Satellite: RetryPolicy backoff must saturate, not overflow, at extreme
// multiplier / attempt / cap configs.

TEST(RetryPolicyTest, NormalBackoffIsExactWithoutJitter) {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = SimTime::FromMillis(5);
  policy.multiplier = 2.0;
  policy.max_backoff = SimTime::FromSeconds(2);
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_EQ(policy.BackoffFor(1, rng).millis(), 5.0);
  EXPECT_EQ(policy.BackoffFor(3, rng).millis(), 20.0);
}

TEST(RetryPolicyTest, DeepAttemptCountClampsToMaxBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 2000;
  policy.initial_backoff = SimTime::FromMillis(1);
  policy.multiplier = 10.0;
  policy.max_backoff = SimTime::FromSeconds(2);
  policy.jitter = 0.0;
  Rng rng(1);
  // 1ms * 10^999 wildly overflows both double precision and int64 if
  // computed naively; the loop caps at max_backoff first.
  EXPECT_EQ(policy.BackoffFor(1000, rng).nanos(),
            SimTime::FromSeconds(2).nanos());
}

TEST(RetryPolicyTest, ExtremeConfigSaturatesAtSimTimeMax) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff = SimTime::FromSeconds(1);
  policy.multiplier = 1e12;
  policy.max_backoff = SimTime::Max();  // no cap short of the clock limit
  policy.jitter = 0.0;
  Rng rng(1);
  const SimTime backoff = policy.BackoffFor(10, rng);
  // Converting a double >= 2^63 to int64 is UB; the clamp must land
  // exactly on SimTime::Max(), never wrap negative.
  EXPECT_EQ(backoff.nanos(), SimTime::Max().nanos());
  EXPECT_GE(backoff.nanos(), 0);
}

TEST(RetryPolicyTest, JitterOnNearMaxCapStaysInRange) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = SimTime::Max();
  policy.multiplier = 2.0;
  policy.max_backoff = SimTime::Max();
  policy.jitter = 1.0;  // scales by up to 2.0 — the overflowing edge
  Rng rng(7);
  for (int i = 1; i < 10; ++i) {
    const SimTime backoff = policy.BackoffFor(i, rng);
    EXPECT_GE(backoff.nanos(), 0);
    EXPECT_LE(backoff.nanos(), SimTime::Max().nanos());
  }
}

}  // namespace
}  // namespace palette
