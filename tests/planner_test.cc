// Tests for the global re-balancer (docs/PLANNER.md): solver determinism,
// movement-cost monotonicity, hot-color split/merge round-trips, planner
// runs under worker churn, and digest equality across shard counts.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/table_printer.h"
#include "src/core/least_assigned_policy.h"
#include "src/core/palette_load_balancer.h"
#include "src/planner/rebalance_planner.h"
#include "src/router/router_tier.h"
#include "src/storage/storage_types.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

std::vector<InstanceId> MakeInstances(int n) {
  std::vector<InstanceId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(InternInstance(StrFormat("w%d", i)));
  }
  return ids;
}

// A deliberately lopsided snapshot: every color currently sits on the first
// instance, loads follow a fixed harmonic-ish skew, and each color owns
// some cached bytes — the solver has both something to fix (imbalance) and
// something to weigh (migration cost).
PlacementSnapshot SkewedSnapshot(int instances, int colors) {
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(1);
  snapshot.instances = MakeInstances(instances);
  for (int c = 0; c < colors; ++c) {
    ColorObservation obs;
    obs.color = StrFormat("c%03d", c);
    obs.load_ewma = 100.0 / static_cast<double>(c + 1);
    obs.cache_bytes = static_cast<Bytes>(1000 * (c + 1));
    obs.placement = snapshot.instances[0];
    snapshot.colors.push_back(std::move(obs));
  }
  return snapshot;
}

std::string PlanSignature(const Plan& plan) {
  std::string sig;
  for (const PlanMove& move : plan.moves) {
    sig += StrFormat("M %s %u->%u;", move.color.c_str(), move.from, move.to);
  }
  for (const PlanSplit& split : plan.splits) {
    sig += StrFormat("S %s", split.color.c_str());
    for (std::size_t i = 0; i < split.instances.size(); ++i) {
      sig += StrFormat(" %u*%u", split.instances[i], split.weights[i]);
    }
    sig += ";";
  }
  for (const PlanMerge& merge : plan.merges) {
    sig += StrFormat("G %s ->%u;", merge.color.c_str(), merge.to);
  }
  return sig;
}

TEST(RebalancePlannerTest, SolveIsDeterministicForSnapshotAndSeed) {
  const PlacementSnapshot snapshot = SkewedSnapshot(4, 24);
  PlannerConfig config;
  config.seed = 17;
  const RebalancePlanner a(config);
  const RebalancePlanner b(config);
  const Plan plan_a = a.Solve(snapshot);
  const Plan plan_b = b.Solve(snapshot);
  EXPECT_FALSE(plan_a.empty());
  EXPECT_EQ(PlanSignature(plan_a), PlanSignature(plan_b));
  EXPECT_EQ(plan_a.objective_before, plan_b.objective_before);
  EXPECT_EQ(plan_a.objective_after, plan_b.objective_after);
  // Repeated Solve on the same instance too (no hidden mutable state).
  EXPECT_EQ(PlanSignature(a.Solve(snapshot)), PlanSignature(plan_a));
}

TEST(RebalancePlannerTest, HigherAlphaMovesFewerColors) {
  const PlacementSnapshot snapshot = SkewedSnapshot(4, 24);
  std::size_t previous_moves = 0;
  bool first = true;
  for (const double alpha : {0.0, 0.5, 5.0, 500.0}) {
    PlannerConfig config;
    config.move_alpha = alpha;
    config.split_threshold = 1.0;  // no share exceeds 1: splitting off
    const Plan plan = RebalancePlanner(config).Solve(snapshot);
    EXPECT_LE(plan.objective_after, plan.objective_before);
    if (!first) {
      EXPECT_LE(plan.moves.size(), previous_moves)
          << "alpha=" << alpha << " moved more colors than a cheaper alpha";
    }
    previous_moves = plan.moves.size();
    first = false;
  }
  // At a prohibitive alpha the movement term dwarfs any fairness gain.
  PlannerConfig frozen;
  frozen.move_alpha = 500.0;
  frozen.split_threshold = 1.0;
  EXPECT_TRUE(RebalancePlanner(frozen).Solve(snapshot).moves.empty());
}

TEST(RebalancePlannerTest, SplitsHotColorAcrossDistinctInstances) {
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(1);
  snapshot.instances = MakeInstances(4);
  ColorObservation hot;
  hot.color = "viral";
  hot.load_ewma = 600;  // 60% share
  hot.cache_bytes = 1000;
  hot.placement = snapshot.instances[0];
  snapshot.colors.push_back(hot);
  for (int c = 0; c < 8; ++c) {
    ColorObservation obs;
    obs.color = StrFormat("cold%d", c);
    obs.load_ewma = 50;
    obs.cache_bytes = 1000;
    obs.placement = snapshot.instances[static_cast<std::size_t>(c) % 4];
    snapshot.colors.push_back(std::move(obs));
  }
  PlannerConfig config;
  config.split_threshold = 0.2;
  const Plan plan = RebalancePlanner(config).Solve(snapshot);
  ASSERT_EQ(plan.splits.size(), 1u);
  const PlanSplit& split = plan.splits[0];
  EXPECT_EQ(split.color, "viral");
  // share 0.6 / threshold 0.2 -> width 3, all members distinct.
  EXPECT_EQ(split.instances.size(), 3u);
  EXPECT_EQ(std::set<InstanceId>(split.instances.begin(),
                                 split.instances.end())
                .size(),
            split.instances.size());
  EXPECT_TRUE(plan.merges.empty());
}

TEST(RebalancePlannerTest, SplitHysteresisKeepsThenMerges) {
  PlacementSnapshot snapshot;
  snapshot.taken = SimTime::FromSeconds(2);
  snapshot.instances = MakeInstances(4);
  ColorObservation cooling;
  cooling.color = "viral";
  cooling.cache_bytes = 1000;
  cooling.placement = snapshot.instances[0];
  cooling.split = true;
  cooling.split_members = {snapshot.instances[0], snapshot.instances[1],
                           snapshot.instances[2]};
  ColorObservation filler;
  filler.color = "zfill";
  filler.cache_bytes = 1000;
  filler.placement = snapshot.instances[3];

  PlannerConfig config;
  config.split_threshold = 0.2;

  // Share 0.15: between theta/2 and theta — the split must persist and,
  // being unchanged, must not even be re-emitted.
  cooling.load_ewma = 150;
  filler.load_ewma = 850;
  snapshot.colors = {cooling, filler};
  const Plan hold = RebalancePlanner(config).Solve(snapshot);
  EXPECT_TRUE(hold.merges.empty());
  for (const PlanSplit& split : hold.splits) {
    EXPECT_NE(split.color, "viral") << "unchanged split was re-emitted";
  }

  // Share 0.05 < theta/2: now it merges back to a single instance.
  cooling.load_ewma = 50;
  filler.load_ewma = 950;
  snapshot.colors = {cooling, filler};
  const Plan merge = RebalancePlanner(config).Solve(snapshot);
  ASSERT_EQ(merge.merges.size(), 1u);
  EXPECT_EQ(merge.merges[0].color, "viral");
}

TEST(PaletteLoadBalancerPlanTest, SplitMergeRoundTripOnLoadBalancer) {
  PaletteLoadBalancer lb(std::make_unique<LeastAssignedPolicy>(7));
  for (int i = 0; i < 4; ++i) {
    lb.AddInstance(StrFormat("w%d", i));
  }
  const auto home = lb.RouteId(Color("viral"));
  ASSERT_TRUE(home.has_value());

  Plan split_plan;
  split_plan.splits.push_back(PlanSplit{
      "viral",
      {InternInstance("w0"), InternInstance("w1"), InternInstance("w2")},
      {1, 1, 1}});
  lb.ApplyPlan(split_plan);
  EXPECT_TRUE(lb.IsSplit("viral"));
  EXPECT_EQ(lb.planner_splits(), 1u);
  std::set<InstanceId> targets;
  for (int i = 0; i < 9; ++i) {
    targets.insert(*lb.RouteId(Color("viral")));
  }
  EXPECT_EQ(targets.size(), 3u);  // exact weighted round-robin
  // Object names translate to the split primary, not the rotating member.
  EXPECT_EQ(lb.ResolveColor(Color("viral")), "w0");

  Plan merge_plan;
  merge_plan.merges.push_back(PlanMerge{"viral", InternInstance("w3")});
  lb.ApplyPlan(merge_plan);
  EXPECT_FALSE(lb.IsSplit("viral"));
  EXPECT_EQ(lb.planner_merges(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(*lb.RouteId(Color("viral")), InternInstance("w3"));
  }
}

TEST(PaletteLoadBalancerPlanTest, PlanRacingCrashSkipsDeadInstances) {
  PaletteLoadBalancer lb(std::make_unique<LeastAssignedPolicy>(7));
  for (int i = 0; i < 3; ++i) {
    lb.AddInstance(StrFormat("w%d", i));
  }
  lb.RouteId(Color("a"));
  lb.RemoveInstance("w2");

  // A plan computed against the pre-crash snapshot: move to a dead
  // instance and split across a set containing it. Both degrade safely.
  Plan stale;
  stale.moves.push_back(
      PlanMove{"a", InternInstance("w0"), InternInstance("w2")});
  stale.splits.push_back(PlanSplit{
      "b", {InternInstance("w0"), InternInstance("w2")}, {1, 1}});
  lb.ApplyPlan(stale);
  // The move to the dead instance was skipped, not applied.
  const auto placed = lb.PeekColorId("a");
  ASSERT_TRUE(placed.has_value());
  EXPECT_NE(*placed, InternInstance("w2"));
  // The split lost w2, leaving one live member: not installed as a split.
  EXPECT_FALSE(lb.IsSplit("b"));
}

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.arrival.rate_per_sec = 400;
  spec.driver.duration = SimTime::FromSeconds(6);
  spec.mix.color_count = 48;
  spec.mix.zipf_theta = 1.2;
  spec.seed = 11;
  return spec;
}

TEST(PlannerWorkloadTest, PlanDuringChurnClosesBooks) {
  const WorkloadSpec spec = SmallSpec();
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromSeconds(1);
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  // Crash a worker between planning rounds and bring it back: migrations
  // in flight toward it must not leak invocations or objects.
  FaultSchedule faults;
  faults.Add(FaultEvent{SimTime::FromMillis(1250), FaultKind::kCrash, "w1"});
  faults.Add(
      FaultEvent{SimTime::FromMillis(2750), FaultKind::kRestart, "w1"});
  const WorkloadRunResult run =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo,
                  DefaultWorkloadPlatformConfig(), &faults, nullptr,
                  &planner);
  EXPECT_GT(run.planner_rounds, 0u);
  EXPECT_EQ(run.platform_submitted, run.platform_completed +
                                        run.platform_dropped +
                                        run.platform_abandoned);
  // Planner movement stays distinguishable from failure re-coloring.
  EXPECT_GT(run.planner_moves + run.planner_splits, 0u);
  for (const PlanRound& round : run.plan_rounds) {
    EXPECT_LE(round.objective_after, round.objective_before + 1e-9);
  }
}

TEST(PlannerWorkloadTest, PlannerRunIsSeedReproducible) {
  const WorkloadSpec spec = SmallSpec();
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromSeconds(1);
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  const WorkloadRunResult a =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo,
                  DefaultWorkloadPlatformConfig(), nullptr, nullptr,
                  &planner);
  const WorkloadRunResult b =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo,
                  DefaultWorkloadPlatformConfig(), nullptr, nullptr,
                  &planner);
  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.planner_moves, b.planner_moves);
  EXPECT_EQ(a.planner_splits, b.planner_splits);
  EXPECT_EQ(a.planner_moved_bytes, b.planner_moved_bytes);
}

// A scaled-down all_features run (perfbench/harness/workloads.cc):
// spraying routers, hybrid dispatch, write-back coherence on two tiers, a
// rotating hot set, and a planner round every 500 ms. Each round prices
// moves by every color's cached and dirty bytes, so the pinned digest and
// planner counters fail loudly if the snapshot collector's per-color
// footprints ever drift.
TEST(PlannerWorkloadTest, AllFeaturesShapedRunPinsPlannerInputs) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 250;
  spec.arrival.mean_on_seconds = 0.2;
  spec.arrival.mean_off_seconds = 0.8;
  spec.mix.color_count = 64;
  spec.mix.zipf_theta = 0.9;
  spec.mix.churn_interval = SimTime::FromSeconds(2);
  spec.mix.churn_step = spec.mix.color_count / 8;
  spec.mix.write_fraction = 0.2;
  spec.driver.duration = SimTime::FromSeconds(8);
  spec.seed = 1;
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromSeconds(1);
  PlatformConfig platform = DefaultWorkloadPlatformConfig();
  platform.dispatch_mode = FaasDispatchMode::kHybrid;
  platform.storage.mode = CoherenceMode::kWriteBack;
  platform.storage.tiers.two_tier = true;
  // Writes stay dirty across a planner round, so every snapshot prices
  // dirty bytes as well as cached ones.
  platform.storage.max_dirty_age = SimTime::FromSeconds(1);
  RouterTierConfig tier;
  tier.routers = 4;
  tier.dispatch = DispatchMode::kSpray;
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  planner.seed = spec.seed;

  const WorkloadRunResult run =
      RunRouterWorkload(spec, PolicyKind::kLeastAssigned, 8, tier, slo,
                        platform, nullptr, nullptr, &planner);
  EXPECT_EQ(run.planner_rounds, 15u);
  EXPECT_GT(run.storage.flushes, 0u);
  EXPECT_EQ(run.samples_digest, 14331247114875850663u);
  EXPECT_EQ(run.planner_moves, 123u);
  EXPECT_EQ(run.planner_moved_bytes, 17399566u);
}

TEST(PlannerShardedTest, DigestsMatchAcrossShardCountsWithPlanning) {
  const WorkloadSpec spec = SmallSpec();
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(100);
  slo.warmup = SimTime::FromSeconds(1);
  ShardedWorkloadConfig config;
  config.groups = 4;
  config.routers_per_group = 2;
  config.planner.plan_every = SimTime::FromMillis(500);

  config.shards = 1;
  const ShardedRunResult one = RunShardedWorkload(
      spec, PolicyKind::kLeastAssigned, 8, config, slo,
      DefaultWorkloadPlatformConfig());
  config.shards = 4;
  const ShardedRunResult four = RunShardedWorkload(
      spec, PolicyKind::kLeastAssigned, 8, config, slo,
      DefaultWorkloadPlatformConfig());

  EXPECT_GT(one.planner_rounds, 0u);
  EXPECT_TRUE(one.books_close);
  EXPECT_TRUE(four.books_close);
  EXPECT_EQ(one.samples_digest, four.samples_digest);
  EXPECT_EQ(one.engine_digest, four.engine_digest);
  EXPECT_EQ(one.planner_moves, four.planner_moves);
  EXPECT_EQ(one.planner_splits, four.planner_splits);
  EXPECT_EQ(one.planner_moved_bytes, four.planner_moved_bytes);
}

}  // namespace
}  // namespace palette
