// Tests for the Palette core: color scheduling policies, load balancer,
// policy factory, and the Fig. 5 load models.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/table_printer.h"
#include "src/core/bucket_hashing_policy.h"
#include "src/core/color.h"
#include "src/core/consistent_hashing_policy.h"
#include "src/core/least_assigned_policy.h"
#include "src/core/load_model.h"
#include "src/core/oblivious_policies.h"
#include "src/core/palette_load_balancer.h"
#include "src/core/policy_factory.h"

namespace palette {
namespace {

std::vector<std::string> MakeInstances(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(StrFormat("w%d", i));
  }
  return out;
}

void AddAll(ColorSchedulingPolicy& policy, const std::vector<std::string>& v) {
  for (const auto& name : v) {
    policy.OnInstanceAdded(name);
  }
}

// ---------- shared invariants across every policy ----------

class AllPoliciesTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(AllPoliciesTest, RoutesOnlyToLiveInstances) {
  auto policy = MakePolicy(GetParam(), /*seed=*/11);
  const auto instances = MakeInstances(5);
  AddAll(*policy, instances);
  const std::set<std::string> live(instances.begin(), instances.end());
  for (int i = 0; i < 500; ++i) {
    const auto target = policy->RouteColored(StrFormat("color%d", i % 37));
    ASSERT_TRUE(target.has_value());
    EXPECT_TRUE(live.count(*target)) << *target;
  }
  for (int i = 0; i < 100; ++i) {
    const auto target = policy->RouteUncolored();
    ASSERT_TRUE(target.has_value());
    EXPECT_TRUE(live.count(*target)) << *target;
  }
}

TEST_P(AllPoliciesTest, EmptyMembershipRoutesNowhere) {
  auto policy = MakePolicy(GetParam(), 11);
  EXPECT_FALSE(policy->RouteColored("c").has_value());
  EXPECT_FALSE(policy->RouteUncolored().has_value());
}

TEST_P(AllPoliciesTest, RemovedInstanceNeverChosen) {
  auto policy = MakePolicy(GetParam(), 11);
  AddAll(*policy, MakeInstances(4));
  policy->OnInstanceRemoved("w2");
  for (int i = 0; i < 400; ++i) {
    const auto target = policy->RouteColored(StrFormat("c%d", i));
    ASSERT_TRUE(target.has_value());
    EXPECT_NE(*target, "w2");
  }
}

TEST_P(AllPoliciesTest, FactoryNameRoundTrip) {
  const PolicyKind kind = GetParam();
  PolicyKind parsed;
  ASSERT_TRUE(ParsePolicyKind(PolicyKindId(kind), &parsed));
  EXPECT_EQ(parsed, kind);
}

// Palette (locality-aware) policies must be *sticky*: the same color routes
// to the same instance — or, for Replicated Colors, the same small replica
// set — while membership is stable.
TEST_P(AllPoliciesTest, LocalityAwarePoliciesAreSticky) {
  const PolicyKind kind = GetParam();
  auto policy = MakePolicy(kind, 11);
  AddAll(*policy, MakeInstances(8));
  std::map<std::string, std::set<std::string>> routed_to;
  for (int round = 0; round < 6; ++round) {
    for (int c = 0; c < 100; ++c) {
      const std::string color = StrFormat("c%d", c);
      const auto target = policy->RouteColored(color);
      ASSERT_TRUE(target.has_value());
      routed_to[color].insert(*target);
    }
  }
  if (!IsLocalityAware(kind)) {
    return;
  }
  // Replicated Colors spreads each color over its (default 2) replicas;
  // every other Palette policy must map each color to exactly one instance.
  const std::size_t allowed = kind == PolicyKind::kReplicatedColors ? 2 : 1;
  for (const auto& [color, targets] : routed_to) {
    EXPECT_LE(targets.size(), allowed) << PolicyKindId(kind) << " " << color;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllPoliciesTest, ::testing::ValuesIn(AllPolicyKinds()),
    [](const ::testing::TestParamInfo<PolicyKind>& param_info) {
      return std::string(PolicyKindId(param_info.param));
    });

// ---------- policy-specific behavior ----------

TEST(ObliviousRandomTest, SpreadsAcrossInstances) {
  ObliviousRandomPolicy policy(3);
  AddAll(policy, MakeInstances(4));
  std::map<std::string, int> counts;
  for (int i = 0; i < 4000; ++i) {
    ++counts[*policy.RouteColored("same-color")];
  }
  EXPECT_EQ(counts.size(), 4u);  // ignores the hint
  for (const auto& [_, count] : counts) {
    EXPECT_NEAR(count, 1000, 150);
  }
  EXPECT_EQ(policy.StateBytes(), 0u);
}

TEST(ObliviousRoundRobinTest, CyclesThroughInstances) {
  ObliviousRoundRobinPolicy policy(3);
  AddAll(policy, MakeInstances(3));
  std::vector<std::string> seen;
  for (int i = 0; i < 6; ++i) {
    seen.push_back(*policy.RouteColored("x"));
  }
  EXPECT_EQ(seen[0], seen[3]);
  EXPECT_EQ(seen[1], seen[4]);
  EXPECT_EQ(seen[2], seen[5]);
  EXPECT_EQ((std::set<std::string>{seen[0], seen[1], seen[2]}).size(), 3u);
}

TEST(ObliviousRoundRobinTest, PerfectBalanceOverMultiples) {
  ObliviousRoundRobinPolicy policy(3);
  AddAll(policy, MakeInstances(4));
  std::map<std::string, int> counts;
  for (int i = 0; i < 400; ++i) {
    ++counts[*policy.RouteUncolored()];
  }
  for (const auto& [_, count] : counts) {
    EXPECT_EQ(count, 100);
  }
}

TEST(ConsistentHashingPolicyTest, MinimalRemapOnMembershipChange) {
  ConsistentHashingPolicy policy(5);
  AddAll(policy, MakeInstances(10));
  std::map<std::string, std::string> before;
  for (int c = 0; c < 2000; ++c) {
    const std::string color = StrFormat("c%d", c);
    before[color] = *policy.RouteColored(color);
  }
  policy.OnInstanceRemoved("w4");
  int moved_from_survivors = 0;
  for (auto& [color, owner] : before) {
    const std::string now = *policy.RouteColored(color);
    if (owner != "w4" && now != owner) {
      ++moved_from_survivors;
    }
  }
  EXPECT_EQ(moved_from_survivors, 0);
}

TEST(BucketHashingPolicyTest, SameColorSameBucketOwner) {
  BucketHashingConfig config;
  config.bucket_count = 64;
  BucketHashingPolicy policy(7, config);
  AddAll(policy, MakeInstances(4));
  const auto a = policy.RouteColored("blue");
  const auto b = policy.RouteColored("blue");
  EXPECT_EQ(a, b);
  EXPECT_EQ(policy.bucket_count(), 64u);
}

TEST(BucketHashingPolicyTest, AllBucketsOwnedAfterFirstInstance) {
  BucketHashingConfig config;
  config.bucket_count = 128;
  BucketHashingPolicy policy(7, config);
  policy.OnInstanceAdded("w0");
  for (std::size_t b = 0; b < policy.bucket_count(); ++b) {
    EXPECT_EQ(policy.BucketOwner(b), "w0");
  }
}

TEST(BucketHashingPolicyTest, RemovalReassignsOrphans) {
  BucketHashingConfig config;
  config.bucket_count = 128;
  BucketHashingPolicy policy(7, config);
  AddAll(policy, MakeInstances(3));
  policy.OnInstanceRemoved("w1");
  for (std::size_t b = 0; b < policy.bucket_count(); ++b) {
    EXPECT_NE(policy.BucketOwner(b), "w1");
    EXPECT_FALSE(policy.BucketOwner(b).empty());
  }
}

TEST(BucketHashingPolicyTest, RebalanceLowersRelativeLoad) {
  BucketHashingConfig config;
  config.bucket_count = 256;
  config.rebalance_threshold = 1.3;
  BucketHashingPolicy policy(7, config);
  policy.OnInstanceAdded("w0");
  // All colors land on w0 (only instance); then two instances join and the
  // policy must spread buckets out.
  for (int c = 0; c < 5000; ++c) {
    policy.RouteColored(StrFormat("c%d", c));
  }
  policy.OnInstanceAdded("w1");
  policy.OnInstanceAdded("w2");
  EXPECT_LE(policy.CurrentRelativeMaxLoad(), 1.5);
}

TEST(BucketHashingPolicyTest, RotateWindowsForgetsOldColors) {
  BucketHashingConfig config;
  config.bucket_count = 64;
  BucketHashingPolicy policy(7, config);
  policy.OnInstanceAdded("w0");
  for (int c = 0; c < 1000; ++c) {
    policy.RouteColored(StrFormat("old%d", c));
  }
  policy.RotateWindows();
  policy.RotateWindows();
  // After two rotations all color counts decay to ~0.
  EXPECT_NEAR(policy.CurrentRelativeMaxLoad(), 0.0, 1.0);
}

TEST(BucketHashingPolicyTest, StateBytesScaleWithBuckets) {
  BucketHashingConfig small;
  small.bucket_count = 64;
  BucketHashingConfig large;
  large.bucket_count = 1024;
  BucketHashingPolicy a(1, small);
  BucketHashingPolicy b(1, large);
  EXPECT_LT(a.StateBytes(), b.StateBytes());
}

TEST(LeastAssignedPolicyTest, BalancesNewColorsExactly) {
  LeastAssignedPolicy policy(7);
  AddAll(policy, MakeInstances(4));
  for (int c = 0; c < 400; ++c) {
    policy.RouteColored(StrFormat("c%d", c));
  }
  for (const auto& name : MakeInstances(4)) {
    EXPECT_EQ(policy.AssignedCount(name), 100u);
  }
}

TEST(LeastAssignedPolicyTest, TableCapAndLruEviction) {
  LeastAssignedConfig config;
  config.table_capacity = 100;
  LeastAssignedPolicy policy(7, config);
  AddAll(policy, MakeInstances(4));
  for (int c = 0; c < 250; ++c) {
    policy.RouteColored(StrFormat("c%d", c));
  }
  EXPECT_EQ(policy.table_size(), 100u);
  EXPECT_EQ(policy.evictions(), 150u);
  // Oldest colors were evicted; newest survive.
  EXPECT_FALSE(policy.LookupColor("c0").has_value());
  EXPECT_TRUE(policy.LookupColor("c249").has_value());
}

TEST(LeastAssignedPolicyTest, ReaccessKeepsColorWarm) {
  LeastAssignedConfig config;
  config.table_capacity = 3;
  LeastAssignedPolicy policy(7, config);
  AddAll(policy, MakeInstances(2));
  policy.RouteColored("a");
  policy.RouteColored("b");
  policy.RouteColored("c");
  policy.RouteColored("a");  // refresh a
  policy.RouteColored("d");  // evicts b (LRU), not a
  EXPECT_TRUE(policy.LookupColor("a").has_value());
  EXPECT_FALSE(policy.LookupColor("b").has_value());
}

TEST(LeastAssignedPolicyTest, ColorTruncationAt32Bytes) {
  LeastAssignedPolicy policy(7);
  AddAll(policy, MakeInstances(4));
  const std::string long_a(40, 'a');
  const std::string long_b = long_a.substr(0, 32) + "-different-suffix";
  const auto first = policy.RouteColored(long_a);
  const auto second = policy.RouteColored(long_b);
  // Both truncate to the same 32-byte key, so they share a mapping.
  EXPECT_EQ(first, second);
  EXPECT_EQ(policy.table_size(), 1u);
}

TEST(LeastAssignedPolicyTest, RemovalRedistributesToSurvivors) {
  LeastAssignedPolicy policy(7);
  AddAll(policy, MakeInstances(3));
  for (int c = 0; c < 300; ++c) {
    policy.RouteColored(StrFormat("c%d", c));
  }
  policy.OnInstanceRemoved("w0");
  // Every color still maps, and only to survivors.
  for (int c = 0; c < 300; ++c) {
    const auto target = policy.LookupColor(StrFormat("c%d", c));
    ASSERT_TRUE(target.has_value());
    EXPECT_NE(*target, "w0");
  }
  // Counts stay balanced-ish across the two survivors.
  EXPECT_NEAR(static_cast<double>(policy.AssignedCount("w1")),
              static_cast<double>(policy.AssignedCount("w2")), 20.0);
}

TEST(LeastAssignedPolicyTest, NewInstanceAttractsNewColors) {
  LeastAssignedPolicy policy(7);
  AddAll(policy, MakeInstances(2));
  for (int c = 0; c < 200; ++c) {
    policy.RouteColored(StrFormat("c%d", c));
  }
  policy.OnInstanceAdded("w_new");
  // The next 100 new colors all go to the empty newcomer.
  for (int c = 200; c < 300; ++c) {
    EXPECT_EQ(*policy.RouteColored(StrFormat("c%d", c)), "w_new");
  }
}

TEST(LeastAssignedPolicyTest, StateStaysUnderPaperBudget) {
  LeastAssignedPolicy policy(7);
  AddAll(policy, MakeInstances(4));
  for (int c = 0; c < 20000; ++c) {
    policy.RouteColored(StrFormat("color-%d", c));
  }
  EXPECT_EQ(policy.table_size(), kDefaultColorTableCapacity);
  // §5: "we use a maximum of 512KB of data per application" — allow modest
  // bookkeeping overhead in our accounting model.
  EXPECT_LE(policy.StateBytes(), 2 * 512 * 1024u);
}

// ---------- load balancer ----------

TEST(PaletteLoadBalancerTest, RoutesAndCounts) {
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 9));
  lb.AddInstance("w0");
  lb.AddInstance("w1");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(lb.Route(Color("c1")).has_value());
  }
  EXPECT_EQ(lb.total_routed(), 10u);
  // Sticky: all 10 went to one instance.
  EXPECT_EQ(lb.RoutedTo("w0") + lb.RoutedTo("w1"), 10u);
  EXPECT_NEAR(lb.RoutingImbalance(), 2.0, 1e-9);
}

TEST(PaletteLoadBalancerTest, UncoloredRoutesSomewhere) {
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kBucketHashing, 9));
  lb.AddInstance("w0");
  EXPECT_TRUE(lb.Route(std::nullopt).has_value());
}

TEST(PaletteLoadBalancerTest, NoInstancesRoutesNowhere) {
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kObliviousRandom, 9));
  EXPECT_FALSE(lb.Route(Color("c")).has_value());
  EXPECT_EQ(lb.total_routed(), 0u);
}

TEST(PaletteLoadBalancerTest, RemoveAndReAddInstanceResetsRoutingCounts) {
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 9));
  lb.AddInstance("w0");
  lb.AddInstance("w1");
  // Pin every route onto one instance via a sticky color.
  const auto sticky = lb.ResolveColor("c");
  ASSERT_TRUE(sticky.has_value());
  for (int i = 0; i < 10; ++i) {
    lb.Route(Color("c"));
  }
  ASSERT_EQ(lb.RoutedTo(*sticky), 10u);

  // Remove the instance, then bring the same name back. Interned ids are
  // reused on re-add, so a stale counter would bleed the dead
  // incarnation's 10 routes into the new one.
  lb.RemoveInstance(*sticky);
  EXPECT_EQ(lb.RoutedTo(*sticky), 0u);
  lb.AddInstance(*sticky);
  EXPECT_EQ(lb.RoutedTo(*sticky), 0u);

  // And the re-added instance participates in fresh routing from zero.
  for (int i = 0; i < 4; ++i) {
    lb.Route(Color("c"));
  }
  EXPECT_EQ(lb.RoutedTo("w0") + lb.RoutedTo("w1"), 4u);
}

TEST(PaletteLoadBalancerTest, RemoveInstanceKeepsStickyResolutionLive) {
  PaletteLoadBalancer lb(MakePolicy(PolicyKind::kLeastAssigned, 9));
  lb.AddInstance("w0");
  lb.AddInstance("w1");
  const auto before = lb.ResolveColor("c");
  ASSERT_TRUE(before.has_value());
  lb.RemoveInstance(*before);
  // No stale hits: the color resolves to the survivor, not the removed
  // name, and the re-coloring is counted.
  const auto after = lb.ResolveColor("c");
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*after, *before);
  EXPECT_GT(lb.recolored(), 0u);
}

// ---------- Fig. 5 load models ----------

TEST(LoadModelTest, BucketHashingBeatsSimpleHashing) {
  Rng rng(2023);
  const double simple = MeanSimpleHashingLoad(10000, 100, 10, rng);
  const double bucketed = MeanBucketHashingLoad(10000, 100, 1000, 10, rng);
  EXPECT_LT(bucketed, simple);
}

TEST(LoadModelTest, MoreBucketsImproveBalance) {
  Rng rng(2023);
  const double few = MeanBucketHashingLoad(10000, 100, 200, 10, rng);
  const double many = MeanBucketHashingLoad(10000, 100, 10000, 10, rng);
  EXPECT_LE(many, few + 0.05);
  EXPECT_LE(many, 1.2);  // Fig. 5: >=10k buckets keeps load near 1.
}

TEST(LoadModelTest, ManyColorsSmoothSimpleHashing) {
  Rng rng(7);
  const double few_colors = MeanSimpleHashingLoad(100, 20, 10, rng);
  const double many_colors = MeanSimpleHashingLoad(1000000, 20, 3, rng);
  EXPECT_GT(few_colors, many_colors);
  EXPECT_NEAR(many_colors, 1.0, 0.05);
}

}  // namespace
}  // namespace palette
