// One color home (FaasPlatform::ColorHome): a colored object is stored at
// and read from the home of its color — the load balancer's placement of
// the color — under every color-placing policy and dispatch mode, and after
// the planner moves or splits the color. Object names keep their color
// prefix, so colors never alias on a shared worker.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/table_printer.h"
#include "src/core/plan.h"
#include "src/faas/platform.h"
#include "src/router/router_tier.h"
#include "src/sim/simulator.h"

namespace palette {
namespace {

PlatformConfig QuietConfig(FaasDispatchMode mode) {
  PlatformConfig config;
  config.cold_start = SimTime();
  config.serialization_bytes_per_second = 0;
  config.dispatch_mode = mode;
  return config;
}

InvocationSpec Colored(const std::string& color, double cpu_ops = 1e6) {
  InvocationSpec spec;
  spec.function = "f";
  spec.color = color;
  spec.cpu_ops = cpu_ops;
  return spec;
}

InvocationSpec Writer(const std::string& color, const std::string& name) {
  InvocationSpec spec = Colored(color);
  spec.outputs.push_back(ObjectRef{name, kMiB});
  return spec;
}

InvocationSpec Reader(const std::string& color, const std::string& name,
                      double cpu_ops = 1e6) {
  InvocationSpec spec = Colored(color, cpu_ops);
  spec.inputs.push_back(ObjectRef{name, kMiB});
  return spec;
}

// Two colors on one worker that number their objects alike stay two
// objects: the second color's first read misses, and both sizes survive.
// (Rewriting the color prefix to the worker's name made both "w0___o0", so
// the read hit the other color's object.)
TEST(ColorHomeTest, SameSuffixOnOneWorkerStaysTwoObjects) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        QuietConfig(FaasDispatchMode::kPush));
  platform.AddWorker("w0");
  platform.SeedStorageObject("b___o0", 2 * kMiB);

  platform.Invoke(Writer("a", "a___o0"), [](const InvocationResult&) {});
  sim.Run();

  InvocationSpec reader = Colored("b");
  reader.inputs.push_back(ObjectRef{"b___o0", 2 * kMiB});
  InvocationResult read;
  platform.Invoke(std::move(reader),
                  [&](const InvocationResult& r) { read = r; });
  sim.Run();
  EXPECT_EQ(read.instance, "w0");
  EXPECT_EQ(read.misses, 1);
  EXPECT_EQ(read.local_hits, 0);
  EXPECT_EQ(read.network_bytes, 2 * kMiB);

  std::map<std::string, Bytes> resident;
  platform.cache().ForEachObject(
      "w0", [&](const std::string& name, Bytes size) { resident[name] = size; });
  const std::map<std::string, Bytes> want = {{"a___o0", kMiB},
                                             {"b___o0", 2 * kMiB}};
  EXPECT_EQ(resident, want);
}

TEST(ColorHomeTest, NoWorkersNoHome) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1);
  EXPECT_FALSE(platform.ColorHome("blue").has_value());
  platform.AddWorker("w0");
  EXPECT_EQ(platform.ColorHome("blue"), InternInstance("w0"));
}

// A colored output lands at the instance its color routed to, under its own
// name; a name with no color prefix homes on the cache ring.
TEST(ColorHomeTest, ColoredOutputLandsAtTheRoutedInstanceUnderItsName) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 9,
                        QuietConfig(FaasDispatchMode::kPush));
  platform.AddWorker("w0");
  platform.AddWorker("w1");
  InvocationSpec writer = Writer("blue", "blue___task3");
  writer.outputs.push_back(ObjectRef{"plain", kMiB});
  std::string ran_on;
  platform.Invoke(std::move(writer),
                  [&](const InvocationResult& r) { ran_on = r.instance; });
  sim.Run();
  ASSERT_FALSE(ran_on.empty());
  EXPECT_EQ(platform.ColorHome("blue"), InternInstance(ran_on));
  EXPECT_TRUE(platform.cache().ContainsLocal(ran_on, "blue___task3"));
  EXPECT_FALSE(platform.cache().ContainsLocal(ran_on, ran_on + "___task3"));
  const std::optional<InstanceId> plain_home =
      platform.cache().RingHome("plain");
  ASSERT_TRUE(plain_home.has_value());
  EXPECT_TRUE(platform.cache().ContainsLocal(InstanceName(*plain_home),
                                             "plain"));
}

// Looking a home up is a pure read: repeated lookups agree with each other
// and with the route, and route nothing.
TEST(ColorHomeTest, HomeStableAcrossCalls) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 9,
                        QuietConfig(FaasDispatchMode::kPush));
  platform.AddWorker("w0");
  platform.AddWorker("w1");
  std::string ran_on;
  platform.Invoke(Writer("red", "red___o"),
                  [&](const InvocationResult& r) { ran_on = r.instance; });
  sim.Run();
  const std::uint64_t routed = platform.load_balancer().total_routed();
  const std::optional<InstanceId> first = platform.ColorHome("red");
  const std::optional<InstanceId> second = platform.ColorHome("red");
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, InternInstance(ran_on));
  EXPECT_EQ(platform.load_balancer().total_routed(), routed);
}

// "___rest" and "___" carry an empty color prefix: not a hint. They keep
// their names, home on the cache ring, and fabricate no empty-color
// placement in the policy's table.
TEST(ColorHomeTest, EmptyColorPrefixHomesOnTheRing) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 9,
                        QuietConfig(FaasDispatchMode::kPush));
  platform.AddWorkers(4);
  InvocationSpec writer = Writer("c", "___rest");
  writer.outputs.push_back(ObjectRef{"___", kMiB});
  bool done = false;
  platform.Invoke(std::move(writer),
                  [&](const InvocationResult&) { done = true; });
  sim.Run();
  ASSERT_TRUE(done);
  const std::optional<InstanceId> ring = platform.cache().RingHome("___rest");
  ASSERT_TRUE(ring.has_value());
  EXPECT_EQ(platform.cache().RingHome("___"), ring);
  EXPECT_TRUE(platform.cache().ContainsLocal(InstanceName(*ring), "___rest"));
  EXPECT_TRUE(platform.cache().ContainsLocal(InstanceName(*ring), "___"));
  EXPECT_FALSE(platform.load_balancer().PeekColorId("").has_value());
}

// "a___b___c" homes by its first prefix "a" and keeps the rest verbatim.
TEST(ColorHomeTest, HomeKeySplitsAtFirstSeparatorOnly) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 9,
                        QuietConfig(FaasDispatchMode::kPush));
  platform.AddWorker("w0");
  platform.AddWorker("w1");
  std::string ran_on;
  platform.Invoke(Writer("a", "a___b___c"),
                  [&](const InvocationResult& r) { ran_on = r.instance; });
  sim.Run();
  ASSERT_FALSE(ran_on.empty());
  EXPECT_EQ(platform.ColorHome("a"), InternInstance(ran_on));
  EXPECT_TRUE(platform.cache().ContainsLocal(ran_on, "a___b___c"));
  EXPECT_FALSE(platform.cache().ContainsLocal(ran_on, ran_on + "___b___c"));
}

// Behind a color-partitioned router tier each route is the color's
// placement, so the color's objects home where the tier runs it. A sprayed
// route is not a placement: the cache ring keeps the home.
TEST(ColorHomeTest, ColorPartitionedTierPlacesTheHome) {
  for (const DispatchMode dispatch :
       {DispatchMode::kColorPartition, DispatchMode::kSpray}) {
    SCOPED_TRACE(std::string(DispatchModeId(dispatch)));
    Simulator sim;
    FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                          QuietConfig(FaasDispatchMode::kPush));
    platform.AddWorkers(4);
    RouterTierConfig tier_config;
    tier_config.routers = 2;
    tier_config.dispatch = dispatch;
    RouterTier tier(&platform, tier_config);
    std::string ran_on;
    tier.Invoke(Writer("tc", "tc___o0"),
                [&](const InvocationResult& r) { ran_on = r.instance; });
    sim.Run();
    ASSERT_FALSE(ran_on.empty());
    if (dispatch == DispatchMode::kColorPartition) {
      EXPECT_EQ(platform.ColorHome("tc"), InternInstance(ran_on));
      EXPECT_TRUE(platform.cache().ContainsLocal(ran_on, "tc___o0"));
    } else {
      EXPECT_EQ(platform.ColorHome("tc"), platform.cache().RingHome("tc"));
    }
  }
}

// With color stats on (the planner runtime's), a sprayed route places a
// color nothing placed yet, and later sprayed routes to other workers do
// not move that home: only a plan does. A home that followed every
// sprayed route would strand the color's objects on each route.
TEST(ColorHomeTest, SprayedRoutesKeepTheFirstHomeUntilAPlanMovesIt) {
  Simulator sim;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1,
                        QuietConfig(FaasDispatchMode::kPush));
  platform.AddWorkers(4);
  platform.load_balancer().set_color_stats_enabled(true);
  RouterTierConfig tier_config;
  tier_config.routers = 2;
  tier_config.dispatch = DispatchMode::kSpray;
  RouterTier tier(&platform, tier_config);
  const auto run = [&](const std::string& color) {
    std::string ran_on;
    tier.Invoke(Colored(color),
                [&](const InvocationResult& r) { ran_on = r.instance; });
    sim.Run();
    return ran_on;
  };
  // Spray alternates the two replicas. The first places "x" in its own
  // view only, so the replicas' least-assigned picks for "tc" differ.
  run("x");
  const std::string first = run("tc");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(platform.ColorHome("tc"), InternInstance(first));
  bool routed_elsewhere = false;
  for (int i = 0; i < 4; ++i) {
    routed_elsewhere = run("tc") != first || routed_elsewhere;
    EXPECT_EQ(platform.ColorHome("tc"), InternInstance(first));
  }
  ASSERT_TRUE(routed_elsewhere);

  const InstanceId target =
      InternInstance(first == "w3" ? "w0" : "w3");
  Plan plan;
  plan.moves.push_back(PlanMove{"tc", InternInstance(first), target});
  platform.ApplyPlan(plan);
  EXPECT_EQ(platform.ColorHome("tc"), target);
  for (int i = 0; i < 4; ++i) {
    run("tc");
    EXPECT_EQ(platform.ColorHome("tc"), target);
  }
}

// Every color-placing policy homes a color where it routes it: table
// policies by their entry, hashing policies by the same pure function.
TEST(ColorHomeTest, HomeIsWhereThePolicyRoutes) {
  for (const PolicyKind policy :
       {PolicyKind::kLeastAssigned, PolicyKind::kBoundedLoads,
        PolicyKind::kConsistentHashing, PolicyKind::kBucketHashing}) {
    SCOPED_TRACE(std::string(PolicyKindId(policy)));
    Simulator sim;
    FaasPlatform platform(&sim, policy, 7);
    platform.AddWorkers(4);
    for (int i = 0; i < 32; ++i) {
      const Color color = StrFormat("r%d", i);
      const std::optional<InstanceId> routed =
          platform.load_balancer().RouteId(color);
      ASSERT_TRUE(routed.has_value());
      EXPECT_EQ(platform.ColorHome(color), routed);
    }
  }
}

bool KeepsColorTable(PolicyKind policy) {
  return policy == PolicyKind::kLeastAssigned ||
         policy == PolicyKind::kBoundedLoads;
}

// Every policy that places a color, under every dispatch mode, through a
// planner move and a planner split:
//   - the home is where the policy routes the color, and each output
//     lands there, before and after the plan;
//   - a moved or split color's objects follow it to its new home (table
//     policies remap; hashing policies keep no table, so a move leaves
//     their home in place, while a split re-homes under every policy);
//   - hybrid push binds a reader only to the home, and the pull matcher
//     claims it there, so its read is local;
//   - a steal's read is a remote hit served by the home.
TEST(ColorHomeTest, OutputsReadsAndStealsMeetAtTheColorHome) {
  const std::string color = "hc";
  for (const PolicyKind policy :
       {PolicyKind::kLeastAssigned, PolicyKind::kBoundedLoads,
        PolicyKind::kConsistentHashing, PolicyKind::kBucketHashing}) {
    for (const FaasDispatchMode mode :
         {FaasDispatchMode::kPush, FaasDispatchMode::kPull,
          FaasDispatchMode::kHybrid}) {
      for (const bool split : {false, true}) {
        SCOPED_TRACE(StrFormat("%s %s %s",
                               std::string(PolicyKindId(policy)).c_str(),
                               std::string(FaasDispatchModeId(mode)).c_str(),
                               split ? "split" : "move"));
        Simulator sim;
        FaasPlatform platform(&sim, policy, 7, QuietConfig(mode));
        platform.AddWorkers(4);
        const auto cached_at = [&](InstanceId id, const std::string& name) {
          return platform.cache().ContainsLocal(InstanceName(id), name);
        };

        std::string first_ran_on;
        platform.Invoke(Writer(color, "hc___o0"),
                        [&](const InvocationResult& r) {
                          first_ran_on = r.instance;
                        });
        sim.Run();
        const std::optional<InstanceId> before = platform.ColorHome(color);
        ASSERT_TRUE(before.has_value());
        EXPECT_TRUE(cached_at(*before, "hc___o0"));
        // The home is where the policy routes the color (push runs there).
        EXPECT_EQ(first_ran_on, InstanceName(*before));

        // The planner re-homes the color on another worker: a move, or a
        // split whose primary is that worker.
        InstanceId other = kInvalidInstanceId;
        for (const std::string& name : platform.WorkerNames()) {
          const InstanceId id = InternInstance(name);
          if (id != *before && (other == kInvalidInstanceId || id < other)) {
            other = id;
          }
        }
        Plan plan;
        if (split) {
          plan.splits.push_back(PlanSplit{color, {other, *before}, {1, 1}});
        } else {
          plan.moves.push_back(PlanMove{color, *before, other});
        }
        platform.ApplyPlan(plan);
        sim.Run();
        const std::optional<InstanceId> home = platform.ColorHome(color);
        ASSERT_TRUE(home.has_value());
        const bool rehomed = split || KeepsColorTable(policy);
        EXPECT_EQ(*home, rehomed ? other : *before);
        // A move, or a split onto a new primary, hauls the color's objects
        // to its new home (and a move the policy ignores hauls nothing).
        EXPECT_TRUE(cached_at(*home, "hc___o0"));
        EXPECT_EQ(platform.planner_moved_bytes(), rehomed ? kMiB : 0u);

        platform.Invoke(Writer(color, "hc___o1"),
                        [](const InvocationResult&) {});
        sim.Run();
        EXPECT_TRUE(cached_at(*home, "hc___o1"));

        const std::uint64_t pulls = platform.total_pulls();
        const std::uint64_t routed_home =
            platform.load_balancer().RoutedToId(*home);
        InvocationResult read;
        platform.Invoke(Reader(color, "hc___o1"),
                        [&](const InvocationResult& r) { read = r; });
        sim.Run();
        const bool routed_to_home =
            platform.load_balancer().RoutedToId(*home) > routed_home;
        if (mode == FaasDispatchMode::kPush) {
          // Push runs where the route says; off the home, the read is
          // served remotely by the home. A split member keeps the copy, so
          // its next read of the object is local.
          EXPECT_EQ(read.instance == InstanceName(*home), routed_to_home);
          EXPECT_EQ(read.local_hits, routed_to_home ? 1 : 0);
          EXPECT_EQ(read.remote_hits, routed_to_home ? 0 : 1);
          EXPECT_EQ(platform.cache().ContainsLocal(read.instance, "hc___o1"),
                    routed_to_home || split);
          continue;
        }
        // Hybrid pushes only a route to the idle home; anything else, and
        // all of pull, waits for the matcher, which hands it to the home.
        EXPECT_EQ(read.instance, InstanceName(*home));
        EXPECT_EQ(read.local_hits, 1);
        const bool pushed = mode == FaasDispatchMode::kHybrid && routed_to_home;
        EXPECT_EQ(platform.total_pulls() - pulls, pushed ? 0u : 1u);
        EXPECT_EQ(platform.total_steals(), 0u);

        // Occupy the home with a long run of the color, then queue two
        // readers: the queue is deep enough to steal, and the thief reads
        // the object remotely from the home.
        std::vector<InvocationResult> reads;
        const auto keep = [&](const InvocationResult& r) {
          reads.push_back(r);
        };
        platform.Invoke(Reader(color, "hc___o1", 1e9), keep);
        sim.At(sim.Now() + SimTime::FromMillis(5), [&]() {
          platform.Invoke(Reader(color, "hc___o1"), keep);
          platform.Invoke(Reader(color, "hc___o1"), keep);
        });
        sim.Run();
        ASSERT_EQ(reads.size(), 3u);
        EXPECT_EQ(platform.total_steals(), 1u);
        int stolen = 0;
        for (const InvocationResult& r : reads) {
          if (r.instance == InstanceName(*home)) {
            EXPECT_EQ(r.local_hits, 1);
          } else {
            ++stolen;
            EXPECT_EQ(r.remote_hits, 1);
            EXPECT_EQ(r.local_hits, 0);
          }
        }
        EXPECT_EQ(stolen, 1);
      }
    }
  }
}

}  // namespace
}  // namespace palette
