// The benchmark's named workloads (README.md in this directory, "Workloads").
//
// Each workload is one open-loop experiment, fully described by a
// WorkloadSpec plus the cluster around it. The seed is the only input that
// varies between runs of one workload; everything else is fixed here so a
// (workload, seed) pair names the same simulated inputs on every commit.
#ifndef PALETTE_PERFBENCH_HARNESS_WORKLOADS_H_
#define PALETTE_PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/policy_factory.h"
#include "src/faas/platform.h"
#include "src/planner/rebalance_planner.h"
#include "src/router/router_tier.h"
#include "src/workload/sharded_run.h"
#include "src/workload/slo.h"
#include "src/workload/spec.h"

namespace palette::perfbench {

struct BenchWorkload {
  std::string name;
  WorkloadSpec spec;
  PolicyKind policy = PolicyKind::kLeastAssigned;
  int workers = 0;
  PlatformConfig platform;
  SloConfig slo;
  // Routers in front of the platform (RouterTier); tier.routers == 0 (set
  // by MakeWorkload unless the workload has a tier) = the driver invokes
  // FaasPlatform::Invoke directly.
  RouterTierConfig tier;
  // Planner cadence; a zero plan_every leaves the planner off.
  PlannerConfig planner{.plan_every = SimTime()};
  // Runs on the epoch engine through RunShardedWorkload when true.
  bool sharded = false;
  ShardedWorkloadConfig sharded_config;
};

// Builds workload `name` for `seed`. `scale` multiplies the arrival horizon
// and warm-up (1 = the benchmark's size; the self-test uses a small
// fraction). Returns false for an unknown name.
bool MakeWorkload(std::string_view name, std::uint64_t seed, double scale,
                  BenchWorkload* out);

// Sub-stream seeds exactly as RunWorkload derives them from spec.seed.
struct StreamSeeds {
  std::uint64_t arrival = 0;
  std::uint64_t driver = 0;
};
StreamSeeds DeriveStreamSeeds(std::uint64_t seed);

}  // namespace palette::perfbench

#endif  // PALETTE_PERFBENCH_HARNESS_WORKLOADS_H_
