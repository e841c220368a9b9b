// Adapters kept for the benchmark's stable surface
// (perfbench/STABLE_SURFACE.md); delete at the next benchmark change.
//
// RunShardedWorkload is RunScenario (src/workload/spec.h) with the group
// settings spelled the way the benchmark sets them, and ShardedRunResult is
// its result with the books under their group_* names.
#ifndef PALETTE_SRC_WORKLOAD_SHARDED_RUN_H_
#define PALETTE_SRC_WORKLOAD_SHARDED_RUN_H_

#include <cstdint>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/faas/platform.h"
#include "src/router/router_tier.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/slo.h"
#include "src/workload/spec.h"

namespace palette {

struct ShardedWorkloadConfig {
  int groups = 8;               // Scenario::groups
  int shards = 1;               // Scenario::shards
  int routers_per_group = 2;    // Scenario::tier.routers
  SimTime group_sync_lag;       // Scenario::tier.sync_lag
  DispatchMode group_dispatch = DispatchMode::kColorPartition;
  WorkloadObsConfig obs;
  bool profile = false;
  PlannerConfig planner{.plan_every = SimTime()};
};

using ShardedFault = GroupFault;

struct ShardedRunResult : ScenarioResult {
  std::uint64_t group_submitted = 0;   // platform_submitted
  std::uint64_t group_completed = 0;   // platform_completed
  std::uint64_t group_dropped = 0;     // platform_dropped
  std::uint64_t group_abandoned = 0;   // platform_abandoned
  std::uint64_t group_rejections = 0;  // driver_rejected
};

ShardedRunResult RunShardedWorkload(
    const WorkloadSpec& spec, PolicyKind policy, int total_workers,
    const ShardedWorkloadConfig& config, const SloConfig& slo,
    const PlatformConfig& platform_config,
    const std::vector<ShardedFault>* faults = nullptr);

}  // namespace palette

#endif  // PALETTE_SRC_WORKLOAD_SHARDED_RUN_H_
