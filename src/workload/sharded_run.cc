#include "src/workload/sharded_run.h"

#include <algorithm>

namespace palette {

ShardedRunResult RunShardedWorkload(
    const WorkloadSpec& spec, PolicyKind policy, int total_workers,
    const ShardedWorkloadConfig& config, const SloConfig& slo,
    const PlatformConfig& platform_config,
    const std::vector<ShardedFault>* faults) {
  Scenario scenario;
  scenario.spec = spec;
  scenario.policy = policy;
  scenario.workers = total_workers;
  scenario.slo = slo;
  scenario.platform = platform_config;
  scenario.groups = std::max(1, config.groups);
  scenario.tier.routers = config.routers_per_group;
  scenario.tier.sync_lag = config.group_sync_lag;
  scenario.tier.dispatch = config.group_dispatch;
  scenario.shards = config.shards;
  if (faults != nullptr) {
    scenario.faults = *faults;
  }
  scenario.obs = config.obs;
  scenario.planner = config.planner;
  scenario.profile = config.profile;

  ShardedRunResult result;
  static_cast<ScenarioResult&>(result) = RunScenario(scenario);
  result.group_submitted = result.platform_submitted;
  result.group_completed = result.platform_completed;
  result.group_dropped = result.platform_dropped;
  result.group_abandoned = result.platform_abandoned;
  result.group_rejections = result.driver_rejected;
  return result;
}

}  // namespace palette
