// Sharded cluster workload harness (docs/PERF.md, "Parallel engine").
//
// Splits the open-loop router workload into G worker groups, each a
// FaasPlatform owning its slice of the cluster (workers "g<i>w<j>"),
// fronted by its own RouterTier of view-synced replicas ("r0".."rR-1"),
// and each running on a private Simulator:
//
//   * Colors partition across groups by consistent hash of the color, so
//     every invocation of a color meets the same group and color->instance
//     stickiness survives the split.
//   * The front door is open loop: arrivals never wait on a completion.
//     Every group replays the one arrival stream with the run's seeds and
//     submits only the arrivals it owns, one fabric hop after they arrive.
//   * A sample's completion time is read off its group's clock, and
//     rejections are booked by the group. Planners and faults are scoped
//     to one group.
//
// Nothing flows between groups, so each group's simulation is a pure
// function of the seed and its own arrivals. The groups run start to
// finish as independent tasks on `shards` threads and their results fold
// in group order: samples, books, digests and telemetry are bit-identical
// for every `shards` value.
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
  // Worker groups. Part of the model topology: changing it changes the
  // simulated system and the digests.
  int groups = 8;
  // Threads running the groups; any value yields the same digests.
  int shards = 1;
  // Router replicas fronting each group; 0 = drivers hit the group
  // platform's own load balancer directly.
  int routers_per_group = 2;
  // View-sync lag inside each group's router tier.
  SimTime group_sync_lag;
  DispatchMode group_dispatch = DispatchMode::kColorPartition;
  // Telemetry: when obs.enabled(), every group gets its own registry and
  // sampler on its simulator's clock observer (share-nothing, like the
  // groups themselves). After the run the per-group series and registries
  // fold into cluster telemetry in group order, so the merged CSV and
  // alert log are bit-identical across `shards` values.
  WorkloadObsConfig obs;
  // Engine profiler: wall-clock timings per thread, reported via
  // ShardedRunResult::profile.
  bool profile = false;
  // Global re-balancer (docs/PLANNER.md). When enabled, each group runs its
  // own PlannerRuntime against its platform on the group's simulator.
  PlannerConfig planner{.plan_every = SimTime()};
};

// A fault aimed at one group's platform/tier. Worker names follow the
// group scheme ("g2w0"); router names are per-group ("r1").
struct ShardedFault {
  int group = 0;
  FaultEvent event;
};

// One thread's share of a sharded run. The counts are exact; which groups
// a thread picks up, and so its counts, can vary run to run. Wall times
// come from steady_clock and are filled in only when profiling.
struct ShardProfile {
  std::uint64_t epochs = 0;       // group runs this thread executed
  std::uint64_t events = 0;       // events in those runs
  std::uint64_t busy_epochs = 0;  // group runs with at least one event
  std::uint64_t barrier_wait_ns = 0;  // idle after its last group, until
                                      // the join
  std::uint64_t drain_ns = 0;         // the fold (first thread only)
  std::uint64_t execute_ns = 0;       // running groups
};

struct EngineProfile {
  int groups = 0;
  int shards = 0;
  std::uint64_t epochs = 0;  // group runs: one per group
  std::uint64_t events = 0;
  std::vector<ShardProfile> per_shard;  // one entry per thread
};

struct ShardedRunResult {
  SloReport report;
  // Order-sensitive digest over the sample book — the BENCH_slo digest CI
  // compares across --shards values.
  std::uint64_t samples_digest = 0;
  // The groups' Simulator::event_digest() values folded in group order
  // (same invariant).
  std::uint64_t engine_digest = 0;
  std::uint64_t sim_events = 0;
  // Wall time of the group runs (set-up and the fold excluded).
  double wall_seconds = 0;

  // Books. Once the groups drain:
  //   driver_submitted == group_submitted + group_rejections, and
  //   group_submitted == group_completed + group_dropped + group_abandoned.
  std::uint64_t driver_submitted = 0;
  std::uint64_t driver_completed = 0;
  std::uint64_t group_submitted = 0;
  std::uint64_t group_completed = 0;
  std::uint64_t group_dropped = 0;
  std::uint64_t group_abandoned = 0;
  // Invocations no group platform/tier would accept (books as rejected).
  std::uint64_t group_rejections = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t retries = 0;
  // Pull-dispatch counters summed across groups (zero under push;
  // docs/DISPATCH.md).
  std::uint64_t pulls = 0;
  std::uint64_t steals = 0;
  Bytes steal_bytes = 0;
  bool books_close = false;

  // Planner counters summed across groups (zero when config.planner was
  // disabled; docs/PLANNER.md).
  std::uint64_t planner_rounds = 0;
  std::uint64_t planner_moves = 0;
  std::uint64_t planner_splits = 0;
  std::uint64_t planner_merges = 0;
  Bytes planner_moved_bytes = 0;

  // Storage-tier books summed across groups (all zero when the platform
  // config left the coherence mode off; docs/STORAGE.md). The per-group
  // write-books identity survives the summation:
  //   storage.writes_total == storage.writes_durable + storage.writes_lost.
  StorageStats storage;

  // Cluster telemetry (null members unless config.obs enabled): registry
  // merged via MetricsRegistry::MergeFrom and series merged window-by-
  // window, both folded in group order.
  WorkloadTelemetry telemetry;
  // Engine profile (counts always valid; wall times populated when
  // config.profile was set).
  EngineProfile profile;
};

// Runs `spec` against `config.groups` worker groups, with `total_workers`
// split evenly across groups (first groups take the remainder).
// Deterministic: identical (spec, policy, workers, config, faults) give
// bit-identical samples, books, and digests for every `config.shards`
// value. `faults`, when non-null, is installed on the owning group before
// the run starts.
ShardedRunResult RunShardedWorkload(
    const WorkloadSpec& spec, PolicyKind policy, int total_workers,
    const ShardedWorkloadConfig& config, const SloConfig& slo,
    const PlatformConfig& platform_config,
    const std::vector<ShardedFault>* faults = nullptr);

}  // namespace palette

#endif  // PALETTE_SRC_WORKLOAD_SHARDED_RUN_H_
