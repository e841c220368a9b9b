// WorkloadSpec: one self-contained description of an open-loop experiment —
// arrival process, invocation mix, driver horizon, and seed — parseable
// from CLI flags and serializable into the BENCH_slo.json header so a
// result file names the exact workload that produced it. Scenario adds the
// cluster it runs against, and RunScenario is the one harness that builds,
// runs and scores every open-loop run.
#ifndef PALETTE_SRC_WORKLOAD_SPEC_H_
#define PALETTE_SRC_WORKLOAD_SPEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/faas/platform.h"
#include "src/obs/alerts.h"
#include "src/obs/timeseries.h"
#include "src/planner/planner_runtime.h"
#include "src/router/router_tier.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/mix.h"
#include "src/workload/slo.h"

namespace palette {

class FlagParser;
class JsonWriter;
class TraceRecorder;

struct WorkloadSpec {
  ArrivalSpec arrival;
  MixConfig mix;
  DriverConfig driver;
  // Experiment seed; the arrival process and the mix/driver stream derive
  // independent sub-streams from it.
  std::uint64_t seed = 1;
};

// Reads a spec from flags (all optional, defaults above):
//   --arrival=poisson|fixed|mmpp|diurnal  --rate=<rps>  --duration=<s>
//   --burst_mult= --on_s= --off_s=        (mmpp)
//   --period_s= --amplitude=              (diurnal)
//   --colors= --theta= --churn_interval_s= --churn_step=
//   --objects_per_color= --inputs= --cpu_ops= --write_fraction=
//   --seed= --max_invocations=
// Returns false (and prints to stderr) on an unknown arrival kind or an
// out-of-range mix size: colors outside [1, 2^32], objects_per_color < 1,
// inputs outside [0, 65535] or write_fraction outside [0, 1]. Tools exit
// with status 2 when it returns false.
bool WorkloadSpecFromFlags(const FlagParser& flags, WorkloadSpec* out);

// Appends the spec as a JSON object value (caller wrote the key).
void AppendWorkloadSpecJson(const WorkloadSpec& spec, JsonWriter* json);

// Platform sized so open-loop SLO runs exercise the locality trade-off:
// a deliberately small per-instance cache (256 MiB, below the default
// mix's ~340 MiB object population) makes oblivious routing thrash where
// color-sticky routing keeps each instance's 1/N share warm.
PlatformConfig DefaultWorkloadPlatformConfig();

// Telemetry for one run (docs/OBSERVABILITY.md). Off by default: with
// sample_every == 0 no registry or sampler is attached at all, so the
// run's outputs are byte-identical to an obs-free build of the harness.
struct WorkloadObsConfig {
  SimTime sample_every;  // sampling window; zero = telemetry off
  std::size_t ring_capacity = 4096;
  std::vector<AlertRule> alert_rules;
  // Per-invocation span recorder (not owned), attached to the platform and
  // router tier of a single-group run. Independent of sample_every.
  TraceRecorder* trace = nullptr;

  bool enabled() const { return sample_every > SimTime(); }
};

// What an obs-enabled run hands back: the end-of-run registry (Prometheus
// exposition), the windowed series (CSV / counter tracks / dashboards),
// and the evaluated alert engine. All null when telemetry was off.
struct WorkloadTelemetry {
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<TimeSeriesSampler> series;
  std::shared_ptr<AlertEngine> alerts;

  bool enabled() const { return series != nullptr; }
};

// A fault aimed at one worker group's platform or router tier. Worker
// names follow the group's scheme ("w0" in a single-group run, "g2w0" in
// group 2 of a larger one); router names are per group ("r1").
struct GroupFault {
  int group = 0;
  FaultEvent event;
};

// Every event of `faults`, aimed at group `group`.
std::vector<GroupFault> GroupFaults(const FaultSchedule& faults, int group);

// One thread's share of a run's groups. The counts are exact; which groups
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

// Everything one open-loop run is built from (docs/WORKLOADS.md).
//
// The cluster is split into `groups` worker groups. Each group is its own
// FaasPlatform on its own Simulator, optionally fronted by its own
// RouterTier and re-balanced by its own PlannerRuntime, and replays the one
// arrival stream, submitting the arrivals whose color it owns (consistent
// hash of the color). Groups share nothing, so they run start to finish on
// `shards` threads and fold in group order: samples, books, digests and
// telemetry are bit-identical for every `shards` value.
//
// groups == 1 is the monolithic run: the group owns every arrival, charges
// no fabric hop, names its workers "w<i>" and seeds its platform and tier
// with spec.seed. With more groups, each arrival reaches its group one
// 500 us fabric hop after it arrives, group g names its workers "g<g>w<i>",
// and each group draws its own seed after the arrival and driver seeds.
struct Scenario {
  WorkloadSpec spec;
  PolicyKind policy = PolicyKind::kLeastAssigned;
  // Workers across the cluster; groups split them evenly and the first
  // (workers % groups) groups take one more.
  int workers = 8;
  SloConfig slo;
  PlatformConfig platform = DefaultWorkloadPlatformConfig();
  int groups = 1;
  // The router tier in front of each group (docs/ROUTING.md): tier.routers
  // replicas, 0 = the driver invokes the group platform's own load
  // balancer. tier.policy and tier.seed are set per group from `policy`
  // and the group's seed.
  RouterTierConfig tier{.routers = 0};
  // Threads running the groups; any value gives the same result.
  int shards = 1;
  // Installed on the owning group before its run starts.
  std::vector<GroupFault> faults;
  // Telemetry: each group samples its own registry on its simulator's
  // clock; the registries and series fold in group order.
  WorkloadObsConfig obs;
  // Global re-balancer (docs/PLANNER.md): off while plan_every is zero.
  PlannerConfig planner{.plan_every = SimTime()};
  // Engine profiler: per-thread wall times in ScenarioResult::profile.
  bool profile = false;
};

// What a run reports. Counters are summed over the groups in group order.
struct ScenarioResult {
  // The sample book in arrival order; every group writes the arrivals it
  // owns.
  std::vector<InvocationSample> samples;
  SloReport report;
  // Order-sensitive digest over the sample book.
  std::uint64_t samples_digest = 0;
  // The groups' Simulator::event_digest() values folded in group order.
  std::uint64_t engine_digest = 0;
  std::uint64_t sim_events = 0;
  // Wall time of the group runs (set-up and the fold excluded).
  double wall_seconds = 0;
  // Books (docs/FAULTS.md). Once the groups drain:
  //   driver_submitted = platform_submitted + driver_rejected, and
  //   platform_submitted = platform_completed + platform_dropped
  //                        + platform_abandoned.
  // A refusal at a group is booked by the driver as a rejected sample.
  std::uint64_t driver_submitted = 0;
  std::uint64_t driver_completed = 0;
  std::uint64_t driver_rejected = 0;
  std::uint64_t platform_submitted = 0;
  std::uint64_t platform_completed = 0;
  std::uint64_t platform_dropped = 0;    // faas.invocations_dropped
  std::uint64_t platform_abandoned = 0;  // faas.invocations_abandoned
  bool books_close = false;
  std::uint64_t retries = 0;             // faas.retries
  std::uint64_t timeouts = 0;            // faas.timeouts
  std::uint64_t recolored = 0;           // lb.recolored
  std::uint64_t cold_starts = 0;
  // Pull-dispatch counters (all zero under push; docs/DISPATCH.md).
  std::uint64_t pulls = 0;        // faas.pulls
  std::uint64_t steals = 0;       // faas.steals
  Bytes steal_bytes = 0;          // faas.steal_bytes
  // Routing-tier counters (all zero without a tier).
  std::uint64_t router_routes = 0;
  std::uint64_t router_stale_routes = 0;
  std::uint64_t router_misroutes = 0;
  std::uint64_t router_forwards = 0;
  std::uint64_t router_recolored = 0;  // per-view re-colorings, summed
  // Planner counters (all zero while the planner is off; docs/PLANNER.md).
  std::uint64_t planner_rounds = 0;
  std::uint64_t planner_moves = 0;   // lb.planner_moves
  std::uint64_t planner_splits = 0;  // lb.planner_splits
  std::uint64_t planner_merges = 0;
  Bytes planner_moved_bytes = 0;
  std::vector<PlanRound> plan_rounds;  // per-round objectives, by group
  // Storage-tier books (docs/STORAGE.md): all zero unless the platform
  // config enabled a coherence mode. After the drain,
  //   storage.writes_total = storage.writes_durable + storage.writes_lost.
  StorageStats storage;
  // max/avg invocations routed per instance at end of run, in the worst
  // group.
  double routing_imbalance = 0;
  // Populated only when the scenario's WorkloadObsConfig enabled
  // telemetry: the registries and series of all groups, folded.
  WorkloadTelemetry telemetry;
  // Counts always valid; wall times only when Scenario::profile was set.
  EngineProfile profile;
};

// Builds, runs, folds and scores one scenario. Deterministic: identical
// scenarios give bit-identical results for every `shards` value.
ScenarioResult RunScenario(const Scenario& scenario);

// The result schema every open-loop tool writes: appends the scenario's
// configuration keys (policy, workers, spec, dispatch, storage, routers,
// planner, groups) to the open JSON object.
void AppendScenarioJson(const Scenario& scenario, JsonWriter* json);

// Appends the run's keys (digests, books, counters, report, and the
// sections the scenario turned on) to the open JSON object.
void AppendScenarioResultJson(const Scenario& scenario,
                              const ScenarioResult& result, JsonWriter* json);

// The result schema's "storage" section, as a JSON object value (caller
// wrote the key).
void AppendStorageStatsJson(const StorageStats& stats, JsonWriter* json);

// ---------------------------------------------------------------------------
// Adapters kept for the benchmark's stable surface
// (perfbench/STABLE_SURFACE.md); delete at the next benchmark change.

using WorkloadRunResult = ScenarioResult;

// RunScenario with one group, `workers` workers and no router tier.
// `faults`, when non-null, all go to the one group.
WorkloadRunResult RunWorkload(const WorkloadSpec& spec, PolicyKind policy,
                              int workers, const SloConfig& slo,
                              const PlatformConfig& platform_config,
                              const FaultSchedule* faults = nullptr,
                              const WorkloadObsConfig* obs = nullptr,
                              const PlannerConfig* planner = nullptr);

// RunWorkload through a RouterTier configured by `tier_config`.
WorkloadRunResult RunRouterWorkload(const WorkloadSpec& spec,
                                    PolicyKind policy, int workers,
                                    RouterTierConfig tier_config,
                                    const SloConfig& slo,
                                    const PlatformConfig& platform_config,
                                    const FaultSchedule* faults = nullptr,
                                    const WorkloadObsConfig* obs = nullptr,
                                    const PlannerConfig* planner = nullptr);

}  // namespace palette

#endif  // PALETTE_SRC_WORKLOAD_SPEC_H_
