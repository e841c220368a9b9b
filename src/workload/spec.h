// WorkloadSpec: one self-contained description of an open-loop experiment —
// arrival process, invocation mix, driver horizon, and seed — parseable
// from CLI flags and serializable into the BENCH_slo.json header so a
// result file names the exact workload that produced it.
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
#include "src/workload/mix.h"
#include "src/workload/slo.h"

namespace palette {

class FaultSchedule;
class FlagParser;
class JsonWriter;

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

struct WorkloadRunResult {
  std::vector<InvocationSample> samples;
  SloReport report;
  std::uint64_t samples_digest = 0;
  // Platform books (docs/FAULTS.md): once the simulator drains,
  //   platform_submitted = platform_completed + platform_dropped
  //                        + platform_abandoned.
  std::uint64_t platform_submitted = 0;
  std::uint64_t platform_completed = 0;
  std::uint64_t platform_dropped = 0;    // faas.invocations_dropped
  std::uint64_t platform_abandoned = 0;  // faas.invocations_abandoned
  std::uint64_t retries = 0;             // faas.retries
  std::uint64_t timeouts = 0;            // faas.timeouts
  std::uint64_t recolored = 0;           // lb.recolored
  std::uint64_t cold_starts = 0;
  // Pull-dispatch counters (all zero under push; docs/DISPATCH.md).
  std::uint64_t pulls = 0;        // faas.pulls
  std::uint64_t steals = 0;       // faas.steals
  Bytes steal_bytes = 0;          // faas.steal_bytes
  std::uint64_t sim_events = 0;
  // Routing-tier counters (all zero for RunWorkload; filled by
  // RunRouterWorkload from the tier's router.* family).
  std::uint64_t router_routes = 0;
  std::uint64_t router_stale_routes = 0;
  std::uint64_t router_misroutes = 0;
  std::uint64_t router_forwards = 0;
  std::uint64_t router_recolored = 0;  // per-view re-colorings, summed
  // Planner counters (all zero unless a PlannerConfig was passed and the
  // policy supports planning; docs/PLANNER.md).
  std::uint64_t planner_rounds = 0;
  std::uint64_t planner_moves = 0;   // lb.planner_moves
  std::uint64_t planner_splits = 0;  // lb.planner_splits
  std::uint64_t planner_merges = 0;
  Bytes planner_moved_bytes = 0;
  std::vector<PlanRound> plan_rounds;  // per-round objectives
  // Storage-tier books (docs/STORAGE.md): all zero unless the platform
  // config enabled a coherence mode. After the drain,
  //   storage.writes_total = storage.writes_durable + storage.writes_lost.
  StorageStats storage;
  // max/avg invocations routed per instance at end of run.
  double routing_imbalance = 0;
  // Populated only when the run's WorkloadObsConfig enabled telemetry.
  WorkloadTelemetry telemetry;
};

// Runs `spec` open-loop against a fresh Simulator + FaasPlatform with
// `workers` workers under `policy`, drains the platform, and scores the
// samples. Deterministic: identical (spec, policy, workers, config,
// faults) give a bit-identical sample set. `faults`, when non-null, is
// installed on the simulator before the driver starts.
WorkloadRunResult RunWorkload(const WorkloadSpec& spec, PolicyKind policy,
                              int workers, const SloConfig& slo,
                              const PlatformConfig& platform_config,
                              const FaultSchedule* faults = nullptr,
                              const WorkloadObsConfig* obs = nullptr,
                              const PlannerConfig* planner = nullptr);

// Like RunWorkload, but traffic flows through a RouterTier of
// `tier_config.routers` replicas (docs/ROUTING.md) instead of the
// platform's load balancer. `tier_config.policy` and `.seed` are
// overridden from `policy` / `spec.seed` so one (spec, policy) pair names
// the same experiment in both harnesses. Router crash/restart entries in
// `faults` are delivered to the tier; worker entries to the platform.
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
