#include "src/workload/spec.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "src/common/flags.h"
#include "src/common/json_writer.h"
#include "src/workload/fault_schedule.h"

namespace palette {

bool WorkloadSpecFromFlags(const FlagParser& flags, WorkloadSpec* out) {
  WorkloadSpec spec;
  const std::string arrival_id = flags.GetString(
      "arrival", std::string(ArrivalKindId(spec.arrival.kind)));
  if (!ParseArrivalKind(arrival_id, &spec.arrival.kind)) {
    std::fprintf(stderr,
                 "unknown arrival kind: %s (try: fixed poisson mmpp "
                 "diurnal)\n",
                 arrival_id.c_str());
    return false;
  }
  spec.arrival.rate_per_sec =
      flags.GetDouble("rate", spec.arrival.rate_per_sec);
  spec.arrival.burst_multiplier =
      flags.GetDouble("burst_mult", spec.arrival.burst_multiplier);
  spec.arrival.mean_on_seconds =
      flags.GetDouble("on_s", spec.arrival.mean_on_seconds);
  spec.arrival.mean_off_seconds =
      flags.GetDouble("off_s", spec.arrival.mean_off_seconds);
  spec.arrival.period_seconds =
      flags.GetDouble("period_s", spec.arrival.period_seconds);
  spec.arrival.amplitude =
      flags.GetDouble("amplitude", spec.arrival.amplitude);

  // Mix sizes are range-checked before any cast: the color id is a
  // uint32_t and the per-sample hit counters are uint16_t, so an
  // out-of-range value would alias or wrap silently.
  const std::int64_t colors =
      flags.GetInt("colors", static_cast<std::int64_t>(spec.mix.color_count));
  if (colors < 1 || colors > (std::int64_t{1} << 32)) {
    std::fprintf(stderr,
                 "--colors=%lld is out of range: need 1 <= colors <= 2^32\n",
                 static_cast<long long>(colors));
    return false;
  }
  spec.mix.color_count = static_cast<std::uint64_t>(colors);
  spec.mix.zipf_theta = flags.GetDouble("theta", spec.mix.zipf_theta);
  spec.mix.churn_interval =
      SimTime::FromSeconds(flags.GetDouble("churn_interval_s", 0));
  spec.mix.churn_step = static_cast<std::uint64_t>(
      flags.GetInt("churn_step", static_cast<std::int64_t>(
                                     spec.mix.color_count / 8)));
  const std::int64_t objects_per_color = flags.GetInt(
      "objects_per_color",
      static_cast<std::int64_t>(spec.mix.objects_per_color));
  if (objects_per_color < 1) {
    std::fprintf(stderr,
                 "--objects_per_color=%lld is out of range: need >= 1\n",
                 static_cast<long long>(objects_per_color));
    return false;
  }
  spec.mix.objects_per_color = static_cast<std::uint64_t>(objects_per_color);
  const std::int64_t inputs =
      flags.GetInt("inputs", spec.mix.inputs_per_invocation);
  if (inputs < 0 || inputs > std::numeric_limits<std::uint16_t>::max()) {
    std::fprintf(stderr,
                 "--inputs=%lld is out of range: need 0 <= inputs <= 65535\n",
                 static_cast<long long>(inputs));
    return false;
  }
  spec.mix.inputs_per_invocation = static_cast<int>(inputs);
  spec.mix.functions[0].cpu_ops =
      flags.GetDouble("cpu_ops", spec.mix.functions[0].cpu_ops);
  spec.mix.write_fraction =
      flags.GetDouble("write_fraction", spec.mix.write_fraction);
  if (!(spec.mix.write_fraction >= 0 && spec.mix.write_fraction <= 1)) {
    std::fprintf(stderr,
                 "--write_fraction=%g is out of range: need 0 <= "
                 "write_fraction <= 1\n",
                 spec.mix.write_fraction);
    return false;
  }

  spec.driver.duration =
      SimTime::FromSeconds(flags.GetDouble("duration", 20));
  spec.driver.max_invocations = static_cast<std::uint64_t>(
      flags.GetInt("max_invocations",
                   static_cast<std::int64_t>(spec.driver.max_invocations)));
  spec.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  *out = spec;
  return true;
}

void AppendWorkloadSpecJson(const WorkloadSpec& spec, JsonWriter* json) {
  json->BeginObject();
  json->Key("arrival");
  json->String(ArrivalKindId(spec.arrival.kind));
  json->Key("rate_per_sec");
  json->Double(spec.arrival.rate_per_sec);
  if (spec.arrival.kind == ArrivalKind::kMmpp) {
    json->Key("burst_multiplier");
    json->Double(spec.arrival.burst_multiplier);
    json->Key("mean_on_seconds");
    json->Double(spec.arrival.mean_on_seconds);
    json->Key("mean_off_seconds");
    json->Double(spec.arrival.mean_off_seconds);
  }
  if (spec.arrival.kind == ArrivalKind::kDiurnal) {
    json->Key("period_seconds");
    json->Double(spec.arrival.period_seconds);
    json->Key("amplitude");
    json->Double(spec.arrival.amplitude);
  }
  json->Key("colors");
  json->UInt(spec.mix.color_count);
  json->Key("zipf_theta");
  json->Double(spec.mix.zipf_theta);
  json->Key("churn_interval_s");
  json->Double(spec.mix.churn_interval.seconds());
  json->Key("churn_step");
  json->UInt(spec.mix.churn_step);
  json->Key("objects_per_color");
  json->UInt(spec.mix.objects_per_color);
  json->Key("inputs_per_invocation");
  json->Int(spec.mix.inputs_per_invocation);
  json->Key("cpu_ops");
  json->Double(spec.mix.functions[0].cpu_ops);
  json->Key("write_fraction");
  json->Double(spec.mix.write_fraction);
  json->Key("duration_s");
  json->Double(spec.driver.duration.seconds());
  json->Key("seed");
  json->UInt(spec.seed);
  json->EndObject();
}

namespace {

// Attaches telemetry to a monolithic run: a live registry on the platform,
// a per-window snapshot refresh, and the sampler driven by the simulator's
// event-free clock observer — so the digests and samples are bit-identical
// with obs on or off. Call after the driver exists, before Start().
WorkloadTelemetry BeginTelemetry(const WorkloadObsConfig& obs, Simulator* sim,
                                 FaasPlatform* platform, RouterTier* tier,
                                 const OpenLoopDriver* driver) {
  WorkloadTelemetry t;
  t.metrics = std::make_shared<MetricsRegistry>();
  platform->set_metrics(t.metrics.get());
  TimeSeriesConfig ts_config;
  ts_config.interval = obs.sample_every;
  ts_config.ring_capacity = obs.ring_capacity;
  t.series = std::make_shared<TimeSeriesSampler>(ts_config);
  t.series->set_source(t.metrics.get());
  // Per-mark refresh: skip the per-worker families — the sampler does not
  // track them and their export cost scales with the cluster.
  t.series->set_refresh([platform, tier, driver, m = t.metrics.get()] {
    platform->ExportMetrics(m, std::string(), /*per_worker=*/false);
    if (tier != nullptr) {
      tier->ExportMetrics(m);
    }
    m->counter("driver.submitted").Set(driver->submitted());
    m->counter("driver.completed").Set(driver->completed());
    m->counter("driver.rejected").Set(driver->rejected());
  });
  sim->SetClockObserver(obs.sample_every, [sampler = t.series.get()](
                                              SimTime mark) {
    sampler->Sample(mark);
  });
  return t;
}

// Closes the telemetry session after the simulator drained: emits the idle
// tail's windows up to the nominal horizon, detaches the refresh hook
// (whose captures die with this stack frame), snapshots the final registry
// state, and evaluates the alert rules over the completed series.
void FinishTelemetry(const WorkloadObsConfig& obs, Simulator* sim,
                     FaasPlatform* platform, RouterTier* tier,
                     SimTime horizon, WorkloadTelemetry* t) {
  sim->FlushObserverUpTo(std::max(sim->Now(), horizon));
  sim->SetClockObserver(SimTime(), nullptr);
  t->series->set_refresh(nullptr);
  platform->ExportMetrics(t->metrics.get());
  if (tier != nullptr) {
    tier->ExportMetrics(t->metrics.get());
  }
  if (!obs.alert_rules.empty()) {
    t->alerts = std::make_shared<AlertEngine>(obs.alert_rules);
    t->alerts->Run(*t->series);
  }
}

// Copies planner bookkeeping out of the platform + runtime once the
// simulator drained.
void FillPlannerResult(const FaasPlatform& platform,
                       const PlannerRuntime* runtime,
                       WorkloadRunResult* result) {
  result->planner_rounds = platform.planner_rounds();
  result->planner_moves = platform.load_balancer().planner_moves();
  result->planner_splits = platform.load_balancer().planner_splits();
  result->planner_merges = platform.load_balancer().planner_merges();
  result->planner_moved_bytes = platform.planner_moved_bytes();
  if (runtime != nullptr) {
    result->plan_rounds = runtime->rounds();
  }
}

}  // namespace

PlatformConfig DefaultWorkloadPlatformConfig() {
  PlatformConfig config;
  config.cpu_ops_per_second = 1e9;
  config.dispatch_latency = SimTime::FromMillis(1);
  config.cold_start = SimTime::FromMillis(100);
  // Objects are small (KiB..MiB); the serialization tax is negligible next
  // to the fetch path and just slows the sweep down.
  config.serialization_bytes_per_second = 0;
  config.cache.per_instance_capacity = 256 * kMiB;
  config.cache_miss_fills = true;
  // Backend round trip on misses.
  config.network.latency = SimTime::FromMillis(2);
  return config;
}

WorkloadRunResult RunWorkload(const WorkloadSpec& spec, PolicyKind policy,
                              int workers, const SloConfig& slo,
                              const PlatformConfig& platform_config,
                              const FaultSchedule* faults,
                              const WorkloadObsConfig* obs,
                              const PlannerConfig* planner) {
  Simulator sim;
  FaasPlatform platform(&sim, policy, spec.seed, platform_config);
  platform.AddWorkers(workers);
  if (faults != nullptr) {
    faults->InstallOn(&sim, &platform);
  }

  // Independent sub-streams per component, both derived from the one
  // experiment seed.
  Rng seeder(spec.seed);
  const std::uint64_t arrival_seed = seeder.Next();
  const std::uint64_t driver_seed = seeder.Next();

  OpenLoopDriver driver(&platform,
                        MakeArrivalProcess(spec.arrival, arrival_seed),
                        InvocationMix(spec.mix), spec.driver, driver_seed);
  std::unique_ptr<PlannerRuntime> planner_runtime;
  if (planner != nullptr && planner->enabled()) {
    planner_runtime = std::make_unique<PlannerRuntime>(&platform, *planner);
    planner_runtime->Start(spec.driver.duration);
  }
  WorkloadTelemetry telemetry;
  if (obs != nullptr && obs->enabled()) {
    telemetry = BeginTelemetry(*obs, &sim, &platform, nullptr, &driver);
  }
  driver.Start();
  const std::uint64_t events = sim.Run();
  if (telemetry.enabled()) {
    FinishTelemetry(*obs, &sim, &platform, nullptr, spec.driver.duration,
                    &telemetry);
  }

  WorkloadRunResult result;
  result.telemetry = std::move(telemetry);
  result.report = ScoreSlo(driver.samples(), slo, spec.driver.duration,
                           spec.arrival.rate_per_sec);
  result.samples = driver.samples();
  result.samples_digest = SamplesDigest(result.samples);
  result.platform_submitted = platform.submitted_invocations();
  result.platform_completed = platform.completed_invocations();
  result.platform_dropped = platform.dropped_invocations();
  result.platform_abandoned = platform.abandoned_invocations();
  result.retries = platform.total_retries();
  result.timeouts = platform.total_timeouts();
  result.recolored = platform.load_balancer().recolored();
  result.cold_starts = platform.total_cold_starts();
  result.pulls = platform.total_pulls();
  result.steals = platform.total_steals();
  result.steal_bytes = platform.total_steal_bytes();
  result.sim_events = events;
  result.routing_imbalance = platform.load_balancer().RoutingImbalance();
  if (platform.storage_layer() != nullptr) {
    result.storage = platform.storage_layer()->stats();
  }
  FillPlannerResult(platform, planner_runtime.get(), &result);
  return result;
}

WorkloadRunResult RunRouterWorkload(const WorkloadSpec& spec,
                                    PolicyKind policy, int workers,
                                    RouterTierConfig tier_config,
                                    const SloConfig& slo,
                                    const PlatformConfig& platform_config,
                                    const FaultSchedule* faults,
                                    const WorkloadObsConfig* obs,
                                    const PlannerConfig* planner) {
  Simulator sim;
  FaasPlatform platform(&sim, policy, spec.seed, platform_config);
  platform.AddWorkers(workers);
  tier_config.policy = policy;
  tier_config.seed = spec.seed;
  RouterTier tier(&platform, tier_config);
  if (faults != nullptr) {
    faults->InstallOn(&sim, &platform, &tier);
  }

  Rng seeder(spec.seed);
  const std::uint64_t arrival_seed = seeder.Next();
  const std::uint64_t driver_seed = seeder.Next();

  OpenLoopDriver driver(&platform,
                        MakeArrivalProcess(spec.arrival, arrival_seed),
                        InvocationMix(spec.mix), spec.driver, driver_seed);
  driver.set_invoker(
      [&tier](InvocationSpec invocation,
              FaasPlatform::CompletionCallback on_complete) {
        return tier.Invoke(std::move(invocation), std::move(on_complete));
      });
  std::unique_ptr<PlannerRuntime> planner_runtime;
  if (planner != nullptr && planner->enabled()) {
    // The platform's LB stays authoritative; replicas learn each applied
    // plan through the tier's update log (RouterTier::OnPlanApplied).
    planner_runtime = std::make_unique<PlannerRuntime>(&platform, *planner);
    planner_runtime->Start(spec.driver.duration);
  }
  WorkloadTelemetry telemetry;
  if (obs != nullptr && obs->enabled()) {
    telemetry = BeginTelemetry(*obs, &sim, &platform, &tier, &driver);
  }
  driver.Start();
  const std::uint64_t events = sim.Run();
  if (telemetry.enabled()) {
    FinishTelemetry(*obs, &sim, &platform, &tier, spec.driver.duration,
                    &telemetry);
  }

  WorkloadRunResult result;
  result.telemetry = std::move(telemetry);
  result.report = ScoreSlo(driver.samples(), slo, spec.driver.duration,
                           spec.arrival.rate_per_sec);
  result.samples = driver.samples();
  result.samples_digest = SamplesDigest(result.samples);
  result.platform_submitted = platform.submitted_invocations();
  result.platform_completed = platform.completed_invocations();
  result.platform_dropped = platform.dropped_invocations();
  result.platform_abandoned = platform.abandoned_invocations();
  result.retries = platform.total_retries();
  result.timeouts = platform.total_timeouts();
  result.recolored = platform.load_balancer().recolored();
  result.cold_starts = platform.total_cold_starts();
  result.pulls = platform.total_pulls();
  result.steals = platform.total_steals();
  result.steal_bytes = platform.total_steal_bytes();
  result.sim_events = events;
  result.router_routes = tier.routes();
  result.router_stale_routes = tier.stale_routes();
  result.router_misroutes = tier.misroutes();
  result.router_forwards = tier.forwards();
  result.router_recolored = tier.recolored();
  result.routing_imbalance = platform.load_balancer().RoutingImbalance();
  if (platform.storage_layer() != nullptr) {
    result.storage = platform.storage_layer()->stats();
  }
  FillPlannerResult(platform, planner_runtime.get(), &result);
  return result;
}

}  // namespace palette
