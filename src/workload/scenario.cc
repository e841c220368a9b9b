// RunScenario: the one harness that builds, runs, folds and scores every
// open-loop run (docs/WORKLOADS.md), and the one JSON schema its results
// are written in.
#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <initializer_list>
#include <memory>
#include <utility>

#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/common/thread_pool.h"
#include "src/hash/hash.h"
#include "src/workload/spec.h"

namespace palette {

namespace {

// Front door -> group fabric hop of a run with more than one group,
// charged to dispatch: it is part of every sample's measured latency.
constexpr SimTime kFabricHop = SimTime::FromMicros(500);

// One worker group: its simulator, the platform owning its cluster slice,
// the optional router tier and planner, its slice of the front door, and
// its telemetry.
struct Group {
  Simulator sim;
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<TimeSeriesSampler> series;
  std::unique_ptr<FaasPlatform> platform;
  std::unique_ptr<RouterTier> tier;
  std::unique_ptr<PlannerRuntime> planner;
  std::unique_ptr<OpenLoopDriver> driver;
};

std::uint64_t WallNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The per-mark refresh: the cluster-level families of the platform and
// tier (per-worker families scale with the cluster and the sampler does
// not track them) and the group's driver books.
void RefreshGroupMetrics(const Group& group) {
  MetricsRegistry* m = group.metrics.get();
  group.platform->ExportMetrics(m, std::string(), /*per_worker=*/false);
  if (group.tier != nullptr) {
    group.tier->ExportMetrics(m);
  }
  m->counter("driver.submitted").Set(group.driver->submitted());
  m->counter("driver.completed").Set(group.driver->completed());
  m->counter("driver.rejected").Set(group.driver->rejected());
}

// Builds group `g` and schedules its first arrival. The construction
// order fixes the order of equal-time events: planner ticks precede
// faults, which precede arrivals.
void BuildGroup(const Scenario& s, int g, std::uint64_t group_seed,
                std::uint64_t arrival_seed, std::uint64_t driver_seed,
                const std::shared_ptr<const InvocationMix>& mix,
                std::vector<InvocationSample>* book, Group* group) {
  const int groups = s.groups;
  group->platform = std::make_unique<FaasPlatform>(&group->sim, s.policy,
                                                   group_seed, s.platform);
  if (groups > 1) {
    group->platform->set_worker_prefix(StrFormat("g%dw", g));
  }
  group->platform->AddWorkers(s.workers / groups +
                              (g < s.workers % groups ? 1 : 0));
  if (s.tier.routers > 0) {
    RouterTierConfig tier_config = s.tier;
    tier_config.policy = s.policy;
    tier_config.seed = group_seed;
    group->tier =
        std::make_unique<RouterTier>(group->platform.get(), tier_config);
  }
  if (s.obs.trace != nullptr) {
    assert(groups == 1 && "a trace recorder is not thread-safe");
    group->platform->set_trace_recorder(s.obs.trace);
    if (group->tier != nullptr) {
      group->tier->set_trace_recorder(s.obs.trace);
    }
  }
  if (s.planner.enabled()) {
    // The platform's LB stays authoritative; replicas learn each applied
    // plan through the tier's update log (RouterTier::OnPlanApplied).
    group->planner =
        std::make_unique<PlannerRuntime>(group->platform.get(), s.planner);
    group->planner->Start(s.spec.driver.duration);
  }
  FaultSchedule faults;
  for (const GroupFault& fault : s.faults) {
    if (fault.group == g) {
      faults.Add(fault.event);
    }
  }
  faults.InstallOn(&group->sim, group->platform.get(), group->tier.get());

  // The group's slice of the front door: a consistent color -> group
  // partition, so every invocation of a color meets the same group.
  ArrivalSlice slice;
  if (groups > 1) {
    slice.owns = [g, groups](std::uint32_t color_id) {
      return JumpConsistentHash(Fnv1a64(InvocationMix::ColorName(color_id)),
                                static_cast<std::uint32_t>(groups)) ==
             static_cast<std::uint32_t>(g);
    };
    slice.delay = kFabricHop;
  }
  slice.book = book;
  group->driver = std::make_unique<OpenLoopDriver>(
      &group->sim, MakeArrivalProcess(s.spec.arrival, arrival_seed), mix,
      s.spec.driver, driver_seed, std::move(slice));
  group->driver->set_invoker(
      [group](InvocationSpec invocation, FaasPlatform::CompletionCallback cb) {
        return group->tier != nullptr
                   ? group->tier->Invoke(std::move(invocation), std::move(cb))
                   : group->platform->Invoke(std::move(invocation),
                                             std::move(cb));
      });

  if (s.obs.enabled()) {
    TimeSeriesConfig ts_config;
    ts_config.interval = s.obs.sample_every;
    ts_config.ring_capacity = s.obs.ring_capacity;
    group->metrics = std::make_shared<MetricsRegistry>();
    group->series = std::make_shared<TimeSeriesSampler>(ts_config);
    group->series->set_source(group->metrics.get());
    group->series->set_refresh([group] { RefreshGroupMetrics(*group); });
    group->platform->set_metrics(group->metrics.get());
    // The clock observer adds no events: digests are identical with
    // telemetry on or off.
    group->sim.SetClockObserver(
        s.obs.sample_every,
        [sampler = group->series.get()](SimTime mark) {
          sampler->Sample(mark);
        });
  }
  group->driver->Start();
}

// Runs every group start to finish on whichever of `threads` threads
// claims it next, and returns the wall time of the runs.
double RunGroups(std::vector<Group>* groups, int threads, bool profiling,
                 EngineProfile* profile) {
  std::vector<ShardProfile> per_thread(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> finished_ns(static_cast<std::size_t>(threads));
  std::atomic<std::size_t> next_group{0};
  const std::uint64_t run_start = WallNanos();
  ParallelFor(static_cast<std::size_t>(threads),
              static_cast<std::size_t>(threads), [&](std::size_t t) {
                ShardProfile& prof = per_thread[t];
                for (std::size_t g = next_group.fetch_add(1);
                     g < groups->size(); g = next_group.fetch_add(1)) {
                  const std::uint64_t start = profiling ? WallNanos() : 0;
                  const std::uint64_t events = (*groups)[g].sim.Run();
                  if (profiling) {
                    prof.execute_ns += WallNanos() - start;
                  }
                  ++prof.epochs;
                  prof.events += events;
                  prof.busy_epochs += events > 0 ? 1 : 0;
                }
                if (profiling) {
                  finished_ns[t] = WallNanos();
                }
              });
  const std::uint64_t joined = WallNanos();
  if (profiling) {
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
      per_thread[t].barrier_wait_ns = joined - finished_ns[t];
    }
  }
  profile->groups = static_cast<int>(groups->size());
  profile->shards = threads;
  profile->epochs = groups->size();
  profile->per_shard = std::move(per_thread);
  return static_cast<double>(joined - run_start) / 1e9;
}

// Closes every group's telemetry on the run's own clocks and folds it in
// group order. The common horizon is the latest group clock or the nominal
// duration, so every group's mark set is aligned before the window-by-
// window fold; group 0's registry and series are the fold's base.
void FinishTelemetry(const Scenario& s, std::vector<Group>* groups,
                     WorkloadTelemetry* t) {
  SimTime horizon = s.spec.driver.duration;
  for (const Group& group : *groups) {
    horizon = std::max(horizon, group.sim.Now());
  }
  t->metrics = groups->front().metrics;
  t->series = groups->front().series;
  for (Group& group : *groups) {
    group.sim.FlushObserverUpTo(horizon);
    group.sim.SetClockObserver(SimTime(), nullptr);
    group.series->set_refresh(nullptr);
    group.platform->ExportMetrics(group.metrics.get());
    if (group.tier != nullptr) {
      group.tier->ExportMetrics(group.metrics.get());
    }
    if (&group != &groups->front()) {
      t->metrics->MergeFrom(*group.metrics);
      t->series->MergeFrom(*group.series);
    }
  }
  if (!s.obs.alert_rules.empty()) {
    t->alerts = std::make_shared<AlertEngine>(s.obs.alert_rules);
    t->alerts->Run(*t->series);
  }
}

// Adds one drained group's books and counters to the result.
void FoldGroup(const Group& group, ScenarioResult* r) {
  r->engine_digest =
      (r->engine_digest ^ group.sim.event_digest()) * 1099511628211ull;
  r->sim_events += group.sim.executed_events();
  r->driver_submitted += group.driver->submitted();
  r->driver_completed += group.driver->completed();
  r->driver_rejected += group.driver->rejected();
  const FaasPlatform& platform = *group.platform;
  const PaletteLoadBalancer& lb = platform.load_balancer();
  r->platform_submitted += platform.submitted_invocations();
  r->platform_completed += platform.completed_invocations();
  r->platform_dropped += platform.dropped_invocations();
  r->platform_abandoned += platform.abandoned_invocations();
  r->retries += platform.total_retries();
  r->timeouts += platform.total_timeouts();
  r->recolored += lb.recolored();
  r->cold_starts += platform.total_cold_starts();
  r->pulls += platform.total_pulls();
  r->steals += platform.total_steals();
  r->steal_bytes += platform.total_steal_bytes();
  if (group.tier != nullptr) {
    r->router_routes += group.tier->routes();
    r->router_stale_routes += group.tier->stale_routes();
    r->router_misroutes += group.tier->misroutes();
    r->router_forwards += group.tier->forwards();
    r->router_recolored += group.tier->recolored();
  }
  r->planner_rounds += platform.planner_rounds();
  r->planner_moves += lb.planner_moves();
  r->planner_splits += lb.planner_splits();
  r->planner_merges += lb.planner_merges();
  r->planner_moved_bytes += platform.planner_moved_bytes();
  if (group.planner != nullptr) {
    const std::vector<PlanRound>& rounds = group.planner->rounds();
    r->plan_rounds.insert(r->plan_rounds.end(), rounds.begin(),
                          rounds.end());
  }
  if (platform.storage_layer() != nullptr) {
    r->storage.Accumulate(platform.storage_layer()->stats());
  }
  r->routing_imbalance = std::max(r->routing_imbalance, lb.RoutingImbalance());
}

}  // namespace

std::vector<GroupFault> GroupFaults(const FaultSchedule& faults, int group) {
  std::vector<GroupFault> out;
  for (const FaultEvent& event : faults.events()) {
    out.push_back({group, event});
  }
  return out;
}

ScenarioResult RunScenario(const Scenario& s) {
  assert(s.groups >= 1);
  // Independent sub-streams per component, all derived from the one
  // experiment seed: arrivals, the driver's mix draws, then one per group
  // when there is more than one.
  Rng seeder(s.spec.seed);
  const std::uint64_t arrival_seed = seeder.Next();
  const std::uint64_t driver_seed = seeder.Next();

  // The sample book covers the whole arrival stream; each group writes the
  // indices it owns.
  ScenarioResult result;
  result.samples.resize(OpenLoopDriver::CountArrivals(
      *MakeArrivalProcess(s.spec.arrival, arrival_seed), s.spec.driver));
  const auto mix = std::make_shared<const InvocationMix>(s.spec.mix);
  std::vector<Group> groups(static_cast<std::size_t>(s.groups));
  for (int g = 0; g < s.groups; ++g) {
    const std::uint64_t group_seed =
        s.groups == 1 ? s.spec.seed : seeder.Next();
    BuildGroup(s, g, group_seed, arrival_seed, driver_seed, mix,
               &result.samples, &groups[static_cast<std::size_t>(g)]);
  }

  result.wall_seconds = RunGroups(&groups, std::clamp(s.shards, 1, s.groups),
                                  s.profile, &result.profile);
  const std::uint64_t fold_start = s.profile ? WallNanos() : 0;
  if (s.obs.enabled()) {
    FinishTelemetry(s, &groups, &result.telemetry);
  }
  result.engine_digest = 14695981039346656037ull;  // FNV-1a fold
  for (const Group& group : groups) {
    FoldGroup(group, &result);
  }
  result.books_close =
      result.driver_submitted ==
          result.platform_submitted + result.driver_rejected &&
      result.platform_submitted == result.platform_completed +
                                       result.platform_dropped +
                                       result.platform_abandoned;
  result.report = ScoreSlo(result.samples, s.slo, s.spec.driver.duration,
                           s.spec.arrival.rate_per_sec);
  result.samples_digest = SamplesDigest(result.samples);
  result.profile.events = result.sim_events;
  if (s.profile) {
    result.profile.per_shard.front().drain_ns = WallNanos() - fold_start;
  }
  return result;
}

namespace {

using UIntField = std::pair<const char*, std::uint64_t>;

void AppendUInts(std::initializer_list<UIntField> fields, JsonWriter* json) {
  for (const auto& [key, value] : fields) {
    json->Key(key);
    json->UInt(value);
  }
}

std::string Hex(std::uint64_t value) {
  return StrFormat("%016llx", static_cast<unsigned long long>(value));
}

void AppendEngineProfileJson(const EngineProfile& profile, JsonWriter* json) {
  json->BeginObject();
  json->Key("groups");
  json->Int(profile.groups);
  json->Key("shards");
  json->Int(profile.shards);
  AppendUInts({{"epochs", profile.epochs}, {"events", profile.events}}, json);
  json->Key("per_shard");
  json->BeginArray();
  for (const ShardProfile& shard : profile.per_shard) {
    json->BeginObject();
    AppendUInts({{"epochs", shard.epochs},
                 {"events", shard.events},
                 {"busy_epochs", shard.busy_epochs}},
                json);
    json->Key("barrier_wait_ms");
    json->Double(static_cast<double>(shard.barrier_wait_ns) / 1e6);
    json->Key("drain_ms");
    json->Double(static_cast<double>(shard.drain_ns) / 1e6);
    json->Key("execute_ms");
    json->Double(static_cast<double>(shard.execute_ns) / 1e6);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

void AppendPlanRoundsJson(const std::vector<PlanRound>& rounds,
                          JsonWriter* json) {
  json->BeginArray();
  for (const PlanRound& round : rounds) {
    json->BeginObject();
    json->Key("round");
    json->UInt(round.round);
    json->Key("t_ms");
    json->Double(round.at.millis());
    json->Key("objective_before");
    json->Double(round.objective_before);
    json->Key("objective_after");
    json->Double(round.objective_after);
    AppendUInts({{"moves", round.moves},
                 {"splits", round.splits},
                 {"merges", round.merges}},
                json);
    json->EndObject();
  }
  json->EndArray();
}

}  // namespace

void AppendStorageStatsJson(const StorageStats& s, JsonWriter* json) {
  json->BeginObject();
  AppendUInts({{"writes_total", s.writes_total},
               {"writes_durable", s.writes_durable},
               {"writes_lost", s.writes_lost},
               {"write_bytes", s.write_bytes},
               {"flushes", s.flushes},
               {"dirty_bytes_flushed", s.dirty_bytes_flushed},
               {"dirty_bytes_lost", s.dirty_bytes_lost},
               {"coherence_syncs", s.coherence_syncs},
               {"coherence_bytes", s.coherence_bytes},
               {"stale_reads", s.stale_reads}},
              json);
  json->Key("max_served_staleness_ns");
  json->Int(s.max_served_staleness_ns);
  AppendUInts({{"ae_records", s.ae_records},
               {"ae_applied", s.ae_applied},
               {"ae_invalidations", s.ae_invalidations},
               {"ae_refreshes", s.ae_refreshes},
               {"ae_refresh_bytes", s.ae_refresh_bytes},
               {"tier_fast_reads", s.tier_fast_reads},
               {"tier_slow_reads", s.tier_slow_reads},
               {"tier_promotions", s.tier_promotions},
               {"tier_demotions", s.tier_demotions},
               {"tier_promoted_bytes", s.tier_promoted_bytes},
               {"tier_demoted_bytes", s.tier_demoted_bytes}},
              json);
  json->Key("write_books_close");
  json->Bool(s.WriteBooksClose());
  json->EndObject();
}

void AppendScenarioJson(const Scenario& s, JsonWriter* json) {
  json->Key("policy");
  json->String(PolicyKindId(s.policy));
  json->Key("workers");
  json->Int(s.workers);
  json->Key("deadline_ms");
  json->Double(s.slo.deadline.millis());
  json->Key("warmup_s");
  json->Double(s.slo.warmup.seconds());
  json->Key("spec");
  AppendWorkloadSpecJson(s.spec, json);
  json->Key("groups");
  json->Int(s.groups);
  json->Key("shards");
  json->Int(s.shards);
  json->Key("dispatch_mode");
  json->String(FaasDispatchModeId(s.platform.dispatch_mode));
  if (s.platform.dispatch_mode != FaasDispatchMode::kPush) {
    json->Key("steal_budget");
    json->Int(s.platform.steal_budget);
  }
  const StorageConfig& storage = s.platform.storage;
  if (storage.enabled()) {
    json->Key("storage_config");
    json->BeginObject();
    json->Key("coherence");
    json->String(CoherenceModeId(storage.mode));
    json->Key("dirty_age_ms");
    json->Double(storage.max_dirty_age.millis());
    json->Key("staleness_ms");
    json->Double(storage.staleness_bound.millis());
    json->Key("ae_lag_ms");
    json->Double(storage.ae_lag.millis());
    json->Key("two_tier");
    json->Bool(storage.tiers.two_tier);
    if (storage.tiers.two_tier) {
      json->Key("fast_mb");
      json->Double(static_cast<double>(storage.tiers.fast_capacity) /
                   static_cast<double>(kMiB));
    }
    json->EndObject();
  }
  if (s.tier.routers > 0) {
    json->Key("routers");
    json->Int(s.tier.routers);
    json->Key("dispatch");
    json->String(DispatchModeId(s.tier.dispatch));
    json->Key("sync_lag_ms");
    json->Double(s.tier.sync_lag.millis());
    json->Key("hop_us");
    json->Double(s.tier.hop_latency.micros());
  }
  if (s.planner.enabled()) {
    json->Key("planner");
    json->BeginObject();
    json->Key("plan_every_ms");
    json->Double(s.planner.plan_every.millis());
    json->Key("move_alpha");
    json->Double(s.planner.move_alpha);
    json->Key("split_threshold");
    json->Double(s.planner.split_threshold);
    json->Key("max_split");
    json->Int(s.planner.max_split);
    json->EndObject();
  }
}

void AppendScenarioResultJson(const Scenario& s, const ScenarioResult& r,
                              JsonWriter* json) {
  json->Key("sample_count");
  json->UInt(r.samples.size());
  json->Key("samples_digest");
  json->String(Hex(r.samples_digest));
  json->Key("engine_digest");
  json->String(Hex(r.engine_digest));
  json->Key("wall_seconds");
  json->Double(r.wall_seconds);
  AppendUInts({{"sim_events", r.sim_events},
               {"cold_starts", r.cold_starts},
               {"retries", r.retries},
               {"platform_dropped", r.platform_dropped}},
              json);
  if (s.platform.dispatch_mode != FaasDispatchMode::kPush) {
    AppendUInts({{"pulls", r.pulls},
                 {"steals", r.steals},
                 {"steal_bytes", r.steal_bytes}},
                json);
  }
  if (s.platform.storage.enabled()) {
    json->Key("storage");
    AppendStorageStatsJson(r.storage, json);
  }
  // Books: driver-side submitted and rejections, platform-side the rest.
  json->Key("books");
  json->BeginObject();
  AppendUInts({{"submitted", r.driver_submitted},
               {"group_submitted", r.platform_submitted},
               {"completed", r.platform_completed},
               {"dropped", r.platform_dropped},
               {"abandoned", r.platform_abandoned},
               {"rejections", r.driver_rejected}},
              json);
  json->Key("close");
  json->Bool(r.books_close);
  json->EndObject();
  if (s.planner.enabled()) {
    json->Key("planner_result");
    json->BeginObject();
    AppendUInts({{"rounds", r.planner_rounds},
                 {"moves", r.planner_moves},
                 {"splits", r.planner_splits},
                 {"merges", r.planner_merges},
                 {"moved_bytes", r.planner_moved_bytes}},
                json);
    json->Key("routing_imbalance");
    json->Double(r.routing_imbalance);
    json->Key("round_objectives");
    AppendPlanRoundsJson(r.plan_rounds, json);
    json->EndObject();
  }
  if (s.tier.routers > 0) {
    json->Key("router");
    json->BeginObject();
    AppendUInts({{"routes", r.router_routes},
                 {"stale_routes", r.router_stale_routes},
                 {"misroutes", r.router_misroutes},
                 {"forwards", r.router_forwards},
                 {"recolored", r.router_recolored}},
                json);
    json->EndObject();
  }
  json->Key("report");
  AppendSloReportJson(r.report, json);
  if (s.profile) {
    json->Key("engine_profile");
    AppendEngineProfileJson(r.profile, json);
  }
  const WorkloadTelemetry& t = r.telemetry;
  if (t.enabled()) {
    json->Key("telemetry");
    json->BeginObject();
    AppendUInts({{"samples_taken", t.series->samples_taken()},
                 {"series_count", t.series->series_count()}},
                json);
    json->Key("last_mark_ns");
    json->Int(t.series->last_mark().nanos());
    if (t.alerts != nullptr) {
      json->Key("alerts");
      json->BeginObject();
      t.alerts->AppendJson(json);
      json->EndObject();
    }
    json->EndObject();
  }
}

WorkloadRunResult RunWorkload(const WorkloadSpec& spec, PolicyKind policy,
                              int workers, const SloConfig& slo,
                              const PlatformConfig& platform_config,
                              const FaultSchedule* faults,
                              const WorkloadObsConfig* obs,
                              const PlannerConfig* planner) {
  RouterTierConfig no_tier;
  no_tier.routers = 0;
  return RunRouterWorkload(spec, policy, workers, no_tier, slo,
                           platform_config, faults, obs, planner);
}

WorkloadRunResult RunRouterWorkload(const WorkloadSpec& spec,
                                    PolicyKind policy, int workers,
                                    RouterTierConfig tier_config,
                                    const SloConfig& slo,
                                    const PlatformConfig& platform_config,
                                    const FaultSchedule* faults,
                                    const WorkloadObsConfig* obs,
                                    const PlannerConfig* planner) {
  Scenario scenario;
  scenario.spec = spec;
  scenario.policy = policy;
  scenario.workers = workers;
  scenario.slo = slo;
  scenario.platform = platform_config;
  scenario.tier = tier_config;
  if (faults != nullptr) {
    scenario.faults = GroupFaults(*faults, 0);
  }
  if (obs != nullptr) {
    scenario.obs = *obs;
  }
  if (planner != nullptr) {
    scenario.planner = *planner;
  }
  return RunScenario(scenario);
}

}  // namespace palette
