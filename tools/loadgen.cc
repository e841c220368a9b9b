// loadgen — deterministic open-loop traffic generator + SLO harness
// (docs/WORKLOADS.md).
//
// Drives a fresh simulated FaaS platform with a workload spec (arrival
// process x invocation mix), scores the intended-start -> completion
// samples against a latency deadline, and writes BENCH_slo.json. The same
// --seed and spec reproduce a bit-identical sample set (the JSON embeds an
// order-sensitive digest; CI asserts on it).
//
// Usage:
//   loadgen [--arrival=poisson] [--rate=400] [--duration=20] [--seed=1]
//           [--policy=la] [--workers=8] [--deadline_ms=100] [--warmup_s=1]
//           [--colors=512] [--theta=0.9] [--churn_interval_s=0] ...
//           [--write_fraction=0]         # outputs per invocation knob
//           [--routers=0]                # >0: route through a RouterTier
//           [--dispatch=color|spray] [--sync_lag_ms=0] [--hop_us=200]
//           [--dispatch_mode=push|pull|hybrid]  # worker binding (DISPATCH.md)
//           [--steal_budget=4]           # pull/hybrid: max in-flight steals
//           [--coherence=off|write-through|write-back|causal]  # STORAGE.md
//           [--dirty_age_ms=50] [--staleness_ms=100] [--ae_lag_ms=10]
//           [--storage_tiers=1]          # 2: fast/slow backing store
//           [--fast_mb=256]              # fast-tier capacity
//           [--shards=0]                 # >=1: sharded run, N threads
//           [--groups=8] [--group_routers=2]
//           [--sweep=200,400,800,1600]   # rate step-sweep for the knee
//           [--dump_samples]             # embed per-sample records
//           [--out=BENCH_slo.json]
//           [--sample_every_ms=0]        # >0: sim-clock telemetry sampling
//           [--prom_out=<path|->]        # Prometheus text exposition
//           [--ts_out=<path|->]          # time-series CSV
//           [--alerts=<rules>] [--alert_log=<path|->]   # SLO alert engine
//           [--trace_counters=<path>]    # Chrome-trace counter tracks
//           [--profile]                  # sharded-run profiler (JSON)
//           [--plan_every_ms=0]          # >0: global re-balancer cadence
//           [--move_alpha=0.5] [--split_threshold=0.2] [--max_split=4]
//
// Planner (docs/PLANNER.md): --plan_every_ms>0 runs the optimization-based
// re-balancer on the sim clock — periodic snapshot -> solve -> apply with
// hot-color splitting. Works in all three modes (monolithic, --routers,
// --shards); the JSON grows "planner" (config) and "planner_result"
// (rounds, moves/splits/merges, per-round objectives in monolithic mode).
//
// Telemetry (docs/OBSERVABILITY.md): --sample_every_ms>0 attaches a
// TimeSeriesSampler on the simulator's event-free clock observer — rates,
// gauge levels, and per-window p50/p99 for the faas/lb/cache/net/router
// families — and the --alerts rules (see ParseAlertRules in
// src/obs/alerts.h) evaluate over those windows. Sampling adds zero
// events: digests and samples are bit-identical with it on or off, and
// with it off the BENCH_slo.json output is byte-identical to a build
// without telemetry.
//
// Storage tier (docs/STORAGE.md): --coherence!=off turns on the stateful
// write path — write-through, write-back (bounded dirty age, crash loss in
// the books), or causal (bounded-staleness reads) — plus anti-entropy
// between instance caches; --storage_tiers=2 adds the fast/slow two-tier
// backing store. The JSON grows a "storage" section with the write books,
// coherence traffic, staleness, and tier counters.
//
// Sharded mode (docs/PERF.md, "Parallel engine"): --shards>=1 splits the
// workload into --groups worker groups, each fronted by its own
// --group_routers router replicas and run as its own simulation on one of
// --shards threads. Digests are bit-identical for every --shards value;
// --shards=0 (the default) keeps the monolithic single-simulator paths.
// --routers and --sweep apply to monolithic mode only.
//
// A flag the chosen mode does not read is an error (exit status 2), never
// silently ignored.
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/core/policy_factory.h"
#include "src/obs/prometheus.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

std::vector<double> ParseRateCsv(const std::string& csv) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    if (comma > start) {
      out.push_back(std::stod(csv.substr(start, comma - start)));
    }
    start = comma + 1;
  }
  return out;
}

void AppendSamplesJson(const std::vector<InvocationSample>& samples,
                       JsonWriter* json) {
  json->BeginArray();
  for (const InvocationSample& s : samples) {
    json->BeginObject();
    json->Key("t_ns");
    json->Int(s.intended_start.nanos());
    json->Key("done_ns");
    json->Int(s.completed.nanos());
    json->Key("color");
    json->UInt(s.color_id);
    json->Key("fn");
    json->UInt(s.function_index);
    json->Key("status");
    json->UInt(static_cast<std::uint64_t>(s.status));
    json->Key("local");
    json->UInt(s.local_hits);
    json->Key("remote");
    json->UInt(s.remote_hits);
    json->Key("miss");
    json->UInt(s.misses);
    json->EndObject();
  }
  json->EndArray();
}

// "-" routes to stdout; anything else is a file path.
bool WriteTextOutput(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return true;
  }
  return WriteTextFile(path, content);
}

void AppendEngineProfileJson(const EngineProfile& profile, JsonWriter* json) {
  json->BeginObject();
  json->Key("groups");
  json->Int(profile.groups);
  json->Key("shards");
  json->Int(profile.shards);
  json->Key("epochs");
  json->UInt(profile.epochs);
  json->Key("events");
  json->UInt(profile.events);
  json->Key("per_shard");
  json->BeginArray();
  for (const ShardProfile& shard : profile.per_shard) {
    json->BeginObject();
    json->Key("epochs");
    json->UInt(shard.epochs);
    json->Key("events");
    json->UInt(shard.events);
    json->Key("busy_epochs");
    json->UInt(shard.busy_epochs);
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

// The "storage" result section shared by the monolithic and sharded paths
// (docs/STORAGE.md). Callers gate on StorageConfig::enabled() so runs with
// the tier off stay byte-identical to pre-storage output.
void AppendStorageStatsJson(const StorageStats& s, JsonWriter* json) {
  json->BeginObject();
  json->Key("writes_total");
  json->UInt(s.writes_total);
  json->Key("writes_durable");
  json->UInt(s.writes_durable);
  json->Key("writes_lost");
  json->UInt(s.writes_lost);
  json->Key("write_bytes");
  json->UInt(s.write_bytes);
  json->Key("flushes");
  json->UInt(s.flushes);
  json->Key("dirty_bytes_flushed");
  json->UInt(s.dirty_bytes_flushed);
  json->Key("dirty_bytes_lost");
  json->UInt(s.dirty_bytes_lost);
  json->Key("coherence_syncs");
  json->UInt(s.coherence_syncs);
  json->Key("coherence_bytes");
  json->UInt(s.coherence_bytes);
  json->Key("stale_reads");
  json->UInt(s.stale_reads);
  json->Key("max_served_staleness_ns");
  json->Int(s.max_served_staleness_ns);
  json->Key("ae_records");
  json->UInt(s.ae_records);
  json->Key("ae_applied");
  json->UInt(s.ae_applied);
  json->Key("ae_invalidations");
  json->UInt(s.ae_invalidations);
  json->Key("ae_refreshes");
  json->UInt(s.ae_refreshes);
  json->Key("ae_refresh_bytes");
  json->UInt(s.ae_refresh_bytes);
  json->Key("tier_fast_reads");
  json->UInt(s.tier_fast_reads);
  json->Key("tier_slow_reads");
  json->UInt(s.tier_slow_reads);
  json->Key("tier_promotions");
  json->UInt(s.tier_promotions);
  json->Key("tier_demotions");
  json->UInt(s.tier_demotions);
  json->Key("tier_promoted_bytes");
  json->UInt(s.tier_promoted_bytes);
  json->Key("tier_demoted_bytes");
  json->UInt(s.tier_demoted_bytes);
  json->Key("write_books_close");
  json->Bool(s.WriteBooksClose());
  json->EndObject();
}

void PrintStorageSummary(const StorageStats& s) {
  std::printf("storage: writes: %llu (%llu durable, %llu lost), coherence "
              "bytes: %llu, stale reads: %llu, books %s\n",
              static_cast<unsigned long long>(s.writes_total),
              static_cast<unsigned long long>(s.writes_durable),
              static_cast<unsigned long long>(s.writes_lost),
              static_cast<unsigned long long>(s.coherence_bytes),
              static_cast<unsigned long long>(s.stale_reads),
              s.WriteBooksClose() ? "close" : "DO NOT CLOSE");
}

// The gated telemetry outputs shared by the monolithic and sharded paths.
// Returns false on a write failure. Appends nothing and writes nothing
// when telemetry is off, keeping obs-free output byte-identical.
bool EmitTelemetry(const WorkloadTelemetry& telemetry,
                   const std::string& prom_out,
                   const std::string& ts_out, const std::string& alert_log,
                   const std::string& trace_counters, JsonWriter* json) {
  if (!telemetry.enabled()) {
    return true;
  }
  json->Key("telemetry");
  json->BeginObject();
  json->Key("samples_taken");
  json->UInt(telemetry.series->samples_taken());
  json->Key("series_count");
  json->UInt(telemetry.series->series_count());
  json->Key("last_mark_ns");
  json->Int(telemetry.series->last_mark().nanos());
  if (telemetry.alerts != nullptr) {
    json->Key("alerts");
    json->BeginObject();
    telemetry.alerts->AppendJson(json);
    json->EndObject();
  }
  json->EndObject();

  if (telemetry.alerts != nullptr && !telemetry.alerts->log().empty()) {
    std::printf("alerts:\n%s", telemetry.alerts->ToLogLines().c_str());
  }
  if (!prom_out.empty() &&
      !WriteTextOutput(prom_out, ToPrometheusText(*telemetry.metrics))) {
    return false;
  }
  if (!ts_out.empty() &&
      !WriteTextOutput(ts_out, telemetry.series->ToCsv())) {
    return false;
  }
  if (!alert_log.empty() && telemetry.alerts != nullptr &&
      !WriteTextOutput(alert_log, telemetry.alerts->ToLogLines())) {
    return false;
  }
  if (!trace_counters.empty()) {
    JsonWriter trace;
    trace.BeginObject();
    trace.Key("traceEvents");
    trace.BeginArray();
    telemetry.series->AppendChromeCounterTracks(&trace, /*pid=*/1);
    trace.EndArray();
    trace.EndObject();
    if (!WriteTextOutput(trace_counters, trace.str())) {
      return false;
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  const FlagParser flags(argc, argv);

  WorkloadSpec spec;
  if (!WorkloadSpecFromFlags(flags, &spec)) {
    return 1;
  }
  PolicyKind policy;
  const std::string policy_id = flags.GetString("policy", "la");
  if (!ParsePolicyKind(policy_id, &policy)) {
    std::fprintf(stderr, "unknown policy id: %s\n", policy_id.c_str());
    return 1;
  }
  const int workers = static_cast<int>(flags.GetInt("workers", 8));
  // Routing-tier mode (docs/ROUTING.md): --routers=N fronts the platform
  // with N load-balancer replicas instead of routing directly.
  const int routers = static_cast<int>(flags.GetInt("routers", 0));
  RouterTierConfig tier_config;
  tier_config.routers = routers;
  const std::string dispatch_id = flags.GetString(
      "dispatch", std::string(DispatchModeId(tier_config.dispatch)));
  if (!ParseDispatchMode(dispatch_id, &tier_config.dispatch)) {
    std::fprintf(stderr, "unknown dispatch mode: %s (try: color spray)\n",
                 dispatch_id.c_str());
    return 1;
  }
  tier_config.sync_lag =
      SimTime::FromMillis(flags.GetDouble("sync_lag_ms", 0));
  tier_config.hop_latency = SimTime::FromMicros(
      flags.GetDouble("hop_us", tier_config.hop_latency.micros()));
  // Sharded-engine mode: --shards>=1 runs the workload on the parallel
  // engine; the group tiers reuse the dispatch/sync_lag flags above.
  const int shards = static_cast<int>(flags.GetInt("shards", 0));
  ShardedWorkloadConfig sharded_config;
  sharded_config.shards = shards;
  sharded_config.groups = static_cast<int>(flags.GetInt("groups", 8));
  sharded_config.routers_per_group =
      static_cast<int>(flags.GetInt("group_routers", 2));
  sharded_config.group_sync_lag = tier_config.sync_lag;
  sharded_config.group_dispatch = tier_config.dispatch;
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(flags.GetDouble("deadline_ms", 100));
  slo.warmup = SimTime::FromSeconds(flags.GetDouble("warmup_s", 1));
  slo.top_colors =
      static_cast<std::size_t>(flags.GetInt("top_colors", 8));
  const std::string sweep_csv = flags.GetString("sweep", "");
  const bool dump_samples = flags.GetBool("dump_samples", false);
  const std::string out_path = flags.GetString("out", "BENCH_slo.json");
  PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  platform_config.cache.per_instance_capacity = static_cast<Bytes>(
      flags.GetDouble("cache_mb",
                      static_cast<double>(
                          platform_config.cache.per_instance_capacity) /
                          static_cast<double>(kMiB)) *
      static_cast<double>(kMiB));
  // Dispatch binding (docs/DISPATCH.md): --dispatch_mode=push keeps
  // route-time binding; pull/hybrid late-bind via per-color pending queues
  // with budget-gated locality-aware stealing.
  const std::string dispatch_mode_id = flags.GetString(
      "dispatch_mode",
      std::string(FaasDispatchModeId(platform_config.dispatch_mode)));
  if (!ParseFaasDispatchMode(dispatch_mode_id,
                             &platform_config.dispatch_mode)) {
    std::fprintf(stderr,
                 "unknown dispatch_mode: %s (try: push pull hybrid)\n",
                 dispatch_mode_id.c_str());
    return 1;
  }
  platform_config.steal_budget = static_cast<int>(
      flags.GetInt("steal_budget", platform_config.steal_budget));

  // Stateful storage tier (docs/STORAGE.md). --coherence=off (the default)
  // leaves the layer out of the platform entirely.
  const std::string coherence_id = flags.GetString(
      "coherence", std::string(CoherenceModeId(platform_config.storage.mode)));
  if (!ParseCoherenceMode(coherence_id, &platform_config.storage.mode)) {
    std::fprintf(stderr,
                 "unknown coherence mode: %s (try: off write-through "
                 "write-back causal)\n",
                 coherence_id.c_str());
    return 1;
  }
  platform_config.storage.max_dirty_age = SimTime::FromMillis(flags.GetDouble(
      "dirty_age_ms", platform_config.storage.max_dirty_age.millis()));
  platform_config.storage.staleness_bound =
      SimTime::FromMillis(flags.GetDouble(
          "staleness_ms", platform_config.storage.staleness_bound.millis()));
  platform_config.storage.ae_lag = SimTime::FromMillis(
      flags.GetDouble("ae_lag_ms", platform_config.storage.ae_lag.millis()));
  const int storage_tiers =
      static_cast<int>(flags.GetInt("storage_tiers", 1));
  platform_config.storage.tiers.two_tier = storage_tiers >= 2;
  platform_config.storage.tiers.fast_capacity = static_cast<Bytes>(
      flags.GetDouble("fast_mb",
                      static_cast<double>(
                          platform_config.storage.tiers.fast_capacity) /
                          static_cast<double>(kMiB)) *
      static_cast<double>(kMiB));

  // Telemetry flags (docs/OBSERVABILITY.md).
  WorkloadObsConfig obs;
  obs.sample_every =
      SimTime::FromMillis(flags.GetDouble("sample_every_ms", 0));
  const std::string alerts_spec = flags.GetString("alerts", "");
  const std::string prom_out = flags.GetString("prom_out", "");
  const std::string ts_out = flags.GetString("ts_out", "");
  const std::string alert_log = flags.GetString("alert_log", "");
  const std::string trace_counters = flags.GetString("trace_counters", "");
  const bool profile = flags.GetBool("profile", false);

  // Global re-balancer flags (docs/PLANNER.md). --plan_every_ms=0 (the
  // default) leaves the planner off and the run byte-identical to a
  // planner-free build.
  PlannerConfig planner_config;
  planner_config.plan_every =
      SimTime::FromMillis(flags.GetDouble("plan_every_ms", 0));
  planner_config.split_threshold = flags.GetDouble(
      "split_threshold", planner_config.split_threshold);
  planner_config.move_alpha =
      flags.GetDouble("move_alpha", planner_config.move_alpha);
  planner_config.max_split = static_cast<int>(
      flags.GetInt("max_split", planner_config.max_split));
  planner_config.seed = spec.seed;
  if (!alerts_spec.empty()) {
    std::vector<std::string> rule_errors;
    obs.alert_rules = ParseAlertRules(alerts_spec, &rule_errors);
    for (const std::string& error : rule_errors) {
      std::fprintf(stderr, "warning: %s\n", error.c_str());
    }
    if (obs.alert_rules.empty()) {
      std::fprintf(stderr, "no valid --alerts rules\n");
      return 1;
    }
    if (!obs.enabled()) {
      // Alerts need windows to evaluate; default to 100ms sampling.
      obs.sample_every = SimTime::FromMillis(100);
    }
  }

  if (flags.ReportUnqueried()) {
    return 2;
  }
  if (shards >= 1 && !sweep_csv.empty()) {
    std::fprintf(stderr, "--sweep is not supported with --shards\n");
    return 1;
  }
  if (obs.enabled() && !sweep_csv.empty()) {
    std::fprintf(stderr, "error: telemetry flags do not apply to --sweep\n");
    return 2;
  }
  if (shards >= 1 && routers > 0) {
    std::fprintf(stderr,
                 "error: --routers does not apply to --shards (use "
                 "--group_routers)\n");
    return 2;
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("loadgen");
  json.Key("policy");
  json.String(PolicyKindId(policy));
  json.Key("workers");
  json.Int(workers);
  json.Key("deadline_ms");
  json.Double(slo.deadline.millis());
  json.Key("warmup_s");
  json.Double(slo.warmup.seconds());
  json.Key("spec");
  AppendWorkloadSpecJson(spec, &json);
  json.Key("dispatch_mode");
  json.String(FaasDispatchModeId(platform_config.dispatch_mode));
  if (platform_config.dispatch_mode != FaasDispatchMode::kPush) {
    json.Key("steal_budget");
    json.Int(platform_config.steal_budget);
  }
  if (platform_config.storage.enabled()) {
    json.Key("storage_config");
    json.BeginObject();
    json.Key("coherence");
    json.String(CoherenceModeId(platform_config.storage.mode));
    json.Key("dirty_age_ms");
    json.Double(platform_config.storage.max_dirty_age.millis());
    json.Key("staleness_ms");
    json.Double(platform_config.storage.staleness_bound.millis());
    json.Key("ae_lag_ms");
    json.Double(platform_config.storage.ae_lag.millis());
    json.Key("two_tier");
    json.Bool(platform_config.storage.tiers.two_tier);
    if (platform_config.storage.tiers.two_tier) {
      json.Key("fast_mb");
      json.Double(
          static_cast<double>(platform_config.storage.tiers.fast_capacity) /
          static_cast<double>(kMiB));
    }
    json.EndObject();
  }
  if (routers > 0 && shards < 1) {
    json.Key("routers");
    json.Int(routers);
    json.Key("dispatch");
    json.String(DispatchModeId(tier_config.dispatch));
    json.Key("sync_lag_ms");
    json.Double(tier_config.sync_lag.millis());
    json.Key("hop_us");
    json.Double(tier_config.hop_latency.micros());
  }
  if (planner_config.enabled()) {
    json.Key("planner");
    json.BeginObject();
    json.Key("plan_every_ms");
    json.Double(planner_config.plan_every.millis());
    json.Key("move_alpha");
    json.Double(planner_config.move_alpha);
    json.Key("split_threshold");
    json.Double(planner_config.split_threshold);
    json.Key("max_split");
    json.Int(planner_config.max_split);
    json.EndObject();
  }

  if (shards >= 1) {
    // Sharded run: one topology, its groups spread over `shards` threads.
    json.Key("sharded");
    json.BeginObject();
    json.Key("shards");
    json.Int(shards);
    json.Key("groups");
    json.Int(sharded_config.groups);
    json.Key("group_routers");
    json.Int(sharded_config.routers_per_group);
    json.Key("dispatch");
    json.String(DispatchModeId(sharded_config.group_dispatch));
    json.Key("sync_lag_ms");
    json.Double(sharded_config.group_sync_lag.millis());
    json.EndObject();

    std::printf("== loadgen (sharded): %s arrivals at %.0f rps, %s policy, "
                "%d workers across %d groups x %d routers, %d shard(s) "
                "==\n\n",
                std::string(ArrivalKindId(spec.arrival.kind)).c_str(),
                spec.arrival.rate_per_sec, policy_id.c_str(), workers,
                sharded_config.groups, sharded_config.routers_per_group,
                shards);
    sharded_config.obs = obs;
    sharded_config.profile = profile;
    sharded_config.planner = planner_config;
    const ShardedRunResult run = RunShardedWorkload(
        spec, policy, workers, sharded_config, slo, platform_config);
    std::printf("%s\n", SloReportTable(run.report).c_str());
    std::printf("samples digest: %016llx, engine digest: %016llx, sim "
                "events: %llu, wall: %.3f s, books %s\n",
                static_cast<unsigned long long>(run.samples_digest),
                static_cast<unsigned long long>(run.engine_digest),
                static_cast<unsigned long long>(run.sim_events),
                run.wall_seconds, run.books_close ? "close" : "DO NOT CLOSE");

    json.Key("sample_count");
    json.UInt(run.driver_submitted);
    json.Key("samples_digest");
    json.String(StrFormat("%016llx", static_cast<unsigned long long>(
                                         run.samples_digest)));
    json.Key("engine_digest");
    json.String(StrFormat("%016llx", static_cast<unsigned long long>(
                                         run.engine_digest)));
    json.Key("sim_events");
    json.UInt(run.sim_events);
    json.Key("wall_seconds");
    json.Double(run.wall_seconds);
    json.Key("cold_starts");
    json.UInt(run.cold_starts);
    json.Key("retries");
    json.UInt(run.retries);
    if (platform_config.dispatch_mode != FaasDispatchMode::kPush) {
      std::printf("pulls: %llu, steals: %llu, steal bytes: %llu\n",
                  static_cast<unsigned long long>(run.pulls),
                  static_cast<unsigned long long>(run.steals),
                  static_cast<unsigned long long>(run.steal_bytes));
      json.Key("pulls");
      json.UInt(run.pulls);
      json.Key("steals");
      json.UInt(run.steals);
      json.Key("steal_bytes");
      json.UInt(run.steal_bytes);
    }
    if (platform_config.storage.enabled()) {
      PrintStorageSummary(run.storage);
      json.Key("storage");
      AppendStorageStatsJson(run.storage, &json);
    }
    if (planner_config.enabled()) {
      std::printf("planner: rounds: %llu, moves: %llu, splits: %llu, "
                  "merges: %llu, moved: %llu bytes\n",
                  static_cast<unsigned long long>(run.planner_rounds),
                  static_cast<unsigned long long>(run.planner_moves),
                  static_cast<unsigned long long>(run.planner_splits),
                  static_cast<unsigned long long>(run.planner_merges),
                  static_cast<unsigned long long>(run.planner_moved_bytes));
      json.Key("planner_result");
      json.BeginObject();
      json.Key("rounds");
      json.UInt(run.planner_rounds);
      json.Key("moves");
      json.UInt(run.planner_moves);
      json.Key("splits");
      json.UInt(run.planner_splits);
      json.Key("merges");
      json.UInt(run.planner_merges);
      json.Key("moved_bytes");
      json.UInt(run.planner_moved_bytes);
      json.EndObject();
    }
    json.Key("books");
    json.BeginObject();
    json.Key("submitted");
    json.UInt(run.driver_submitted);
    json.Key("group_submitted");
    json.UInt(run.group_submitted);
    json.Key("completed");
    json.UInt(run.group_completed);
    json.Key("dropped");
    json.UInt(run.group_dropped);
    json.Key("abandoned");
    json.UInt(run.group_abandoned);
    json.Key("rejections");
    json.UInt(run.group_rejections);
    json.Key("close");
    json.Bool(run.books_close);
    json.EndObject();
    json.Key("report");
    AppendSloReportJson(run.report, &json);
    if (profile) {
      json.Key("engine_profile");
      AppendEngineProfileJson(run.profile, &json);
    }
    if (!EmitTelemetry(run.telemetry, prom_out, ts_out, alert_log,
                       trace_counters, &json)) {
      return 1;
    }
    json.EndObject();
    if (!WriteTextFile(out_path, json.str())) {
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  }

  const auto run_spec = [&](const WorkloadSpec& at_spec) {
    const WorkloadObsConfig* obs_ptr = obs.enabled() ? &obs : nullptr;
    const PlannerConfig* planner_ptr =
        planner_config.enabled() ? &planner_config : nullptr;
    return routers > 0
               ? RunRouterWorkload(at_spec, policy, workers, tier_config,
                                   slo, platform_config, nullptr, obs_ptr,
                                   planner_ptr)
               : RunWorkload(at_spec, policy, workers, slo, platform_config,
                             nullptr, obs_ptr, planner_ptr);
  };

  if (sweep_csv.empty()) {
    // Single run at the spec's rate.
    std::printf("== loadgen: %s arrivals at %.0f rps, %s policy, %d "
                "workers%s ==\n\n",
                std::string(ArrivalKindId(spec.arrival.kind)).c_str(),
                spec.arrival.rate_per_sec, policy_id.c_str(), workers,
                routers > 0
                    ? StrFormat(", %d %s routers", routers,
                                dispatch_id.c_str()).c_str()
                    : "");
    const WorkloadRunResult run = run_spec(spec);
    std::printf("%s\n", SloReportTable(run.report).c_str());
    std::printf("samples: %zu, digest: %016llx, sim events: %llu, cold "
                "starts: %llu, platform drops: %llu\n",
                run.samples.size(),
                static_cast<unsigned long long>(run.samples_digest),
                static_cast<unsigned long long>(run.sim_events),
                static_cast<unsigned long long>(run.cold_starts),
                static_cast<unsigned long long>(run.platform_dropped));
    if (platform_config.dispatch_mode != FaasDispatchMode::kPush) {
      std::printf("pulls: %llu, steals: %llu, steal bytes: %llu\n",
                  static_cast<unsigned long long>(run.pulls),
                  static_cast<unsigned long long>(run.steals),
                  static_cast<unsigned long long>(run.steal_bytes));
    }

    json.Key("sample_count");
    json.UInt(run.samples.size());
    json.Key("samples_digest");
    json.String(StrFormat("%016llx", static_cast<unsigned long long>(
                                         run.samples_digest)));
    json.Key("sim_events");
    json.UInt(run.sim_events);
    json.Key("cold_starts");
    json.UInt(run.cold_starts);
    if (platform_config.dispatch_mode != FaasDispatchMode::kPush) {
      json.Key("pulls");
      json.UInt(run.pulls);
      json.Key("steals");
      json.UInt(run.steals);
      json.Key("steal_bytes");
      json.UInt(run.steal_bytes);
    }
    json.Key("platform_dropped");
    json.UInt(run.platform_dropped);
    if (platform_config.storage.enabled()) {
      PrintStorageSummary(run.storage);
      json.Key("storage");
      AppendStorageStatsJson(run.storage, &json);
    }
    json.Key("books");
    json.BeginObject();
    json.Key("submitted");
    json.UInt(run.platform_submitted);
    json.Key("completed");
    json.UInt(run.platform_completed);
    json.Key("dropped");
    json.UInt(run.platform_dropped);
    json.Key("abandoned");
    json.UInt(run.platform_abandoned);
    json.Key("close");
    json.Bool(run.platform_submitted == run.platform_completed +
                                            run.platform_dropped +
                                            run.platform_abandoned);
    json.EndObject();
    if (planner_config.enabled()) {
      std::printf("planner: rounds: %llu, moves: %llu, splits: %llu, "
                  "merges: %llu, moved: %llu bytes, imbalance: %.3f\n",
                  static_cast<unsigned long long>(run.planner_rounds),
                  static_cast<unsigned long long>(run.planner_moves),
                  static_cast<unsigned long long>(run.planner_splits),
                  static_cast<unsigned long long>(run.planner_merges),
                  static_cast<unsigned long long>(run.planner_moved_bytes),
                  run.routing_imbalance);
      json.Key("planner_result");
      json.BeginObject();
      json.Key("rounds");
      json.UInt(run.planner_rounds);
      json.Key("moves");
      json.UInt(run.planner_moves);
      json.Key("splits");
      json.UInt(run.planner_splits);
      json.Key("merges");
      json.UInt(run.planner_merges);
      json.Key("moved_bytes");
      json.UInt(run.planner_moved_bytes);
      json.Key("routing_imbalance");
      json.Double(run.routing_imbalance);
      json.Key("round_objectives");
      json.BeginArray();
      for (const PlanRound& round : run.plan_rounds) {
        json.BeginObject();
        json.Key("round");
        json.UInt(round.round);
        json.Key("t_ms");
        json.Double(round.at.millis());
        json.Key("objective_before");
        json.Double(round.objective_before);
        json.Key("objective_after");
        json.Double(round.objective_after);
        json.Key("moves");
        json.UInt(round.moves);
        json.Key("splits");
        json.UInt(round.splits);
        json.Key("merges");
        json.UInt(round.merges);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    if (routers > 0) {
      std::printf("router tier: routes: %llu, stale: %llu, misroutes: %llu, "
                  "forwards: %llu, recolored: %llu\n",
                  static_cast<unsigned long long>(run.router_routes),
                  static_cast<unsigned long long>(run.router_stale_routes),
                  static_cast<unsigned long long>(run.router_misroutes),
                  static_cast<unsigned long long>(run.router_forwards),
                  static_cast<unsigned long long>(run.router_recolored));
      json.Key("router");
      json.BeginObject();
      json.Key("routes");
      json.UInt(run.router_routes);
      json.Key("stale_routes");
      json.UInt(run.router_stale_routes);
      json.Key("misroutes");
      json.UInt(run.router_misroutes);
      json.Key("forwards");
      json.UInt(run.router_forwards);
      json.Key("recolored");
      json.UInt(run.router_recolored);
      json.EndObject();
    }
    json.Key("report");
    AppendSloReportJson(run.report, &json);
    if (dump_samples) {
      json.Key("samples");
      AppendSamplesJson(run.samples, &json);
    }
    if (!EmitTelemetry(run.telemetry, prom_out, ts_out, alert_log,
                       trace_counters, &json)) {
      return 1;
    }
  } else {
    // Rate step-sweep: fresh platform per rate, max sustainable = highest
    // rate whose p99 meets the deadline with nothing shed.
    const std::vector<double> rates = ParseRateCsv(sweep_csv);
    if (rates.empty()) {
      std::fprintf(stderr, "empty --sweep rate list\n");
      return 1;
    }
    std::printf("== loadgen rate sweep: %s policy, %d workers, deadline "
                "%.0f ms ==\n\n",
                policy_id.c_str(), workers, slo.deadline.millis());
    std::vector<std::uint64_t> digests;
    const RateSweepResult sweep =
        SweepRates(rates, [&](double rate) {
          WorkloadSpec at_rate = spec;
          at_rate.arrival.rate_per_sec = rate;
          const WorkloadRunResult run = run_spec(at_rate);
          digests.push_back(run.samples_digest);
          return run.report;
        });

    TablePrinter table;
    table.AddRow({"offered_rps", "completed_rps", "goodput_rps", "p50_ms",
                  "p99_ms", "p99.9_ms", "hit%", "meets_slo"});
    for (const RateSweepPoint& point : sweep.points) {
      table.AddRow({StrFormat("%.0f", point.offered_rps),
                    StrFormat("%.1f", point.report.completed_rps),
                    StrFormat("%.1f", point.report.goodput_rps),
                    StrFormat("%.3f", point.report.p50_ms),
                    StrFormat("%.3f", point.report.p99_ms),
                    StrFormat("%.3f", point.report.p999_ms),
                    StrFormat("%.1f", 100 * point.report.local_hit_ratio),
                    point.report.MeetsSlo() ? "yes" : "no"});
    }
    table.Print();
    std::printf("\nmax sustainable rate: %.0f rps (p99 <= %.0f ms)\n",
                sweep.max_sustainable_rps, slo.deadline.millis());

    json.Key("max_sustainable_rps");
    json.Double(sweep.max_sustainable_rps);
    json.Key("sweep");
    json.BeginArray();
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
      json.BeginObject();
      json.Key("offered_rps");
      json.Double(sweep.points[i].offered_rps);
      json.Key("samples_digest");
      json.String(StrFormat(
          "%016llx", static_cast<unsigned long long>(digests[i])));
      json.Key("report");
      AppendSloReportJson(sweep.points[i].report, &json);
      json.EndObject();
    }
    json.EndArray();
  }
  json.EndObject();

  if (!WriteTextFile(out_path, json.str())) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace palette

int main(int argc, char** argv) { return palette::Run(argc, argv); }
