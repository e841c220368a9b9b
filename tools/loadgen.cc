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
//           [--groups=1]                 # >1: split into worker groups
//           [--shards=0]                 # >=1: N threads; groups default 8
//           [--group_routers=2]          # routers per group with --shards
//           [--sweep=200,400,800,1600]   # rate step-sweep for the knee
//           [--dump_samples]             # embed per-sample records
//           [--out=BENCH_slo.json]
//           [--sample_every_ms=0]        # >0: sim-clock telemetry sampling
//           [--prom_out=<path|->]        # Prometheus text exposition
//           [--ts_out=<path|->]          # time-series CSV
//           [--alerts=<rules>] [--alert_log=<path|->]   # SLO alert engine
//           [--trace_counters=<path>]    # Chrome-trace counter tracks
//           [--profile]                  # per-thread engine profile (JSON)
//           [--plan_every_ms=0]          # >0: global re-balancer cadence
//           [--move_alpha=0.5] [--split_threshold=0.2] [--max_split=4]
//
// Planner (docs/PLANNER.md): --plan_every_ms>0 runs the optimization-based
// re-balancer on the sim clock — periodic snapshot -> solve -> apply with
// hot-color splitting, one planner per worker group; the JSON grows
// "planner" (config) and "planner_result" (rounds, moves/splits/merges,
// per-round objectives in group order).
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
// Worker groups (docs/PERF.md, "Parallel engine"): every run is
// RunScenario (src/workload/spec.h). --groups splits the cluster into
// worker groups, each its own simulation fronted by its own routers, run
// on --shards threads; digests are bit-identical for every --shards value.
// One group (the default without --shards) is the monolithic run. Router
// replicas come from --routers, or from --group_routers (default 2) once
// --shards is given; the other of the two is an error. Every run, sweep
// point and mode writes the same result schema.
//
// A flag the chosen mode does not read, or a value out of range, is an
// error (exit status 2) and writes nothing.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/core/policy_factory.h"
#include "src/obs/prometheus.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

// Parses "200,400,800"; false on an empty list or a non-positive or
// non-numeric rate.
bool ParseRateCsv(const std::string& csv, std::vector<double>* out) {
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    const std::string item = csv.substr(start, comma - start);
    char* end = nullptr;
    const double rate = std::strtod(item.c_str(), &end);
    if (item.empty() || *end != '\0' || !(rate > 0)) {
      return false;
    }
    out->push_back(rate);
    start = comma + 1;
  }
  return !out->empty();
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

void PrintRunSummary(const Scenario& s, const ScenarioResult& run) {
  std::printf("%s\n", SloReportTable(run.report).c_str());
  std::printf("samples: %zu, digest: %016llx, engine digest: %016llx, sim "
              "events: %llu, wall: %.3f s, cold starts: %llu, platform "
              "drops: %llu, books %s\n",
              run.samples.size(),
              static_cast<unsigned long long>(run.samples_digest),
              static_cast<unsigned long long>(run.engine_digest),
              static_cast<unsigned long long>(run.sim_events),
              run.wall_seconds,
              static_cast<unsigned long long>(run.cold_starts),
              static_cast<unsigned long long>(run.platform_dropped),
              run.books_close ? "close" : "DO NOT CLOSE");
  if (s.platform.dispatch_mode != FaasDispatchMode::kPush) {
    std::printf("pulls: %llu, steals: %llu, steal bytes: %llu\n",
                static_cast<unsigned long long>(run.pulls),
                static_cast<unsigned long long>(run.steals),
                static_cast<unsigned long long>(run.steal_bytes));
  }
  if (s.platform.storage.enabled()) {
    const StorageStats& st = run.storage;
    std::printf("storage: writes: %llu (%llu durable, %llu lost), coherence "
                "bytes: %llu, stale reads: %llu, books %s\n",
                static_cast<unsigned long long>(st.writes_total),
                static_cast<unsigned long long>(st.writes_durable),
                static_cast<unsigned long long>(st.writes_lost),
                static_cast<unsigned long long>(st.coherence_bytes),
                static_cast<unsigned long long>(st.stale_reads),
                st.WriteBooksClose() ? "close" : "DO NOT CLOSE");
  }
  if (s.planner.enabled()) {
    std::printf("planner: rounds: %llu, moves: %llu, splits: %llu, "
                "merges: %llu, moved: %llu bytes, imbalance: %.3f\n",
                static_cast<unsigned long long>(run.planner_rounds),
                static_cast<unsigned long long>(run.planner_moves),
                static_cast<unsigned long long>(run.planner_splits),
                static_cast<unsigned long long>(run.planner_merges),
                static_cast<unsigned long long>(run.planner_moved_bytes),
                run.routing_imbalance);
  }
  if (s.tier.routers > 0) {
    std::printf("router tier: routes: %llu, stale: %llu, misroutes: %llu, "
                "forwards: %llu, recolored: %llu\n",
                static_cast<unsigned long long>(run.router_routes),
                static_cast<unsigned long long>(run.router_stale_routes),
                static_cast<unsigned long long>(run.router_misroutes),
                static_cast<unsigned long long>(run.router_forwards),
                static_cast<unsigned long long>(run.router_recolored));
  }
}

// Where the telemetry artifacts go; empty = not written.
struct TelemetryOutputs {
  std::string prom_out;
  std::string ts_out;
  std::string alert_log;
  std::string trace_counters;

  bool any() const {
    return !prom_out.empty() || !ts_out.empty() || !alert_log.empty() ||
           !trace_counters.empty();
  }
};

// Writes the telemetry artifacts. Returns false on a write failure; writes
// nothing when telemetry is off.
bool WriteTelemetry(const WorkloadTelemetry& telemetry,
                    const TelemetryOutputs& outputs) {
  if (!telemetry.enabled()) {
    return true;
  }
  if (telemetry.alerts != nullptr && !telemetry.alerts->log().empty()) {
    std::printf("alerts:\n%s", telemetry.alerts->ToLogLines().c_str());
  }
  if (!outputs.prom_out.empty() &&
      !WriteTextOutput(outputs.prom_out,
                       ToPrometheusText(*telemetry.metrics))) {
    return false;
  }
  if (!outputs.ts_out.empty() &&
      !WriteTextOutput(outputs.ts_out, telemetry.series->ToCsv())) {
    return false;
  }
  if (!outputs.alert_log.empty() && telemetry.alerts != nullptr &&
      !WriteTextOutput(outputs.alert_log, telemetry.alerts->ToLogLines())) {
    return false;
  }
  if (!outputs.trace_counters.empty()) {
    JsonWriter trace;
    trace.BeginObject();
    trace.Key("traceEvents");
    trace.BeginArray();
    telemetry.series->AppendChromeCounterTracks(&trace, /*pid=*/1);
    trace.EndArray();
    trace.EndObject();
    if (!WriteTextOutput(outputs.trace_counters, trace.str())) {
      return false;
    }
  }
  return true;
}

// Reads the scenario from flags. Returns false (after printing why) on a
// value out of range or an unknown id.
bool ScenarioFromFlags(const FlagParser& flags, Scenario* out) {
  Scenario s;
  if (!WorkloadSpecFromFlags(flags, &s.spec)) {
    return false;
  }
  const std::string policy_id = flags.GetString("policy", "la");
  if (!ParsePolicyKind(policy_id, &s.policy)) {
    std::fprintf(stderr, "unknown policy id: %s\n", policy_id.c_str());
    return false;
  }
  s.workers = static_cast<int>(flags.GetInt("workers", 8));
  if (s.workers < 1) {
    std::fprintf(stderr, "--workers=%d is out of range: need >= 1\n",
                 s.workers);
    return false;
  }
  // --shards>=1 picks the thread count and the sharded defaults: 8 groups
  // of --group_routers routers. Without it, one group behind --routers.
  const int shards = static_cast<int>(flags.GetInt("shards", 0));
  const bool sharded = shards >= 1;
  s.shards = sharded ? shards : 1;
  s.groups = static_cast<int>(flags.GetInt("groups", sharded ? 8 : 1));
  if (shards < 0 || s.groups < 1) {
    std::fprintf(stderr, "--shards and --groups are out of range: need "
                         "shards >= 0 and groups >= 1\n");
    return false;
  }
  if (sharded && flags.Has("routers")) {
    std::fprintf(stderr,
                 "error: --routers does not apply to --shards (use "
                 "--group_routers)\n");
    return false;
  }
  s.tier.routers =
      static_cast<int>(sharded ? flags.GetInt("group_routers", 2)
                               : flags.GetInt("routers", 0));
  if (s.tier.routers < 0) {
    std::fprintf(stderr, "router count %d is out of range: need >= 0\n",
                 s.tier.routers);
    return false;
  }
  const std::string dispatch_id = flags.GetString(
      "dispatch", std::string(DispatchModeId(s.tier.dispatch)));
  if (!ParseDispatchMode(dispatch_id, &s.tier.dispatch)) {
    std::fprintf(stderr, "unknown dispatch mode: %s (try: color spray)\n",
                 dispatch_id.c_str());
    return false;
  }
  s.tier.sync_lag = SimTime::FromMillis(flags.GetDouble("sync_lag_ms", 0));
  s.tier.hop_latency = SimTime::FromMicros(
      flags.GetDouble("hop_us", s.tier.hop_latency.micros()));

  s.slo.deadline = SimTime::FromMillis(flags.GetDouble("deadline_ms", 100));
  s.slo.warmup = SimTime::FromSeconds(flags.GetDouble("warmup_s", 1));
  s.slo.top_colors = static_cast<std::size_t>(flags.GetInt("top_colors", 8));

  PlatformConfig& platform = s.platform;
  Bytes& cache_bytes = platform.cache.per_instance_capacity;
  cache_bytes = static_cast<Bytes>(
      flags.GetDouble("cache_mb", static_cast<double>(cache_bytes) /
                                      static_cast<double>(kMiB)) *
      static_cast<double>(kMiB));
  // Dispatch binding (docs/DISPATCH.md): push binds at route time;
  // pull/hybrid late-bind via per-color pending queues with budget-gated
  // locality-aware stealing.
  const std::string dispatch_mode_id = flags.GetString(
      "dispatch_mode", std::string(FaasDispatchModeId(platform.dispatch_mode)));
  if (!ParseFaasDispatchMode(dispatch_mode_id, &platform.dispatch_mode)) {
    std::fprintf(stderr, "unknown dispatch_mode: %s (try: push pull hybrid)\n",
                 dispatch_mode_id.c_str());
    return false;
  }
  platform.steal_budget = static_cast<int>(
      flags.GetInt("steal_budget", platform.steal_budget));

  // Stateful storage tier (docs/STORAGE.md). --coherence=off (the default)
  // leaves the layer out of the platform entirely.
  StorageConfig& storage = platform.storage;
  const std::string coherence_id =
      flags.GetString("coherence", std::string(CoherenceModeId(storage.mode)));
  if (!ParseCoherenceMode(coherence_id, &storage.mode)) {
    std::fprintf(stderr,
                 "unknown coherence mode: %s (try: off write-through "
                 "write-back causal)\n",
                 coherence_id.c_str());
    return false;
  }
  storage.max_dirty_age = SimTime::FromMillis(
      flags.GetDouble("dirty_age_ms", storage.max_dirty_age.millis()));
  storage.staleness_bound = SimTime::FromMillis(
      flags.GetDouble("staleness_ms", storage.staleness_bound.millis()));
  storage.ae_lag = SimTime::FromMillis(
      flags.GetDouble("ae_lag_ms", storage.ae_lag.millis()));
  const std::int64_t storage_tiers = flags.GetInt("storage_tiers", 1);
  if (storage_tiers != 1 && storage_tiers != 2) {
    std::fprintf(stderr, "--storage_tiers=%lld is out of range: need 1 or 2\n",
                 static_cast<long long>(storage_tiers));
    return false;
  }
  storage.tiers.two_tier = storage_tiers == 2;
  storage.tiers.fast_capacity = static_cast<Bytes>(
      flags.GetDouble("fast_mb", static_cast<double>(
                                     storage.tiers.fast_capacity) /
                                     static_cast<double>(kMiB)) *
      static_cast<double>(kMiB));

  // Telemetry (docs/OBSERVABILITY.md).
  s.obs.sample_every =
      SimTime::FromMillis(flags.GetDouble("sample_every_ms", 0));
  const std::string alerts_spec = flags.GetString("alerts", "");
  if (!alerts_spec.empty()) {
    std::vector<std::string> rule_errors;
    s.obs.alert_rules = ParseAlertRules(alerts_spec, &rule_errors);
    for (const std::string& error : rule_errors) {
      std::fprintf(stderr, "warning: %s\n", error.c_str());
    }
    if (s.obs.alert_rules.empty()) {
      std::fprintf(stderr, "no valid --alerts rules\n");
      return false;
    }
    if (!s.obs.enabled()) {
      // Alerts need windows to evaluate; default to 100ms sampling.
      s.obs.sample_every = SimTime::FromMillis(100);
    }
  }
  s.profile = flags.GetBool("profile", false);

  // Global re-balancer (docs/PLANNER.md). --plan_every_ms=0 (the default)
  // leaves the planner off.
  s.planner.plan_every =
      SimTime::FromMillis(flags.GetDouble("plan_every_ms", 0));
  s.planner.split_threshold =
      flags.GetDouble("split_threshold", s.planner.split_threshold);
  s.planner.move_alpha = flags.GetDouble("move_alpha", s.planner.move_alpha);
  s.planner.max_split =
      static_cast<int>(flags.GetInt("max_split", s.planner.max_split));
  s.planner.seed = s.spec.seed;
  *out = std::move(s);
  return true;
}

int Run(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  Scenario scenario;
  if (!ScenarioFromFlags(flags, &scenario)) {
    return 2;
  }
  const std::string sweep_csv = flags.GetString("sweep", "");
  const bool dump_samples = flags.GetBool("dump_samples", false);
  const std::string out_path = flags.GetString("out", "BENCH_slo.json");
  const TelemetryOutputs outputs{flags.GetString("prom_out", ""),
                                 flags.GetString("ts_out", ""),
                                 flags.GetString("alert_log", ""),
                                 flags.GetString("trace_counters", "")};
  if (flags.ReportUnqueried()) {
    return 2;
  }
  if (outputs.any() && !scenario.obs.enabled()) {
    std::fprintf(stderr, "error: telemetry outputs need --sample_every_ms "
                         "or --alerts\n");
    return 2;
  }
  std::vector<double> rates;
  if (!sweep_csv.empty()) {
    if (!ParseRateCsv(sweep_csv, &rates)) {
      std::fprintf(stderr, "--sweep=%s: need a list of positive rates\n",
                   sweep_csv.c_str());
      return 2;
    }
    if (scenario.obs.enabled()) {
      std::fprintf(stderr,
                   "error: telemetry flags do not apply to --sweep\n");
      return 2;
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("loadgen");
  AppendScenarioJson(scenario, &json);
  const std::string policy_id(PolicyKindId(scenario.policy));

  if (rates.empty()) {
    std::printf("== loadgen: %s arrivals at %.0f rps, %s policy, %d "
                "workers in %d group(s) x %d router(s), %d shard(s) ==\n\n",
                std::string(ArrivalKindId(scenario.spec.arrival.kind)).c_str(),
                scenario.spec.arrival.rate_per_sec, policy_id.c_str(),
                scenario.workers, scenario.groups, scenario.tier.routers,
                scenario.shards);
    const ScenarioResult run = RunScenario(scenario);
    PrintRunSummary(scenario, run);
    AppendScenarioResultJson(scenario, run, &json);
    if (dump_samples) {
      json.Key("samples");
      AppendSamplesJson(run.samples, &json);
    }
    if (!WriteTelemetry(run.telemetry, outputs)) {
      return 1;
    }
  } else {
    // Rate step-sweep: a fresh run per rate, each written in the one result
    // schema; max sustainable = the highest rate whose p99 meets the
    // deadline with nothing shed.
    std::printf("== loadgen rate sweep: %s policy, %d workers, deadline "
                "%.0f ms ==\n\n",
                policy_id.c_str(), scenario.workers,
                scenario.slo.deadline.millis());
    json.Key("sweep");
    json.BeginArray();
    const RateSweepResult sweep = SweepRates(rates, [&](double rate) {
      Scenario at_rate = scenario;
      at_rate.spec.arrival.rate_per_sec = rate;
      const ScenarioResult run = RunScenario(at_rate);
      json.BeginObject();
      json.Key("offered_rps");
      json.Double(rate);
      AppendScenarioResultJson(at_rate, run, &json);
      if (dump_samples) {
        json.Key("samples");
        AppendSamplesJson(run.samples, &json);
      }
      json.EndObject();
      return run.report;
    });
    json.EndArray();
    json.Key("max_sustainable_rps");
    json.Double(sweep.max_sustainable_rps);

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
                sweep.max_sustainable_rps, scenario.slo.deadline.millis());
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
