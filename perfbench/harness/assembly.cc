#include "harness/assembly.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "harness/layers.h"
#include "src/faas/platform.h"
#include "src/obs/metrics.h"
#include "src/planner/planner_runtime.h"
#include "src/planner/snapshot.h"
#include "src/router/router_tier.h"
#include "src/sim/simulator.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/mix.h"
#include "src/workload/sharded_run.h"

namespace palette::perfbench {
namespace {

// Sim-time spacing of the clock-observer marks at which a traced run reads
// queue depths. Marks add no events, so they leave every digest unchanged.
constexpr SimTime kMarkEvery = SimTime::FromMillis(100);
// Telemetry window of a traced sharded run; only its end-of-run registry
// is read.
constexpr SimTime kShardedSampleEvery = SimTime::FromSeconds(1);

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(double ns) { return ns / 1e6; }

double Median(std::vector<double> values) { return QuantileOf(values, 0.5); }

// The planner loop of a traced run: PlannerRuntime's snapshot -> solve ->
// apply round, driven by the benchmark so each phase gets its own span.
// Start and Tick keep PlannerRuntime's scheduling and round numbering, so
// the run is the one PlannerRuntime produces.
class TracedPlanner {
 public:
  TracedPlanner(FaasPlatform* platform, const PlannerConfig& config,
                SpanRecorder* spans, const std::int32_t* parent)
      : platform_(platform),
        config_(config),
        collector_(config.ewma_beta),
        planner_(config),
        spans_(spans),
        parent_(parent),
        round_name_(spans->Name("planner.round")),
        collect_name_(spans->Name("planner.collect")),
        solve_name_(spans->Name("planner.solve")),
        apply_name_(spans->Name("planner.apply")) {}

  TracedPlanner(const TracedPlanner&) = delete;
  TracedPlanner& operator=(const TracedPlanner&) = delete;

  void Start(SimTime horizon) {
    if (!config_.enabled() ||
        !platform_->load_balancer().supports_planning()) {
      return;
    }
    platform_->load_balancer().set_color_stats_enabled(true);
    for (SimTime t = config_.plan_every; t < horizon;
         t += config_.plan_every) {
      platform_->simulator().At(t, [this]() { Tick(); });
    }
  }

  std::uint16_t collect_name() const { return collect_name_; }
  std::uint16_t solve_name() const { return solve_name_; }
  std::uint16_t apply_name() const { return apply_name_; }

 private:
  void Tick() {
    const std::int32_t round = spans_->Open(round_name_, *parent_);
    const std::int64_t t0 = NowNs();
    const PlacementSnapshot snapshot = collector_.Collect(*platform_);
    const std::int64_t t1 = NowNs();
    Plan plan = planner_.Solve(snapshot);
    plan.round = ++rounds_;
    const std::int64_t t2 = NowNs();
    platform_->ApplyPlan(plan);
    const std::int64_t t3 = NowNs();
    spans_->Add(collect_name_, round, t0, t1, 0);
    spans_->Add(solve_name_, round, t1, t2, 0);
    spans_->Add(apply_name_, round, t2, t3, 0);
    spans_->Close(round);
  }

  FaasPlatform* platform_;
  PlannerConfig config_;
  SnapshotCollector collector_;
  RebalancePlanner planner_;
  SpanRecorder* spans_;
  const std::int32_t* parent_;
  std::uint64_t rounds_ = 0;
  std::uint16_t round_name_;
  std::uint16_t collect_name_;
  std::uint16_t solve_name_;
  std::uint16_t apply_name_;
};

// What a traced run observes while the simulator runs. Declared before the
// stack that points at it, so it outlives the stack's callbacks.
struct TraceState {
  SpanRecorder* spans = nullptr;
  std::int32_t run_span = SpanRecorder::kNoParent;
  std::uint16_t invoke_name = 0;
  MetricsRegistry metrics;
  std::size_t heap_depth_max = 0;
  std::size_t pending_depth_max = 0;
};

// One built stack, in RunRouterWorkload's construction order. Members are
// destroyed in reverse, so the tier detaches before the platform goes.
struct Stack {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<FaasPlatform> platform;
  std::unique_ptr<RouterTier> tier;
  std::unique_ptr<OpenLoopDriver> driver;
  std::unique_ptr<PlannerRuntime> planner;
  std::unique_ptr<TracedPlanner> traced_planner;
};

// Builds the stack and starts the driver: everything before the first
// event. A traced build wraps the driver's invoker in spans, attaches the
// platform metrics registry and the depth-reading clock observer.
Stack Build(const BenchWorkload& w, TraceState* trace) {
  Stack s;
  s.sim = std::make_unique<Simulator>();
  s.platform = std::make_unique<FaasPlatform>(s.sim.get(), w.policy,
                                              w.spec.seed, w.platform);
  s.platform->AddWorkers(w.workers);
  if (w.tier.routers > 0) {
    RouterTierConfig tier_config = w.tier;
    tier_config.policy = w.policy;
    tier_config.seed = w.spec.seed;
    s.tier = std::make_unique<RouterTier>(s.platform.get(), tier_config);
  }
  const StreamSeeds seeds = DeriveStreamSeeds(w.spec.seed);
  s.driver = std::make_unique<OpenLoopDriver>(
      s.platform.get(), MakeArrivalProcess(w.spec.arrival, seeds.arrival),
      InvocationMix(w.spec.mix), w.spec.driver, seeds.driver);
  FaasPlatform* platform = s.platform.get();
  RouterTier* tier = s.tier.get();
  if (trace == nullptr) {
    if (tier != nullptr) {
      s.driver->set_invoker([tier](InvocationSpec invocation,
                                   FaasPlatform::CompletionCallback done) {
        return tier->Invoke(std::move(invocation), std::move(done));
      });
    }
  } else {
    trace->invoke_name =
        trace->spans->Name(tier != nullptr ? "router.invoke" : "faas.invoke");
    s.driver->set_invoker([tier, platform, trace](
                              InvocationSpec invocation,
                              FaasPlatform::CompletionCallback done) {
      const std::int64_t t0 = NowNs();
      const std::optional<std::uint64_t> id =
          tier != nullptr
              ? tier->Invoke(std::move(invocation), std::move(done))
              : platform->Invoke(std::move(invocation), std::move(done));
      const std::int64_t t1 = NowNs();
      trace->spans->Add(trace->invoke_name, trace->run_span, t0, t1,
                        id.value_or(0));
      return id;
    });
  }
  if (w.planner.enabled()) {
    if (trace == nullptr) {
      s.planner = std::make_unique<PlannerRuntime>(platform, w.planner);
      s.planner->Start(w.spec.driver.duration);
    } else {
      s.traced_planner = std::make_unique<TracedPlanner>(
          platform, w.planner, trace->spans, &trace->run_span);
      s.traced_planner->Start(w.spec.driver.duration);
    }
  }
  if (trace != nullptr) {
    platform->set_metrics(&trace->metrics);
    Simulator* sim = s.sim.get();
    sim->SetClockObserver(kMarkEvery, [sim, platform, trace](SimTime) {
      trace->heap_depth_max =
          std::max(trace->heap_depth_max, sim->pending_events());
      trace->pending_depth_max =
          std::max(trace->pending_depth_max, platform->PendingTotal());
    });
  }
  s.driver->Start();
  return s;
}

// The platform's simulated phase-latency quantiles, in ms.
void AppendPhaseQuantiles(MetricsRegistry& metrics, MetricList* out) {
  const auto quantile_ms = [&metrics](const char* name, double q) {
    return Millis(metrics.histogram(name).Quantile(q));
  };
  out->emplace_back("faas.queue_ms.p99",
                    quantile_ms("faas.latency.queue_ns", 0.99));
  out->emplace_back("faas.fetch_ms.p99",
                    quantile_ms("faas.latency.fetch_ns", 0.99));
  out->emplace_back("faas.compute_ms.p50",
                    quantile_ms("faas.latency.compute_ns", 0.5));
  out->emplace_back("faas.store_ms.p99",
                    quantile_ms("faas.latency.store_ns", 0.99));
}

// Appends the zero-valued stand-ins for layers a workload does not run, so
// every workload reports the same metric names.
void AppendAbsent(const std::vector<const char*>& names, MetricList* out) {
  for (const char* name : names) {
    out->emplace_back(name, 0.0);
  }
}

void AppendStorage(const StorageStats& s, MetricList* out) {
  out->emplace_back("storage.writes", static_cast<double>(s.writes_total));
  out->emplace_back("storage.flushes", static_cast<double>(s.flushes));
  out->emplace_back("storage.writes_lost", static_cast<double>(s.writes_lost));
  out->emplace_back("storage.coherence_bytes",
                    static_cast<double>(s.coherence_bytes));
  out->emplace_back("storage.ae_records", static_cast<double>(s.ae_records));
  out->emplace_back("storage.tier_promotions",
                    static_cast<double>(s.tier_promotions));
}

RunOutcome RunMonolithic(const BenchWorkload& w, int setup_reps,
                         SpanRecorder* spans) {
  TraceState trace_state;
  TraceState* trace = nullptr;
  std::int32_t root = SpanRecorder::kNoParent;
  if (spans != nullptr) {
    trace = &trace_state;
    trace->spans = spans;
    spans->Reserve(static_cast<std::size_t>(
        w.spec.arrival.rate_per_sec * w.spec.driver.duration.seconds() +
        1024));
    root = spans->Open(spans->Name("bench.run"), SpanRecorder::kNoParent);
  }

  RunOutcome out;
  std::vector<double> setup_s;
  std::optional<Stack> built;
  for (int rep = 0; rep < std::max(1, setup_reps); ++rep) {
    built.reset();
    const std::int64_t t0 = NowNs();
    built.emplace(Build(w, trace));
    const std::int64_t t1 = NowNs();
    setup_s.push_back(Seconds(t1 - t0));
    if (spans != nullptr) {
      spans->Add(spans->Name("bench.setup"), root, t0, t1, 0);
    }
  }
  out.setup_s = Median(setup_s);
  Stack& stack = *built;

  const std::int64_t w0 = NowNs();
  if (trace != nullptr) {
    trace->run_span = spans->Open(spans->Name("sim.run"), root);
  }
  out.sim_events = stack.sim->Run();
  const std::int64_t w1 = NowNs();
  if (trace != nullptr) {
    spans->Close(trace->run_span);
    stack.sim->SetClockObserver(SimTime(), nullptr);
  }
  const std::vector<InvocationSample>& samples = stack.driver->samples();
  out.report = ScoreSlo(samples, w.slo, w.spec.driver.duration,
                        w.spec.arrival.rate_per_sec);
  const std::int64_t w2 = NowNs();
  out.samples_digest = SamplesDigest(samples);
  const std::int64_t w3 = NowNs();
  out.window_s = Seconds(w3 - w0);

  const FaasPlatform& platform = *stack.platform;
  Books& b = out.books;
  b.driver_submitted = stack.driver->submitted();
  b.driver_rejected = stack.driver->rejected();
  b.platform_submitted = platform.submitted_invocations();
  b.platform_completed = platform.completed_invocations();
  b.platform_dropped = platform.dropped_invocations();
  b.platform_abandoned = platform.abandoned_invocations();
  b.retries = platform.total_retries();
  if (stack.tier != nullptr) {
    b.has_router = true;
    b.router_routes = stack.tier->routes();
  }
  if (platform.storage_layer() != nullptr) {
    b.has_storage = true;
    b.storage = platform.storage_layer()->stats();
  }
  if (trace == nullptr) {
    return out;
  }

  spans->Add(spans->Name("workload.score"), root, w1, w2, 0);
  spans->Add(spans->Name("workload.digest"), root, w2, w3, 0);
  MetricList& m = out.layers;
  m.emplace_back("workload.score_ms", Millis(static_cast<double>(w2 - w1)));
  m.emplace_back("workload.digest_ms", Millis(static_cast<double>(w3 - w2)));
  m.emplace_back("workload.retained_sample_bytes",
                 static_cast<double>(samples.capacity() *
                                     sizeof(InvocationSample)));

  const double submitted = static_cast<double>(b.driver_submitted);
  m.emplace_back("sim.events", static_cast<double>(out.sim_events));
  m.emplace_back("sim.events_per_inv",
                 submitted > 0 ? static_cast<double>(out.sim_events) /
                                     submitted
                               : 0.0);
  m.emplace_back("sim.run_s",
                 Seconds(spans->at(trace->run_span).duration_ns()));
  m.emplace_back("sim.run_self_s", Seconds(spans->SelfNs(trace->run_span)));
  m.emplace_back("sim.heap_depth_max",
                 static_cast<double>(trace->heap_depth_max));
  AppendAbsent({"sim.sharded.epochs", "sim.sharded.events_per_epoch",
                "sim.sharded.barrier_wait_share",
                "sim.sharded.lookahead_utilization"},
               &m);

  m.emplace_back("core.routing_imbalance",
                 platform.load_balancer().RoutingImbalance());

  const std::vector<double> invoke_ns = spans->DurationsOf(trace->invoke_name);
  const bool routed = stack.tier != nullptr;
  m.emplace_back("faas.invoke_ns.p50",
                 routed ? 0.0 : QuantileOf(invoke_ns, 0.5));
  m.emplace_back("faas.invoke_ns.p99",
                 routed ? 0.0 : QuantileOf(invoke_ns, 0.99));
  m.emplace_back("faas.cold_starts",
                 static_cast<double>(platform.total_cold_starts()));
  m.emplace_back("faas.pulls", static_cast<double>(platform.total_pulls()));
  m.emplace_back("faas.steals", static_cast<double>(platform.total_steals()));
  m.emplace_back("faas.steal_bytes",
                 static_cast<double>(platform.total_steal_bytes()));
  m.emplace_back("faas.pending_depth_max",
                 static_cast<double>(trace->pending_depth_max));
  AppendPhaseQuantiles(trace->metrics, &m);

  const FaastCache& cache = stack.platform->cache();
  m.emplace_back("cache.local_hits", static_cast<double>(cache.local_hits()));
  m.emplace_back("cache.remote_hits",
                 static_cast<double>(cache.remote_hits()));
  m.emplace_back("cache.misses", static_cast<double>(cache.misses()));
  m.emplace_back("cache.evictions",
                 static_cast<double>(cache.total_evictions()));

  AppendStorage(b.storage, &m);

  m.emplace_back("router.invoke_ns.p50",
                 routed ? QuantileOf(invoke_ns, 0.5) : 0.0);
  m.emplace_back("router.invoke_ns.p99",
                 routed ? QuantileOf(invoke_ns, 0.99) : 0.0);
  m.emplace_back("router.routes", static_cast<double>(b.router_routes));
  m.emplace_back("router.misroutes",
                 routed ? static_cast<double>(stack.tier->misroutes()) : 0.0);

  m.emplace_back("planner.rounds",
                 static_cast<double>(platform.planner_rounds()));
  if (stack.traced_planner != nullptr) {
    const TracedPlanner& p = *stack.traced_planner;
    const std::vector<double> solve = spans->DurationsOf(p.solve_name());
    const std::vector<double> collect = spans->DurationsOf(p.collect_name());
    m.emplace_back("planner.collect_ms.p50", Millis(QuantileOf(collect, 0.5)));
    m.emplace_back("planner.solve_ms.p50", Millis(QuantileOf(solve, 0.5)));
    m.emplace_back("planner.solve_ms.p90", Millis(QuantileOf(solve, 0.9)));
    const std::vector<double> apply = spans->DurationsOf(p.apply_name());
    m.emplace_back("planner.apply_ms.p50", Millis(QuantileOf(apply, 0.5)));
  } else {
    AppendAbsent({"planner.collect_ms.p50", "planner.solve_ms.p50",
                  "planner.solve_ms.p90", "planner.apply_ms.p50"},
                 &m);
  }
  m.emplace_back("planner.moves",
                 static_cast<double>(platform.load_balancer().planner_moves()));
  m.emplace_back("planner.moved_bytes",
                 static_cast<double>(platform.planner_moved_bytes()));

  built.reset();
  ReplayLayers(w, spans, root, &m);
  spans->Close(root);
  return out;
}

RunOutcome RunSharded(const BenchWorkload& w, int setup_reps,
                      SpanRecorder* spans) {
  std::int32_t root = SpanRecorder::kNoParent;
  if (spans != nullptr) {
    root = spans->Open(spans->Name("bench.run"), SpanRecorder::kNoParent);
  }
  ShardedWorkloadConfig config = w.sharded_config;
  if (spans != nullptr) {
    // The engine profiler, and a merged metrics registry standing in for
    // the per-group platforms the call does not expose. Both leave the
    // digests unchanged.
    config.profile = true;
    config.obs.sample_every = kShardedSampleEvery;
  }

  // RunShardedWorkload builds and runs in one call. Set-up is timed as the
  // same call on a zero-length horizon: the full topology is built, no
  // arrival is due, and the engine drains at once. It runs on one shard,
  // so the shard threads' start-up and first barrier, which count in the
  // measured window, stay out of set-up.
  WorkloadSpec empty = w.spec;
  empty.driver.duration = SimTime();
  ShardedWorkloadConfig setup_config = config;
  setup_config.shards = 1;
  std::vector<double> setup_s;
  for (int rep = 0; rep < std::max(1, setup_reps); ++rep) {
    const std::int64_t t0 = NowNs();
    RunShardedWorkload(empty, w.policy, w.workers, setup_config, w.slo,
                       w.platform);
    const std::int64_t t1 = NowNs();
    setup_s.push_back(Seconds(t1 - t0));
    if (spans != nullptr) {
      spans->Add(spans->Name("bench.setup"), root, t0, t1, 0);
    }
  }

  RunOutcome out;
  out.setup_s = Median(setup_s);
  const std::int64_t t0 = NowNs();
  const ShardedRunResult r =
      RunShardedWorkload(w.spec, w.policy, w.workers, config, w.slo,
                         w.platform);
  const std::int64_t t1 = NowNs();
  out.window_s = Seconds(t1 - t0) - out.setup_s;
  out.report = r.report;
  out.samples_digest = r.samples_digest;
  out.sim_events = r.sim_events;
  Books& b = out.books;
  b.driver_submitted = r.driver_submitted;
  b.driver_rejected = r.group_rejections;
  b.platform_submitted = r.group_submitted;
  b.platform_completed = r.group_completed;
  b.platform_dropped = r.group_dropped;
  b.platform_abandoned = r.group_abandoned;
  b.retries = r.retries;
  b.has_sharded_books = true;
  b.sharded_books_close = r.books_close;
  b.storage = r.storage;
  b.has_storage = w.platform.storage.enabled();
  if (spans == nullptr) {
    return out;
  }

  spans->Add(spans->Name("sim.run_sharded"), root, t0, t1, 0);
  MetricList& m = out.layers;
  // RunShardedWorkload scores its samples internally and exposes neither
  // them nor its platforms: scoring, heap depth and invoke wrappers are not
  // measurable here, and platform-side figures come from the merged
  // registry.
  AppendAbsent({"workload.score_ms", "workload.digest_ms",
                "workload.retained_sample_bytes"},
               &m);
  const double submitted = static_cast<double>(r.driver_submitted);
  m.emplace_back("sim.events", static_cast<double>(r.sim_events));
  m.emplace_back("sim.events_per_inv",
                 submitted > 0 ? static_cast<double>(r.sim_events) / submitted
                               : 0.0);
  m.emplace_back("sim.run_s", r.wall_seconds);
  m.emplace_back("sim.run_self_s", r.wall_seconds);
  AppendAbsent({"sim.heap_depth_max"}, &m);

  const EngineProfile& p = r.profile;
  std::uint64_t shard_epochs = 0;
  std::uint64_t busy_epochs = 0;
  std::uint64_t barrier_ns = 0;
  std::uint64_t phase_ns = 0;
  for (const ShardProfile& s : p.per_shard) {
    shard_epochs += s.epochs;
    busy_epochs += s.busy_epochs;
    barrier_ns += s.barrier_wait_ns;
    phase_ns += s.barrier_wait_ns + s.drain_ns + s.execute_ns;
  }
  m.emplace_back("sim.sharded.epochs", static_cast<double>(p.epochs));
  m.emplace_back("sim.sharded.events_per_epoch",
                 p.epochs > 0 ? static_cast<double>(p.events) /
                                    static_cast<double>(p.epochs)
                              : 0.0);
  m.emplace_back("sim.sharded.barrier_wait_share",
                 phase_ns > 0 ? static_cast<double>(barrier_ns) /
                                    static_cast<double>(phase_ns)
                              : 0.0);
  m.emplace_back("sim.sharded.lookahead_utilization",
                 shard_epochs > 0 ? static_cast<double>(busy_epochs) /
                                        static_cast<double>(shard_epochs)
                                  : 0.0);

  MetricsRegistry& metrics = *r.telemetry.metrics;
  AppendAbsent({"core.routing_imbalance", "faas.invoke_ns.p50",
                "faas.invoke_ns.p99"},
               &m);
  m.emplace_back("faas.cold_starts", static_cast<double>(r.cold_starts));
  m.emplace_back("faas.pulls", static_cast<double>(r.pulls));
  m.emplace_back("faas.steals", static_cast<double>(r.steals));
  m.emplace_back("faas.steal_bytes", static_cast<double>(r.steal_bytes));
  AppendAbsent({"faas.pending_depth_max"}, &m);
  AppendPhaseQuantiles(metrics, &m);
  for (const char* name : {"cache.local_hits", "cache.remote_hits",
                           "cache.misses", "cache.evictions"}) {
    m.emplace_back(name, static_cast<double>(metrics.counter(name).value()));
  }
  AppendStorage(r.storage, &m);
  AppendAbsent({"router.invoke_ns.p50", "router.invoke_ns.p99"}, &m);
  b.has_router = true;
  b.router_routes = metrics.counter("router.routes").value();
  m.emplace_back("router.routes", static_cast<double>(b.router_routes));
  m.emplace_back("router.misroutes", static_cast<double>(
                                         metrics.counter("router.misroutes")
                                             .value()));
  m.emplace_back("planner.rounds", static_cast<double>(r.planner_rounds));
  AppendAbsent({"planner.collect_ms.p50", "planner.solve_ms.p50",
                "planner.solve_ms.p90", "planner.apply_ms.p50"},
               &m);
  m.emplace_back("planner.moves", static_cast<double>(r.planner_moves));
  m.emplace_back("planner.moved_bytes",
                 static_cast<double>(r.planner_moved_bytes));

  ReplayLayers(w, spans, root, &m);
  spans->Close(root);
  return out;
}

}  // namespace

RunOutcome RunBenchWorkload(const BenchWorkload& w, int setup_reps,
                            SpanRecorder* spans) {
  return w.sharded ? RunSharded(w, setup_reps, spans)
                   : RunMonolithic(w, setup_reps, spans);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace palette::perfbench
