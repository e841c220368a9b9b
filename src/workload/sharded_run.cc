#include "src/workload/sharded_run.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/common/thread_pool.h"
#include "src/hash/hash.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/mix.h"

namespace palette {

namespace {

// Front door -> group fabric hop, charged to dispatch: it is part of every
// sample's measured latency.
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
  std::uint64_t rejections = 0;
};

std::uint64_t WallNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Everything a group exports into its registry: the platform, the tier and
// the group's driver books.
void ExportGroupMetrics(const Group& group, bool per_worker) {
  MetricsRegistry* m = group.metrics.get();
  group.platform->ExportMetrics(m, std::string(), per_worker);
  if (group.tier != nullptr) {
    group.tier->ExportMetrics(m);
  }
  m->counter("driver.submitted").Set(group.driver->submitted());
  m->counter("driver.completed").Set(group.driver->completed());
  m->counter("driver.rejected").Set(group.driver->rejected());
}

}  // namespace

ShardedRunResult RunShardedWorkload(
    const WorkloadSpec& spec, PolicyKind policy, int total_workers,
    const ShardedWorkloadConfig& config, const SloConfig& slo,
    const PlatformConfig& platform_config,
    const std::vector<ShardedFault>* faults) {
  const int groups = std::max(1, config.groups);

  // Independent sub-streams per component, all derived from the one
  // experiment seed (same scheme as RunWorkload) plus one per group.
  Rng seeder(spec.seed);
  const std::uint64_t arrival_seed = seeder.Next();
  const std::uint64_t driver_seed = seeder.Next();

  // The sample book covers the whole arrival stream; each group writes the
  // indices it owns.
  std::vector<InvocationSample> book(OpenLoopDriver::CountArrivals(
      *MakeArrivalProcess(spec.arrival, arrival_seed), spec.driver));
  const auto mix = std::make_shared<const InvocationMix>(spec.mix);

  std::vector<Group> group_runs(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    Group& group = group_runs[static_cast<std::size_t>(g)];
    const std::uint64_t group_seed = seeder.Next();
    group.platform = std::make_unique<FaasPlatform>(&group.sim, policy,
                                                    group_seed,
                                                    platform_config);
    group.platform->set_worker_prefix(StrFormat("g%dw", g));
    // Even split; the first (total % groups) groups absorb the remainder.
    const int group_workers =
        total_workers / groups + (g < total_workers % groups ? 1 : 0);
    group.platform->AddWorkers(group_workers);
    if (config.routers_per_group > 0) {
      RouterTierConfig tier_config;
      tier_config.routers = config.routers_per_group;
      tier_config.dispatch = config.group_dispatch;
      tier_config.sync_lag = config.group_sync_lag;
      tier_config.policy = policy;
      tier_config.seed = group_seed;
      group.tier =
          std::make_unique<RouterTier>(group.platform.get(), tier_config);
    }
    if (config.planner.enabled()) {
      group.planner = std::make_unique<PlannerRuntime>(group.platform.get(),
                                                       config.planner);
      group.planner->Start(spec.driver.duration);
    }
    if (faults != nullptr) {
      FaultSchedule schedule;
      for (const ShardedFault& fault : *faults) {
        if (fault.group == g) {
          schedule.Add(fault.event);
        }
      }
      schedule.InstallOn(&group.sim, group.platform.get(), group.tier.get());
    }

    // The group's slice of the front door: consistent color->group
    // partition, so every invocation of a color meets the same group.
    ArrivalSlice slice;
    slice.owns = [g, groups](std::uint32_t color_id) {
      return JumpConsistentHash(Fnv1a64(InvocationMix::ColorName(color_id)),
                                static_cast<std::uint32_t>(groups)) ==
             static_cast<std::uint32_t>(g);
    };
    slice.delay = kFabricHop;
    slice.book = &book;
    group.driver = std::make_unique<OpenLoopDriver>(
        &group.sim, MakeArrivalProcess(spec.arrival, arrival_seed), mix,
        spec.driver, driver_seed, std::move(slice));
    group.driver->set_invoker(
        [&group](InvocationSpec invocation,
                 FaasPlatform::CompletionCallback cb)
            -> std::optional<std::uint64_t> {
          const std::optional<std::uint64_t> id =
              group.tier != nullptr
                  ? group.tier->Invoke(std::move(invocation), std::move(cb))
                  : group.platform->Invoke(std::move(invocation),
                                           std::move(cb));
          if (!id.has_value()) {
            // Rejected at the group; the sample stays pending and scores
            // as a drop.
            ++group.rejections;
          }
          // The fabric accepts unconditionally; group-side rejections are
          // booked above.
          return id.value_or(0);
        });

    if (config.obs.enabled()) {
      TimeSeriesConfig ts_config;
      ts_config.interval = config.obs.sample_every;
      ts_config.ring_capacity = config.obs.ring_capacity;
      group.metrics = std::make_shared<MetricsRegistry>();
      group.series = std::make_shared<TimeSeriesSampler>(ts_config);
      group.series->set_source(group.metrics.get());
      group.series->set_refresh(
          [&group] { ExportGroupMetrics(group, /*per_worker=*/false); });
      group.platform->set_metrics(group.metrics.get());
      group.sim.SetClockObserver(
          config.obs.sample_every,
          [sampler = group.series.get()](SimTime mark) {
            sampler->Sample(mark);
          });
    }
    group.driver->Start();
  }

  // Each group runs start to finish on whichever thread claims it next.
  const int threads = std::clamp(config.shards, 1, groups);
  const bool profiling = config.profile;
  std::vector<ShardProfile> per_thread(static_cast<std::size_t>(threads));
  std::vector<std::uint64_t> finished_ns(static_cast<std::size_t>(threads));
  std::atomic<int> next_group{0};
  const std::uint64_t run_start = WallNanos();
  ParallelFor(static_cast<std::size_t>(threads),
              static_cast<std::size_t>(threads), [&](std::size_t t) {
                ShardProfile& prof = per_thread[t];
                for (int g = next_group.fetch_add(1); g < groups;
                     g = next_group.fetch_add(1)) {
                  const std::uint64_t start = profiling ? WallNanos() : 0;
                  const std::uint64_t events =
                      group_runs[static_cast<std::size_t>(g)].sim.Run();
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

  ShardedRunResult result;
  if (config.obs.enabled()) {
    // Close the books on the run's own (shard-count-invariant) clocks: the
    // common horizon is the latest group clock or the nominal duration, so
    // every group's mark set is aligned before the window-by-window fold.
    SimTime horizon = spec.driver.duration;
    for (const Group& group : group_runs) {
      horizon = std::max(horizon, group.sim.Now());
    }
    result.telemetry.metrics = std::make_shared<MetricsRegistry>();
    result.telemetry.series = group_runs.front().series;
    for (Group& group : group_runs) {
      group.sim.FlushObserverUpTo(horizon);
      group.sim.SetClockObserver(SimTime(), nullptr);
      group.series->set_refresh(nullptr);
      ExportGroupMetrics(group, /*per_worker=*/true);
      result.telemetry.metrics->MergeFrom(*group.metrics);
      if (&group != &group_runs.front()) {
        result.telemetry.series->MergeFrom(*group.series);
      }
    }
    if (!config.obs.alert_rules.empty()) {
      result.telemetry.alerts =
          std::make_shared<AlertEngine>(config.obs.alert_rules);
      result.telemetry.alerts->Run(*result.telemetry.series);
    }
  }
  result.report = ScoreSlo(book, slo, spec.driver.duration,
                           spec.arrival.rate_per_sec);
  result.samples_digest = SamplesDigest(book);
  result.wall_seconds = static_cast<double>(joined - run_start) / 1e9;
  result.engine_digest = 14695981039346656037ull;  // FNV-1a fold
  for (const Group& group : group_runs) {
    result.engine_digest =
        (result.engine_digest ^ group.sim.event_digest()) * 1099511628211ull;
    result.sim_events += group.sim.executed_events();
    result.driver_submitted += group.driver->submitted();
    result.driver_completed += group.driver->completed();
    const FaasPlatform& platform = *group.platform;
    result.group_submitted += platform.submitted_invocations();
    result.group_completed += platform.completed_invocations();
    result.group_dropped += platform.dropped_invocations();
    result.group_abandoned += platform.abandoned_invocations();
    result.group_rejections += group.rejections;
    result.cold_starts += platform.total_cold_starts();
    result.retries += platform.total_retries();
    result.pulls += platform.total_pulls();
    result.steals += platform.total_steals();
    result.steal_bytes += platform.total_steal_bytes();
    result.planner_rounds += platform.planner_rounds();
    result.planner_moves += platform.load_balancer().planner_moves();
    result.planner_splits += platform.load_balancer().planner_splits();
    result.planner_merges += platform.load_balancer().planner_merges();
    result.planner_moved_bytes += platform.planner_moved_bytes();
    if (platform.storage_layer() != nullptr) {
      result.storage.Accumulate(platform.storage_layer()->stats());
    }
  }
  result.books_close =
      result.driver_submitted ==
          result.group_submitted + result.group_rejections &&
      result.group_submitted == result.group_completed +
                                    result.group_dropped +
                                    result.group_abandoned;

  EngineProfile& profile = result.profile;
  profile.groups = groups;
  profile.shards = threads;
  profile.epochs = static_cast<std::uint64_t>(groups);
  profile.events = result.sim_events;
  if (profiling) {
    per_thread.front().drain_ns = WallNanos() - joined;
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
      per_thread[t].barrier_wait_ns = joined - finished_ns[t];
    }
  }
  profile.per_shard = std::move(per_thread);
  return result;
}

}  // namespace palette
