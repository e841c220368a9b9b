#include "harness/workloads.h"

#include <algorithm>
#include <thread>

#include "src/common/rng.h"

namespace palette::perfbench {
namespace {

// The read-only Zipf mix both 64-worker workloads share: 5000 colors at
// theta 0.9, no churn, no writes.
MixConfig ReadMix() {
  MixConfig mix;
  mix.color_count = 5000;
  mix.zipf_theta = 0.9;
  return mix;
}

void Finish(double horizon_s, double scale, BenchWorkload* w) {
  w->spec.driver.duration = SimTime::FromSeconds(horizon_s * scale);
  w->slo.warmup = SimTime::FromSeconds(10 * scale);
}

}  // namespace

StreamSeeds DeriveStreamSeeds(std::uint64_t seed) {
  Rng seeder(seed);
  StreamSeeds seeds;
  seeds.arrival = seeder.Next();
  seeds.driver = seeder.Next();
  return seeds;
}

bool MakeWorkload(std::string_view name, std::uint64_t seed, double scale,
                  BenchWorkload* out) {
  BenchWorkload w;
  w.name = std::string(name);
  w.spec.seed = seed;
  w.platform = DefaultWorkloadPlatformConfig();
  w.tier.routers = 0;
  if (name == "read_steady") {
    // Per-invocation path only: push dispatch, no routers, storage,
    // planner or epoch engine. 600 s at 1500 rps is ~900k invocations, so
    // the retained samples dominate peak RSS.
    w.spec.arrival.kind = ArrivalKind::kPoisson;
    w.spec.arrival.rate_per_sec = 1500;
    w.spec.mix = ReadMix();
    w.workers = 64;
    Finish(600, scale, &w);
  } else if (name == "all_features") {
    // Every optional layer at once on a small cluster. Short MMPP dwell
    // times give ~240 bursts per run, so burst-driven tails settle across
    // seeds while each burst still builds pending queues.
    w.spec.arrival.kind = ArrivalKind::kMmpp;
    w.spec.arrival.rate_per_sec = 250;
    w.spec.arrival.mean_on_seconds = 0.2;
    w.spec.arrival.mean_off_seconds = 0.8;
    w.spec.mix.color_count = 512;
    w.spec.mix.zipf_theta = 0.9;
    w.spec.mix.churn_interval = SimTime::FromSeconds(10);
    w.spec.mix.churn_step = w.spec.mix.color_count / 8;
    w.spec.mix.write_fraction = 0.2;
    w.workers = 16;
    w.platform.dispatch_mode = FaasDispatchMode::kHybrid;
    w.platform.storage.mode = CoherenceMode::kWriteBack;
    w.platform.storage.tiers.two_tier = true;
    w.tier.routers = 4;
    w.tier.dispatch = DispatchMode::kSpray;
    w.planner.plan_every = SimTime::FromSeconds(2);
    w.planner.seed = seed;
    Finish(244, scale, &w);
  } else if (name == "sharded_groups") {
    // The read_steady mix on the epoch engine: 4 groups x 2 routers.
    w.spec.arrival.kind = ArrivalKind::kDiurnal;
    w.spec.arrival.rate_per_sec = 1500;
    w.spec.mix = ReadMix();
    w.workers = 64;
    w.sharded = true;
    w.sharded_config.groups = 4;
    w.sharded_config.routers_per_group = 2;
    w.sharded_config.shards = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    Finish(120, scale, &w);
  } else {
    return false;
  }
  *out = w;
  return true;
}

}  // namespace palette::perfbench
