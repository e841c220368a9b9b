#include "src/workload/fault_schedule.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/faas/platform.h"
#include "src/router/router_tier.h"
#include "src/sim/simulator.h"

namespace palette {

std::string_view FaultKindId(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRemove:
      return "remove";
    case FaultKind::kRestart:
      return "restart";
    case FaultKind::kRouterCrash:
      return "router_crash";
    case FaultKind::kRouterRestart:
      return "router_restart";
  }
  return "unknown";
}

FaultSchedule FaultSchedule::FromMtbf(const MtbfConfig& config,
                                      const std::vector<std::string>& workers,
                                      std::uint64_t seed) {
  FaultSchedule schedule;
  if (workers.empty() || config.mtbf <= SimTime()) {
    return schedule;
  }
  Rng rng(seed);
  // Per-worker rejoin time; a worker with no pending restart is up.
  std::vector<SimTime> down_until(workers.size());
  std::vector<bool> gone(workers.size(), false);  // removed forever
  std::vector<std::size_t> up;
  up.reserve(workers.size());
  SimTime t = config.start;
  while (true) {
    // Poisson failure arrivals: exponential gaps with mean mtbf.
    const double gap_s =
        -std::log(1.0 - rng.NextDouble()) * config.mtbf.seconds();
    t = t + SimTime::FromSeconds(gap_s);
    if (!(t < config.end)) {
      break;
    }
    up.clear();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (!gone[i] && down_until[i] <= t) {
        up.push_back(i);
      }
    }
    if (up.empty()) {
      continue;  // everyone is down right now; this failure hits nothing
    }
    const std::size_t victim = up[rng.NextBelow(up.size())];
    schedule.Add(FaultEvent{
        t, config.crash ? FaultKind::kCrash : FaultKind::kRemove,
        workers[victim]});
    if (config.mttr > SimTime()) {
      down_until[victim] = t + config.mttr;
      schedule.Add(
          FaultEvent{down_until[victim], FaultKind::kRestart, workers[victim]});
    } else {
      gone[victim] = true;
    }
  }
  // Restarts are appended out of order; present the schedule sorted by
  // time (stable, so a crash at time T precedes a restart at the same T —
  // it was generated first).
  std::stable_sort(schedule.events_.begin(), schedule.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return schedule;
}

void FaultSchedule::InstallOn(Simulator* sim, FaasPlatform* platform,
                              RouterTier* tier) const {
  for (const FaultEvent& event : events_) {
    const FaultKind kind = event.kind;
    // Worker name captured by value (a const capture would block the
    // closure's nothrow move, which the event heap requires).
    sim->At(event.at, [platform, tier, kind, worker = event.worker]() {
      switch (kind) {
        case FaultKind::kCrash:
          platform->CrashWorker(worker);
          break;
        case FaultKind::kRemove:
          platform->RemoveWorker(worker);
          break;
        case FaultKind::kRestart:
          platform->AddWorker(worker);
          break;
        case FaultKind::kRouterCrash:
          if (tier != nullptr) {
            tier->CrashRouter(worker);
          }
          break;
        case FaultKind::kRouterRestart:
          if (tier != nullptr) {
            tier->RestartRouter(worker);
          }
          break;
      }
    });
  }
}

std::size_t FaultSchedule::CountOf(FaultKind kind) const {
  std::size_t count = 0;
  for (const FaultEvent& event : events_) {
    count += event.kind == kind ? 1 : 0;
  }
  return count;
}

}  // namespace palette
