// Deterministic fault injection for workload runs (docs/FAULTS.md).
//
// A FaultSchedule is a fixed list of (time, kind, worker) events — crash,
// graceful remove, or restart — installed onto a simulator before the run
// starts. Schedules are either written out explicitly (tests pin exact
// scenarios) or generated from an MTBF model with a seeded Rng, so a given
// (config, seed) always yields the same churn and runs stay
// bit-reproducible. This is the harness behind bench/ext_fault_sweep:
// identical churn applied to every policy makes goodput and tail-latency
// deltas attributable to the policy alone.
#ifndef PALETTE_SRC_WORKLOAD_FAULT_SCHEDULE_H_
#define PALETTE_SRC_WORKLOAD_FAULT_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace palette {

class FaasPlatform;
class RouterTier;
class Simulator;

enum class FaultKind {
  kCrash,    // FaasPlatform::CrashWorker: running attempt dies too
  kRemove,   // FaasPlatform::RemoveWorker: graceful drain
  kRestart,  // FaasPlatform::AddWorker: the worker rejoins, cold
  // Routing-tier faults: `worker` names a router replica ("r2"). Ignored
  // when the run has no RouterTier installed.
  kRouterCrash,    // RouterTier::CrashRouter: replica leaves dispatch
  kRouterRestart,  // RouterTier::RestartRouter: replica resyncs + rejoins
};

std::string_view FaultKindId(FaultKind kind);

struct FaultEvent {
  SimTime at;
  FaultKind kind = FaultKind::kCrash;
  std::string worker;
};

// MTBF-driven generation: failures arrive as a Poisson process with mean
// gap `mtbf`, each hitting a uniformly-chosen currently-up worker; the
// victim rejoins `mttr` later (zero mttr = never).
struct MtbfConfig {
  SimTime mtbf = SimTime::FromSeconds(10);
  SimTime mttr = SimTime::FromSeconds(2);
  // Failures are generated in [start, end).
  SimTime start;
  SimTime end = SimTime::FromSeconds(20);
  // Crash (default) or graceful remove.
  bool crash = true;
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  void Add(FaultEvent event) { events_.push_back(std::move(event)); }

  // Deterministic: same (config, workers, seed) -> same schedule.
  static FaultSchedule FromMtbf(const MtbfConfig& config,
                                const std::vector<std::string>& workers,
                                std::uint64_t seed);

  // Schedules every event on `sim` against `platform`, and the
  // kRouterCrash/kRouterRestart events against `tier` (skipped when `tier`
  // is null). All must outlive the run; call before Simulator::Run.
  void InstallOn(Simulator* sim, FaasPlatform* platform,
                 RouterTier* tier) const;

  const std::vector<FaultEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  // Event counts by kind (bench reporting).
  std::size_t CountOf(FaultKind kind) const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace palette

#endif  // PALETTE_SRC_WORKLOAD_FAULT_SCHEDULE_H_
