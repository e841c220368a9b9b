// Open-loop workload driver (docs/WORKLOADS.md).
//
// Schedules arrivals on the Simulator clock *independently of completions*:
// the next invocation fires at its intended time whether or not earlier
// ones have finished, so queueing delay under overload lands in the
// measured latency instead of silently stretching the arrival stream.
// That is the coordinated-omission fix: a closed loop (invoke, wait,
// repeat) can only observe latencies the system chooses to serve, and its
// arrival rate collapses to the completion rate exactly when the system
// saturates — hiding the tail the SLO cares about. Every sample records
// intended-start -> completion, including time spent waiting behind a
// backlog the platform accumulated.
//
// The driver is deterministic: one Rng stream (seeded at construction)
// drives the mix draws in arrival order, and the arrival process owns its
// own stream, so a (spec, seed) pair reproduces the identical sample set
// bit for bit.
#ifndef PALETTE_SRC_WORKLOAD_DRIVER_H_
#define PALETTE_SRC_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/faas/platform.h"
#include "src/workload/arrival.h"
#include "src/workload/mix.h"

namespace palette {

struct DriverConfig {
  // Arrivals are generated for [0, duration); completions beyond the
  // horizon are still recorded (the platform drains).
  SimTime duration = SimTime::FromSeconds(20);
  // Runaway guard for overload sweeps.
  std::uint64_t max_invocations = 2'000'000;
};

enum class SampleStatus : std::uint8_t {
  kPending = 0,    // submitted, never completed (dropped in-flight)
  kCompleted = 1,
  kRejected = 2,   // Invoke() refused (no workers available)
};

struct InvocationSample {
  SimTime intended_start;
  SimTime completed;  // zero unless status == kCompleted
  std::uint32_t color_id = 0;
  std::uint16_t function_index = 0;
  SampleStatus status = SampleStatus::kPending;
  std::uint16_t local_hits = 0;
  std::uint16_t remote_hits = 0;
  std::uint16_t misses = 0;

  SimTime latency() const { return completed - intended_start; }
};

// A replay driver's share of one arrival stream (sharded runs,
// src/workload/sharded_run.h). Every slice walks the whole stream with the
// same seeds and submits only the arrivals it owns, so the slices of one
// stream partition it exactly.
struct ArrivalSlice {
  // Whether this slice submits arrivals of `color_id`.
  std::function<bool(std::uint32_t color_id)> owns;
  // Submission lag after each arrival (the fabric hop to the slice's
  // group). The lag counts toward the arrival's measured latency.
  SimTime delay;
  // The sample book shared by every slice of the stream, sized with
  // OpenLoopDriver::CountArrivals. A slice writes only the indices it owns.
  std::vector<InvocationSample>* book = nullptr;
};

class OpenLoopDriver {
 public:
  // `platform` must outlive the driver; the driver uses the platform's
  // simulator for scheduling. `seed` feeds the mix draws (the arrival
  // process was seeded at its own construction).
  OpenLoopDriver(FaasPlatform* platform,
                 std::unique_ptr<ArrivalProcess> arrivals, InvocationMix mix,
                 DriverConfig config, std::uint64_t seed);

  // Replay variant for sharded runs: the driver schedules on `sim`,
  // submits only `slice`'s arrivals, and records them into `slice.book`
  // instead of samples(). It has no default submission target: the caller
  // MUST set_invoker before Start. `mix` may be shared between slices.
  OpenLoopDriver(Simulator* sim, std::unique_ptr<ArrivalProcess> arrivals,
                 std::shared_ptr<const InvocationMix> mix,
                 DriverConfig config, std::uint64_t seed, ArrivalSlice slice);

  // The number of arrivals `arrivals` yields before the driver's stop rule
  // (duration, then max_invocations) ends the stream: the exact size of a
  // replay book.
  static std::uint64_t CountArrivals(ArrivalProcess& arrivals,
                                     const DriverConfig& config);

  // Schedules the first arrival; the caller then runs the simulator
  // (sim.Run() drives arrivals and completions to drain).
  void Start();

  // Submission hook: where Fire() sends each invocation. Defaults to
  // FaasPlatform::Invoke on the constructor's platform; a routing tier
  // replaces it (RouterTier::Invoke) so traffic flows through the tier
  // while the driver keeps using the platform's simulator and accounting.
  using InvokeFn = std::function<std::optional<std::uint64_t>(
      InvocationSpec spec, FaasPlatform::CompletionCallback on_complete)>;
  void set_invoker(InvokeFn invoke) { invoke_ = std::move(invoke); }

  // Empty for a replay driver, whose samples live in its slice's book.
  const std::vector<InvocationSample>& samples() const { return samples_; }
  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t rejected() const { return rejected_; }
  const DriverConfig& config() const { return config_; }
  const InvocationMix& mix() const { return *mix_; }
  double offered_rate_per_sec() const {
    return arrivals_->rate_per_sec();
  }

 private:
  // Draws arrivals until the next one this driver submits and schedules
  // it, or marks the stream exhausted.
  void ScheduleNext();
  void Fire();
  std::vector<InvocationSample>& book() {
    return slice_.book != nullptr ? *slice_.book : samples_;
  }

  Simulator* sim_;
  InvokeFn invoke_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::shared_ptr<const InvocationMix> mix_;
  DriverConfig config_;
  Rng rng_;
  ArrivalSlice slice_;
  std::vector<InvocationSample> samples_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  // Arrivals drawn so far; the next one's stream index.
  std::uint64_t drawn_ = 0;
  // The arrival scheduled to fire next.
  SimTime next_arrival_;
  std::uint64_t next_index_ = 0;
  MixedInvocation next_;
  bool exhausted_ = false;
};

}  // namespace palette

#endif  // PALETTE_SRC_WORKLOAD_DRIVER_H_
