#include "src/workload/driver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace palette {

OpenLoopDriver::OpenLoopDriver(FaasPlatform* platform,
                               std::unique_ptr<ArrivalProcess> arrivals,
                               InvocationMix mix, DriverConfig config,
                               std::uint64_t seed)
    : platform_(platform),
      sim_(&platform->simulator()),
      invoke_([platform](InvocationSpec spec,
                         FaasPlatform::CompletionCallback on_complete) {
        return platform->Invoke(std::move(spec), std::move(on_complete));
      }),
      arrivals_(std::move(arrivals)),
      mix_(std::move(mix)),
      config_(config),
      rng_(seed) {}

OpenLoopDriver::OpenLoopDriver(Simulator* sim,
                               std::unique_ptr<ArrivalProcess> arrivals,
                               InvocationMix mix, DriverConfig config,
                               std::uint64_t seed)
    : platform_(nullptr),
      sim_(sim),
      arrivals_(std::move(arrivals)),
      mix_(std::move(mix)),
      config_(config),
      rng_(seed) {}

void OpenLoopDriver::Start() {
  // Reserve the offered count plus six standard deviations of a Poisson
  // count over the run, so arrival recording does not reallocate mid-run.
  // The mean alone is exceeded on about half of all seeds, and the vector
  // would then double (samples_ may still grow past this reserve).
  const double expected =
      arrivals_->rate_per_sec() * config_.duration.seconds();
  const double headroom = std::ceil(6.0 * std::sqrt(expected));
  samples_.reserve(std::min<std::uint64_t>(
      config_.max_invocations,
      static_cast<std::uint64_t>(expected) +
          static_cast<std::uint64_t>(headroom) + 16));
  ScheduleNext();
}

void OpenLoopDriver::ScheduleNext() {
  if (exhausted_) {
    return;
  }
  next_arrival_ = arrivals_->Next();
  if (next_arrival_ >= config_.duration ||
      samples_.size() >= config_.max_invocations) {
    exhausted_ = true;
    return;
  }
  // Captures only `this`: stays inside the simulator's inline event buffer.
  sim_->At(next_arrival_, [this]() { Fire(); });
}

void OpenLoopDriver::Fire() {
  assert(invoke_ && "platform-less driver needs set_invoker before Start");
  MixedInvocation mixed = mix_.Sample(sim_->Now(), rng_);
  const std::uint32_t index = static_cast<std::uint32_t>(samples_.size());
  InvocationSample sample;
  sample.intended_start = sim_->Now();
  sample.color_id = mixed.color_id;
  sample.function_index = mixed.function_index;
  samples_.push_back(sample);
  ++submitted_;

  const auto id = invoke_(
      std::move(mixed.spec), [this, index](const InvocationResult& result) {
        InvocationSample& s = samples_[index];
        s.completed = result.completed;
        s.status = SampleStatus::kCompleted;
        s.local_hits = static_cast<std::uint16_t>(result.local_hits);
        s.remote_hits = static_cast<std::uint16_t>(result.remote_hits);
        s.misses = static_cast<std::uint16_t>(result.misses);
        ++completed_;
      });
  if (!id.has_value()) {
    samples_[index].status = SampleStatus::kRejected;
    ++rejected_;
  }
  // Open loop: the next arrival is scheduled now, from the arrival process
  // alone — never gated on the completion above.
  ScheduleNext();
}

}  // namespace palette
