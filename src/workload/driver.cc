#include "src/workload/driver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace palette {

namespace {

// The stop rule: the arrival at stream index `index`, due at `at`, is
// driven only inside the horizon and under the invocation cap.
bool Admits(const DriverConfig& config, SimTime at, std::uint64_t index) {
  return at < config.duration && index < config.max_invocations;
}

}  // namespace

OpenLoopDriver::OpenLoopDriver(FaasPlatform* platform,
                               std::unique_ptr<ArrivalProcess> arrivals,
                               InvocationMix mix, DriverConfig config,
                               std::uint64_t seed)
    : sim_(&platform->simulator()),
      invoke_([platform](InvocationSpec spec,
                         FaasPlatform::CompletionCallback on_complete) {
        return platform->Invoke(std::move(spec), std::move(on_complete));
      }),
      arrivals_(std::move(arrivals)),
      mix_(std::make_shared<const InvocationMix>(std::move(mix))),
      config_(config),
      rng_(seed) {}

OpenLoopDriver::OpenLoopDriver(Simulator* sim,
                               std::unique_ptr<ArrivalProcess> arrivals,
                               std::shared_ptr<const InvocationMix> mix,
                               DriverConfig config, std::uint64_t seed,
                               ArrivalSlice slice)
    : sim_(sim),
      arrivals_(std::move(arrivals)),
      mix_(std::move(mix)),
      config_(config),
      rng_(seed),
      slice_(std::move(slice)) {}

std::uint64_t OpenLoopDriver::CountArrivals(ArrivalProcess& arrivals,
                                            const DriverConfig& config) {
  std::uint64_t count = 0;
  while (Admits(config, arrivals.Next(), count)) {
    ++count;
  }
  return count;
}

void OpenLoopDriver::Start() {
  if (slice_.book == nullptr) {
    // Reserve the offered count plus six standard deviations of a Poisson
    // count over the run, so arrival recording does not reallocate mid-run.
    // The mean alone is exceeded on about half of all seeds, and the
    // vector would then double (samples_ may still grow past this
    // reserve).
    const double expected =
        arrivals_->rate_per_sec() * config_.duration.seconds();
    const double headroom = std::ceil(6.0 * std::sqrt(expected));
    samples_.reserve(std::min<std::uint64_t>(
        config_.max_invocations,
        static_cast<std::uint64_t>(expected) +
            static_cast<std::uint64_t>(headroom) + 16));
  }
  ScheduleNext();
}

void OpenLoopDriver::ScheduleNext() {
  while (!exhausted_) {
    next_arrival_ = arrivals_->Next();
    if (!Admits(config_, next_arrival_, drawn_)) {
      exhausted_ = true;
      return;
    }
    // Every arrival is drawn, owned or not, so each slice's Rng stays in
    // step with the one stream; only owned ones are built.
    next_index_ = drawn_++;
    if (mix_->SampleIf(next_arrival_, rng_, slice_.owns, &next_)) {
      // Captures only `this`: stays inside the simulator's inline event
      // buffer.
      sim_->At(SaturatingAdd(next_arrival_, slice_.delay),
               [this]() { Fire(); });
      return;
    }
  }
}

void OpenLoopDriver::Fire() {
  assert(invoke_ && "replay driver needs set_invoker before Start");
  const std::uint64_t index = next_index_;
  if (slice_.book == nullptr) {
    samples_.emplace_back();  // a replay book is sized up front
  }
  InvocationSample& sample = book()[index];
  sample.intended_start = next_arrival_;
  sample.color_id = next_.color_id;
  sample.function_index = next_.function_index;
  ++submitted_;

  const auto id = invoke_(
      std::move(next_.spec), [this, index](const InvocationResult& result) {
        InvocationSample& s = book()[index];
        s.completed = result.completed;
        s.status = SampleStatus::kCompleted;
        s.local_hits = static_cast<std::uint16_t>(result.local_hits);
        s.remote_hits = static_cast<std::uint16_t>(result.remote_hits);
        s.misses = static_cast<std::uint16_t>(result.misses);
        ++completed_;
      });
  if (!id.has_value()) {
    book()[index].status = SampleStatus::kRejected;
    ++rejected_;
  }
  // Open loop: the next arrival is scheduled now, from the arrival process
  // alone — never gated on the completion above.
  ScheduleNext();
}

}  // namespace palette
