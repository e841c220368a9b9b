#include "src/workload/mix.h"

#include <algorithm>
#include <cassert>

#include "src/common/table_printer.h"

namespace palette {

namespace {

// SplitMix64 finalizer; fans an object's identity out to a uniform u64 so
// per-object attributes are deterministic without any stored state.
std::uint64_t HashIdentity(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

InvocationMix::InvocationMix(MixConfig config)
    : config_(std::move(config)),
      zipf_(config_.color_count, config_.zipf_theta),
      sizes_(config_.size_quantiles) {
  assert(!config_.functions.empty());
  double total = 0;
  for (const MixConfig::FunctionSpec& fn : config_.functions) {
    assert(fn.weight >= 0);
    total += fn.weight;
  }
  assert(total > 0);
  double acc = 0;
  function_cdf_.reserve(config_.functions.size());
  for (const MixConfig::FunctionSpec& fn : config_.functions) {
    acc += fn.weight / total;
    function_cdf_.push_back(acc);
  }
  function_cdf_.back() = 1.0;
}

std::uint32_t InvocationMix::ColorIdForRank(std::uint64_t rank,
                                            SimTime now) const {
  std::uint64_t rotation = 0;
  if (config_.churn_interval.nanos() > 0 && config_.churn_step > 0) {
    const std::uint64_t epoch = static_cast<std::uint64_t>(now.nanos()) /
                                static_cast<std::uint64_t>(
                                    config_.churn_interval.nanos());
    rotation = epoch * config_.churn_step;
  }
  return static_cast<std::uint32_t>((rank + rotation) % config_.color_count);
}

Bytes InvocationMix::ObjectSize(std::uint32_t color_id,
                                std::uint64_t obj) const {
  const std::uint64_t h =
      HashIdentity((static_cast<std::uint64_t>(color_id) << 20) ^ obj);
  // 53-bit mantissa quotient gives u uniform in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return static_cast<Bytes>(sizes_.ValueAtQuantile(u));
}

std::string InvocationMix::ColorName(std::uint32_t color_id) {
  return "c" + std::to_string(color_id);
}

MixedInvocation InvocationMix::Sample(SimTime now, Rng& rng) const {
  MixedInvocation out;
  DrawRest(ColorIdForRank(zipf_.Sample(rng), now), rng, &out);
  return out;
}

bool InvocationMix::SampleIf(
    SimTime now, Rng& rng,
    const std::function<bool(std::uint32_t color_id)>& keep,
    MixedInvocation* out) const {
  const std::uint32_t color_id = ColorIdForRank(zipf_.Sample(rng), now);
  const bool kept = !keep || keep(color_id);
  if (kept) {
    *out = MixedInvocation();
  }
  DrawRest(color_id, rng, kept ? out : nullptr);
  return kept;
}

void InvocationMix::DrawRest(std::uint32_t color_id, Rng& rng,
                             MixedInvocation* out) const {
  const double fn_draw = rng.NextDouble();
  const double cpu_draw = rng.NextDouble();
  if (out != nullptr) {
    const auto fn_it = std::lower_bound(function_cdf_.begin(),
                                        function_cdf_.end(), fn_draw);
    out->color_id = color_id;
    out->function_index = static_cast<std::uint16_t>(
        std::min<std::size_t>(fn_it - function_cdf_.begin(),
                              config_.functions.size() - 1));
    const MixConfig::FunctionSpec& fn = config_.functions[out->function_index];
    out->spec.function = fn.name;
    out->spec.color = ColorName(color_id);
    out->spec.cpu_ops = fn.cpu_ops * (0.5 + cpu_draw);
  }
  for (int i = 0; i < config_.inputs_per_invocation; ++i) {
    const std::uint64_t obj = rng.NextBelow(config_.objects_per_color);
    if (out != nullptr) {
      out->spec.inputs.push_back(
          ObjectRef{StrFormat("c%u___o%llu", color_id,
                              static_cast<unsigned long long>(obj)),
                    ObjectSize(color_id, obj)});
    }
  }
  if (config_.write_fraction > 0 &&
      rng.NextBernoulli(config_.write_fraction)) {
    const std::uint64_t obj = rng.NextBelow(config_.objects_per_color);
    if (out != nullptr) {
      out->spec.outputs.push_back(
          ObjectRef{StrFormat("c%u___o%llu", color_id,
                              static_cast<unsigned long long>(obj)),
                    ObjectSize(color_id, obj)});
    }
  }
}

}  // namespace palette
