#include "harness/layers.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/cache/faast_cache.h"
#include "src/common/instance_id.h"
#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/core/palette_load_balancer.h"
#include "src/workload/arrival.h"
#include "src/workload/mix.h"

namespace palette::perfbench {
namespace {

// Calls cheaper than a clock read are timed in batches and reported per
// call; the layers with tails worth a p99 are timed call by call.
constexpr std::size_t kBatch = 64;

// The replayed invocation stream, interned so that later replays pass
// prebuilt arguments and allocate nothing inside their timed calls.
struct Stream {
  struct Object {
    std::uint32_t name = 0;  // index into object_names
    Bytes size = 0;
    bool write = false;
  };
  std::vector<std::optional<Color>> colors;  // interned color table
  std::vector<std::string> object_names;     // interned object table
  std::vector<std::uint32_t> color_of;       // per invocation
  std::vector<std::uint32_t> first_object;   // per invocation, + end marker
  std::vector<Object> objects;

  std::unordered_map<std::string, std::uint32_t> color_index;
  std::unordered_map<std::string, std::uint32_t> object_index;

  std::uint32_t InternObject(const std::string& name) {
    const auto [it, inserted] = object_index.try_emplace(
        name, static_cast<std::uint32_t>(object_names.size()));
    if (inserted) {
      object_names.push_back(name);
    }
    return it->second;
  }

  void Append(const MixedInvocation& m) {
    const std::string key = m.spec.color.value_or(std::string());
    const auto [it, inserted] = color_index.try_emplace(
        key, static_cast<std::uint32_t>(colors.size()));
    if (inserted) {
      colors.push_back(m.spec.color);
    }
    color_of.push_back(it->second);
    first_object.push_back(static_cast<std::uint32_t>(objects.size()));
    for (const ObjectRef& in : m.spec.inputs) {
      objects.push_back(Object{InternObject(in.name), in.size, false});
    }
    for (const ObjectRef& o : m.spec.outputs) {
      objects.push_back(Object{InternObject(o.name), o.size, true});
    }
  }
};

std::vector<SimTime> ReplayArrivals(const BenchWorkload& w,
                                    std::uint64_t seed,
                                    std::vector<double>* per_call_ns) {
  std::unique_ptr<ArrivalProcess> arrivals =
      MakeArrivalProcess(w.spec.arrival, seed);
  std::vector<SimTime> times;
  times.reserve(static_cast<std::size_t>(
      w.spec.arrival.rate_per_sec * w.spec.driver.duration.seconds() + 16));
  std::array<SimTime, kBatch> batch;
  // The driver stops at the first arrival at or past the horizon, or at
  // max_invocations samples.
  while (true) {
    const std::int64_t t0 = NowNs();
    for (SimTime& t : batch) {
      t = arrivals->Next();
    }
    const std::int64_t t1 = NowNs();
    per_call_ns->push_back(static_cast<double>(t1 - t0) / kBatch);
    for (const SimTime t : batch) {
      if (t >= w.spec.driver.duration ||
          times.size() >= w.spec.driver.max_invocations) {
        return times;
      }
      times.push_back(t);
    }
  }
}

Stream ReplayMix(const BenchWorkload& w, std::uint64_t seed,
                 const std::vector<SimTime>& times,
                 std::vector<double>* per_call_ns) {
  const InvocationMix mix(w.spec.mix);
  Rng rng(seed);
  Stream stream;
  stream.color_of.reserve(times.size());
  stream.first_object.reserve(times.size() + 1);
  std::array<MixedInvocation, kBatch> batch;
  for (std::size_t begin = 0; begin < times.size(); begin += kBatch) {
    const std::size_t n = std::min(kBatch, times.size() - begin);
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < n; ++i) {
      batch[i] = mix.Sample(times[begin + i], rng);
    }
    const std::int64_t t1 = NowNs();
    per_call_ns->push_back(static_cast<double>(t1 - t0) /
                           static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      stream.Append(batch[i]);
      batch[i] = MixedInvocation{};  // free outside the timed loop
    }
  }
  stream.first_object.push_back(
      static_cast<std::uint32_t>(stream.objects.size()));
  return stream;
}

std::vector<std::string> WorkerNames(int workers) {
  std::vector<std::string> names;
  for (int i = 0; i < workers; ++i) {
    names.push_back(StrFormat("w%d", i));
  }
  return names;
}

}  // namespace

double QuantileOf(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

void ReplayLayers(const BenchWorkload& w, SpanRecorder* spans,
                  std::int32_t parent, MetricList* out) {
  const StreamSeeds seeds = DeriveStreamSeeds(w.spec.seed);

  std::int32_t span = spans->Open(spans->Name("replay.arrival_next"), parent);
  std::vector<double> arrival_ns;
  const std::vector<SimTime> times = ReplayArrivals(w, seeds.arrival,
                                                    &arrival_ns);
  spans->Close(span);

  span = spans->Open(spans->Name("replay.mix_sample"), parent);
  std::vector<double> mix_ns;
  const Stream stream = ReplayMix(w, seeds.driver, times, &mix_ns);
  spans->Close(span);

  // One load balancer and one cache holding every worker of the workload
  // (sharded workloads split these per group; the replay does not).
  const std::vector<std::string> workers = WorkerNames(w.workers);
  span = spans->Open(spans->Name("replay.route"), parent);
  PaletteLoadBalancer lb(MakePolicy(w.policy, w.spec.seed));
  for (const std::string& name : workers) {
    lb.AddInstance(name);
  }
  const std::size_t invocations = stream.color_of.size();
  std::vector<double> route_ns(invocations);
  std::vector<InstanceId> routed(invocations, kInvalidInstanceId);
  for (std::size_t i = 0; i < invocations; ++i) {
    const std::optional<Color>& color = stream.colors[stream.color_of[i]];
    const std::int64_t t0 = NowNs();
    const std::optional<InstanceId> target = lb.RouteId(color);
    const std::int64_t t1 = NowNs();
    route_ns[i] = static_cast<double>(t1 - t0);
    routed[i] = target.value_or(kInvalidInstanceId);
  }
  spans->Close(span);

  span = spans->Open(spans->Name("replay.cache"), parent);
  FaastCache cache(w.platform.cache);
  for (const std::string& name : workers) {
    cache.AddInstance(name);
  }
  std::vector<double> get_ns;
  std::vector<double> put_ns;
  get_ns.reserve(stream.objects.size());
  for (std::size_t i = 0; i < invocations; ++i) {
    if (routed[i] == kInvalidInstanceId) {
      continue;
    }
    const std::string& reader = InstanceRegistry::Global().NameOf(routed[i]);
    for (std::uint32_t k = stream.first_object[i];
         k < stream.first_object[i + 1]; ++k) {
      const Stream::Object& object = stream.objects[k];
      const std::string& name = stream.object_names[object.name];
      bool fill = object.write;
      if (!object.write) {
        const std::int64_t t0 = NowNs();
        const CacheLookup lookup = cache.Get(reader, name);
        const std::int64_t t1 = NowNs();
        get_ns.push_back(static_cast<double>(t1 - t0));
        fill = lookup.outcome == CacheOutcome::kMiss;
      }
      if (fill) {
        const std::int64_t t0 = NowNs();
        cache.Put(reader, name, object.size);
        const std::int64_t t1 = NowNs();
        put_ns.push_back(static_cast<double>(t1 - t0));
      }
    }
  }
  spans->Close(span);

  out->emplace_back("workload.arrival_next_ns.p50",
                    QuantileOf(arrival_ns, 0.5));
  out->emplace_back("workload.mix_sample_ns.p50", QuantileOf(mix_ns, 0.5));
  out->emplace_back("core.route_ns.p50", QuantileOf(route_ns, 0.5));
  out->emplace_back("core.route_ns.p99", QuantileOf(route_ns, 0.99));
  out->emplace_back("cache.get_ns.p50", QuantileOf(get_ns, 0.5));
  out->emplace_back("cache.get_ns.p99", QuantileOf(get_ns, 0.99));
  out->emplace_back("cache.put_ns.p50", QuantileOf(std::move(put_ns), 0.5));
}

}  // namespace palette::perfbench
