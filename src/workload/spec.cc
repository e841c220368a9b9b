#include "src/workload/spec.h"

#include <cstdio>
#include <limits>

#include "src/common/flags.h"
#include "src/common/json_writer.h"

namespace palette {

bool WorkloadSpecFromFlags(const FlagParser& flags, WorkloadSpec* out) {
  WorkloadSpec spec;
  const std::string arrival_id = flags.GetString(
      "arrival", std::string(ArrivalKindId(spec.arrival.kind)));
  if (!ParseArrivalKind(arrival_id, &spec.arrival.kind)) {
    std::fprintf(stderr,
                 "unknown arrival kind: %s (try: fixed poisson mmpp "
                 "diurnal)\n",
                 arrival_id.c_str());
    return false;
  }
  spec.arrival.rate_per_sec =
      flags.GetDouble("rate", spec.arrival.rate_per_sec);
  spec.arrival.burst_multiplier =
      flags.GetDouble("burst_mult", spec.arrival.burst_multiplier);
  spec.arrival.mean_on_seconds =
      flags.GetDouble("on_s", spec.arrival.mean_on_seconds);
  spec.arrival.mean_off_seconds =
      flags.GetDouble("off_s", spec.arrival.mean_off_seconds);
  spec.arrival.period_seconds =
      flags.GetDouble("period_s", spec.arrival.period_seconds);
  spec.arrival.amplitude =
      flags.GetDouble("amplitude", spec.arrival.amplitude);

  // Mix sizes are range-checked before any cast: the color id is a
  // uint32_t and the per-sample hit counters are uint16_t, so an
  // out-of-range value would alias or wrap silently.
  const std::int64_t colors =
      flags.GetInt("colors", static_cast<std::int64_t>(spec.mix.color_count));
  if (colors < 1 || colors > (std::int64_t{1} << 32)) {
    std::fprintf(stderr,
                 "--colors=%lld is out of range: need 1 <= colors <= 2^32\n",
                 static_cast<long long>(colors));
    return false;
  }
  spec.mix.color_count = static_cast<std::uint64_t>(colors);
  spec.mix.zipf_theta = flags.GetDouble("theta", spec.mix.zipf_theta);
  spec.mix.churn_interval =
      SimTime::FromSeconds(flags.GetDouble("churn_interval_s", 0));
  spec.mix.churn_step = static_cast<std::uint64_t>(
      flags.GetInt("churn_step", static_cast<std::int64_t>(
                                     spec.mix.color_count / 8)));
  const std::int64_t objects_per_color = flags.GetInt(
      "objects_per_color",
      static_cast<std::int64_t>(spec.mix.objects_per_color));
  if (objects_per_color < 1) {
    std::fprintf(stderr,
                 "--objects_per_color=%lld is out of range: need >= 1\n",
                 static_cast<long long>(objects_per_color));
    return false;
  }
  spec.mix.objects_per_color = static_cast<std::uint64_t>(objects_per_color);
  const std::int64_t inputs =
      flags.GetInt("inputs", spec.mix.inputs_per_invocation);
  if (inputs < 0 || inputs > std::numeric_limits<std::uint16_t>::max()) {
    std::fprintf(stderr,
                 "--inputs=%lld is out of range: need 0 <= inputs <= 65535\n",
                 static_cast<long long>(inputs));
    return false;
  }
  spec.mix.inputs_per_invocation = static_cast<int>(inputs);
  spec.mix.functions[0].cpu_ops =
      flags.GetDouble("cpu_ops", spec.mix.functions[0].cpu_ops);
  spec.mix.write_fraction =
      flags.GetDouble("write_fraction", spec.mix.write_fraction);
  if (!(spec.mix.write_fraction >= 0 && spec.mix.write_fraction <= 1)) {
    std::fprintf(stderr,
                 "--write_fraction=%g is out of range: need 0 <= "
                 "write_fraction <= 1\n",
                 spec.mix.write_fraction);
    return false;
  }

  spec.driver.duration =
      SimTime::FromSeconds(flags.GetDouble("duration", 20));
  spec.driver.max_invocations = static_cast<std::uint64_t>(
      flags.GetInt("max_invocations",
                   static_cast<std::int64_t>(spec.driver.max_invocations)));
  spec.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  *out = spec;
  return true;
}

void AppendWorkloadSpecJson(const WorkloadSpec& spec, JsonWriter* json) {
  json->BeginObject();
  json->Key("arrival");
  json->String(ArrivalKindId(spec.arrival.kind));
  json->Key("rate_per_sec");
  json->Double(spec.arrival.rate_per_sec);
  if (spec.arrival.kind == ArrivalKind::kMmpp) {
    json->Key("burst_multiplier");
    json->Double(spec.arrival.burst_multiplier);
    json->Key("mean_on_seconds");
    json->Double(spec.arrival.mean_on_seconds);
    json->Key("mean_off_seconds");
    json->Double(spec.arrival.mean_off_seconds);
  }
  if (spec.arrival.kind == ArrivalKind::kDiurnal) {
    json->Key("period_seconds");
    json->Double(spec.arrival.period_seconds);
    json->Key("amplitude");
    json->Double(spec.arrival.amplitude);
  }
  json->Key("colors");
  json->UInt(spec.mix.color_count);
  json->Key("zipf_theta");
  json->Double(spec.mix.zipf_theta);
  json->Key("churn_interval_s");
  json->Double(spec.mix.churn_interval.seconds());
  json->Key("churn_step");
  json->UInt(spec.mix.churn_step);
  json->Key("objects_per_color");
  json->UInt(spec.mix.objects_per_color);
  json->Key("inputs_per_invocation");
  json->Int(spec.mix.inputs_per_invocation);
  json->Key("cpu_ops");
  json->Double(spec.mix.functions[0].cpu_ops);
  json->Key("write_fraction");
  json->Double(spec.mix.write_fraction);
  json->Key("duration_s");
  json->Double(spec.driver.duration.seconds());
  json->Key("seed");
  json->UInt(spec.seed);
  json->EndObject();
}

PlatformConfig DefaultWorkloadPlatformConfig() {
  PlatformConfig config;
  config.cpu_ops_per_second = 1e9;
  config.dispatch_latency = SimTime::FromMillis(1);
  config.cold_start = SimTime::FromMillis(100);
  // Objects are small (KiB..MiB); the serialization tax is negligible next
  // to the fetch path and just slows the sweep down.
  config.serialization_bytes_per_second = 0;
  config.cache.per_instance_capacity = 256 * kMiB;
  config.cache_miss_fills = true;
  // Backend round trip on misses.
  config.network.latency = SimTime::FromMillis(2);
  return config;
}

}  // namespace palette
