// Tests for src/workload: arrival-process statistics and determinism, mix
// popularity churn, the open-loop driver's accounting, SLO scoring edge
// cases, and bit-identical end-to-end reproducibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/hash/hash.h"
#include "src/obs/prometheus.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/mix.h"
#include "src/obs/alerts.h"
#include "src/obs/timeseries.h"
#include "src/workload/sharded_run.h"
#include "src/workload/slo.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

// Draws arrivals until `horizon` and returns the count.
std::uint64_t CountArrivals(ArrivalProcess& process, SimTime horizon) {
  std::uint64_t count = 0;
  while (process.Next() < horizon) {
    ++count;
  }
  return count;
}

TEST(ArrivalTest, KindIdsRoundTrip) {
  for (ArrivalKind kind :
       {ArrivalKind::kDeterministic, ArrivalKind::kPoisson,
        ArrivalKind::kMmpp, ArrivalKind::kDiurnal}) {
    ArrivalKind parsed;
    ASSERT_TRUE(ParseArrivalKind(ArrivalKindId(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  ArrivalKind unused;
  EXPECT_FALSE(ParseArrivalKind("bogus", &unused));
}

TEST(ArrivalTest, DeterministicProcessIsExact) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDeterministic;
  spec.rate_per_sec = 200;
  auto process = MakeArrivalProcess(spec, 7);
  // Arrival k at exactly k/rate, k starting at 1: 5 ms spacing, no float
  // drift.
  EXPECT_EQ(process->Next(), SimTime::FromMillis(5));
  EXPECT_EQ(process->Next(), SimTime::FromMillis(10));
  EXPECT_EQ(process->Next(), SimTime::FromMillis(15));
  // Arrivals in [0, 10 s) are k = 1..1999; three already consumed.
  EXPECT_EQ(CountArrivals(*process, SimTime::FromSeconds(10)), 1996u);
}

TEST(ArrivalTest, SameSeedSameStreamDifferentSeedDiverges) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kMmpp,
                           ArrivalKind::kDiurnal}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate_per_sec = 500;
    auto a = MakeArrivalProcess(spec, 42);
    auto b = MakeArrivalProcess(spec, 42);
    auto c = MakeArrivalProcess(spec, 43);
    bool diverged = false;
    for (int i = 0; i < 2000; ++i) {
      const SimTime ta = a->Next();
      ASSERT_EQ(ta, b->Next()) << ArrivalKindId(kind) << " arrival " << i;
      diverged |= ta != c->Next();
    }
    EXPECT_TRUE(diverged) << ArrivalKindId(kind);
  }
}

TEST(ArrivalTest, ArrivalsAreNonDecreasing) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kMmpp,
                           ArrivalKind::kDiurnal}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate_per_sec = 1000;
    auto process = MakeArrivalProcess(spec, 3);
    SimTime prev;
    for (int i = 0; i < 5000; ++i) {
      const SimTime t = process->Next();
      ASSERT_GE(t, prev) << ArrivalKindId(kind) << " arrival " << i;
      prev = t;
    }
  }
}

TEST(ArrivalTest, PoissonEmpiricalRateMatchesConfigured) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_sec = 400;
  auto process = MakeArrivalProcess(spec, 11);
  const double seconds = 200;
  const auto count =
      CountArrivals(*process, SimTime::FromSeconds(seconds));
  const double empirical = static_cast<double>(count) / seconds;
  // 80k expected arrivals; +-5% is ~13 sigma for a fixed seed.
  EXPECT_NEAR(empirical, 400, 400 * 0.05);
}

TEST(ArrivalTest, MmppLongRunRateIsNormalizedToMean) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kMmpp;
  spec.rate_per_sec = 300;
  spec.burst_multiplier = 10;
  spec.mean_on_seconds = 0.5;
  spec.mean_off_seconds = 2.0;
  auto process = MakeArrivalProcess(spec, 19);
  const double seconds = 500;  // many on/off cycles
  const auto count =
      CountArrivals(*process, SimTime::FromSeconds(seconds));
  const double empirical = static_cast<double>(count) / seconds;
  // Duty-cycle-weighted mean must come back to rate_per_sec (+-10%: the
  // state process adds variance beyond Poisson).
  EXPECT_NEAR(empirical, 300, 300 * 0.10);
}

TEST(ArrivalTest, MmppIsBurstierThanPoisson) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kMmpp;
  spec.rate_per_sec = 200;
  spec.burst_multiplier = 16;
  auto process = MakeArrivalProcess(spec, 5);
  // Count arrivals per 100 ms bucket; a bursty stream has a much larger
  // bucket-count variance-to-mean ratio than Poisson (which has ~1).
  std::vector<double> buckets(600, 0.0);
  const SimTime horizon = SimTime::FromSeconds(60);
  for (SimTime t = process->Next(); t < horizon; t = process->Next()) {
    buckets[static_cast<std::size_t>(t.nanos() / 100'000'000)] += 1;
  }
  double mean = 0;
  for (double b : buckets) {
    mean += b;
  }
  mean /= static_cast<double>(buckets.size());
  double var = 0;
  for (double b : buckets) {
    var += (b - mean) * (b - mean);
  }
  var /= static_cast<double>(buckets.size());
  EXPECT_GT(var / mean, 3.0);
}

TEST(ArrivalTest, DiurnalPeakAndTroughFollowTheCurve) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDiurnal;
  spec.rate_per_sec = 500;
  spec.period_seconds = 40;
  spec.amplitude = 0.8;
  auto process = MakeArrivalProcess(spec, 23);
  // rate(t) = 500 * (1 + 0.8 sin(2 pi t / 40)): the first quarter-period
  // [0, 10) sits on the rising crest, the third quarter [20, 30) in the
  // trough. Average over 5 periods to tame sampling noise.
  double peak = 0;
  double trough = 0;
  const SimTime horizon = SimTime::FromSeconds(5 * 40);
  for (SimTime t = process->Next(); t < horizon; t = process->Next()) {
    const double phase_s =
        static_cast<double>(t.nanos() % 40'000'000'000LL) / 1e9;
    if (phase_s < 10) {
      peak += 1;
    } else if (phase_s >= 20 && phase_s < 30) {
      trough += 1;
    }
  }
  // Quarter-period integrals of the curve: peak ~ 1 + 0.8*(2/pi) = 1.51x
  // the mean, trough ~ 0.49x. Require a conservative 2x separation.
  EXPECT_GT(peak, 2.0 * trough);
}

TEST(MixTest, ZipfChurnRotatesTheHotSet) {
  MixConfig config;
  config.color_count = 64;
  config.zipf_theta = 0.9;
  config.churn_interval = SimTime::FromSeconds(10);
  config.churn_step = 8;
  const InvocationMix mix(config);

  const std::uint32_t hot_before = mix.ColorIdForRank(0, SimTime());
  const std::uint32_t hot_after =
      mix.ColorIdForRank(0, SimTime::FromSeconds(10));
  EXPECT_NE(hot_before, hot_after);
  // Within one churn interval the mapping is stable.
  EXPECT_EQ(hot_before, mix.ColorIdForRank(0, SimTime::FromSeconds(9)));

  // Empirically: the pre-churn hot color loses its traffic share after
  // the rotation.
  Rng rng(99);
  std::map<std::uint32_t, int> before;
  std::map<std::uint32_t, int> after;
  for (int i = 0; i < 20000; ++i) {
    before[mix.Sample(SimTime(), rng).color_id]++;
    after[mix.Sample(SimTime::FromSeconds(10), rng).color_id]++;
  }
  // Zipf(0.9) over 64 colors puts ~21% of mass on rank 0.
  EXPECT_GT(before[hot_before], 20000 / 10);
  EXPECT_GT(after[hot_after], 20000 / 10);
  EXPECT_LT(after[hot_before], before[hot_before] / 4);
}

TEST(MixTest, NoChurnMeansStableMapping) {
  MixConfig config;
  config.color_count = 16;
  config.churn_interval = SimTime();  // disabled
  const InvocationMix mix(config);
  EXPECT_EQ(mix.ColorIdForRank(3, SimTime()),
            mix.ColorIdForRank(3, SimTime::FromSeconds(3600)));
}

TEST(MixTest, ObjectSizesAreDeterministicAndWithinQuantiles) {
  MixConfig config;
  const InvocationMix mix(config);
  const Bytes lo = static_cast<Bytes>(config.size_quantiles.front().value);
  const Bytes hi = static_cast<Bytes>(config.size_quantiles.back().value);
  bool varied = false;
  for (std::uint32_t color = 0; color < 32; ++color) {
    for (std::uint64_t obj = 0; obj < config.objects_per_color; ++obj) {
      const Bytes size = mix.ObjectSize(color, obj);
      EXPECT_EQ(size, mix.ObjectSize(color, obj));  // same identity, same size
      EXPECT_GE(size, lo);
      EXPECT_LE(size, hi);
      varied |= size != mix.ObjectSize(0, 0);
    }
  }
  EXPECT_TRUE(varied);
}

TEST(MixTest, FunctionMixFollowsWeights) {
  MixConfig config;
  config.functions = {{"fast", 3.0, 1e6}, {"slow", 1.0, 1e7}};
  const InvocationMix mix(config);
  Rng rng(7);
  int fast = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const MixedInvocation inv = mix.Sample(SimTime(), rng);
    if (inv.function_index == 0) {
      ++fast;
      EXPECT_EQ(inv.spec.function, "fast");
    }
  }
  EXPECT_NEAR(static_cast<double>(fast) / draws, 0.75, 0.02);
}

TEST(MixTest, SampleIfStaysInStepWithSample) {
  // A sharded group draws every arrival but builds only its own colors.
  // Skipping must consume the same random numbers as Sample, and a kept
  // draw must equal Sample's.
  MixConfig config;
  config.color_count = 16;
  config.inputs_per_invocation = 2;
  config.write_fraction = 0.3;
  config.functions = {{"fast", 3.0, 1e6}, {"slow", 1.0, 1e7}};
  const InvocationMix mix(config);
  Rng all(42);
  Rng some(42);
  const auto keep = [](std::uint32_t color_id) { return color_id % 3 == 0; };
  int kept = 0;
  for (int i = 0; i < 500; ++i) {
    const SimTime now = SimTime::FromMillis(i);
    const MixedInvocation a = mix.Sample(now, all);
    MixedInvocation b;
    ASSERT_EQ(mix.SampleIf(now, some, keep, &b), keep(a.color_id));
    if (!keep(a.color_id)) {
      continue;
    }
    ++kept;
    EXPECT_EQ(b.color_id, a.color_id);
    EXPECT_EQ(b.function_index, a.function_index);
    EXPECT_EQ(b.spec.color, a.spec.color);
    EXPECT_EQ(b.spec.cpu_ops, a.spec.cpu_ops);
    ASSERT_EQ(b.spec.inputs.size(), a.spec.inputs.size());
    EXPECT_EQ(b.spec.inputs[1].name, a.spec.inputs[1].name);
    ASSERT_EQ(b.spec.outputs.size(), a.spec.outputs.size());
  }
  EXPECT_GT(kept, 0);
  EXPECT_EQ(all.Next(), some.Next());
}

TEST(MixTest, NamesMatchPrintfFormatting) {
  // Names are built with to_chars; they must stay byte-for-byte what the
  // "c%u" / "c%u___o%llu" formats produced (cache homes and digests hash
  // them).
  for (const std::uint32_t color : {0u, 9u, 10u, 4999u, UINT32_MAX}) {
    EXPECT_EQ(InvocationMix::ColorName(color), StrFormat("c%u", color));
    for (const std::uint64_t obj :
         {std::uint64_t{0}, std::uint64_t{3}, UINT64_MAX}) {
      EXPECT_EQ(InvocationMix::ObjectName(color, obj),
                StrFormat("c%u___o%llu", color,
                          static_cast<unsigned long long>(obj)));
    }
  }

  MixConfig config;
  config.color_count = 5000;
  config.objects_per_color = 12;
  config.inputs_per_invocation = 3;
  config.write_fraction = 0.5;
  const InvocationMix mix(config);
  Rng rng(7);
  const auto is_object_of = [&](const std::string& name, std::uint32_t color) {
    for (std::uint64_t obj = 0; obj < config.objects_per_color; ++obj) {
      if (name == StrFormat("c%u___o%llu", color,
                            static_cast<unsigned long long>(obj))) {
        return true;
      }
    }
    return false;
  };
  int outputs = 0;
  for (int i = 0; i < 300; ++i) {
    const MixedInvocation m = mix.Sample(SimTime::FromMillis(i), rng);
    ASSERT_TRUE(m.spec.color.has_value());
    EXPECT_EQ(*m.spec.color, StrFormat("c%u", m.color_id));
    ASSERT_EQ(m.spec.inputs.size(), 3u);
    for (const ObjectRef& input : m.spec.inputs) {
      EXPECT_TRUE(is_object_of(input.name, m.color_id)) << input.name;
    }
    for (const ObjectRef& output : m.spec.outputs) {
      EXPECT_TRUE(is_object_of(output.name, m.color_id)) << output.name;
      ++outputs;
    }
  }
  EXPECT_GT(outputs, 0);
}

// Parses `args` (without the program name) into a spec.
bool SpecFromArgs(std::vector<std::string> args, WorkloadSpec* spec) {
  args.insert(args.begin(), "loadgen");
  std::vector<const char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  const FlagParser flags(static_cast<int>(argv.size()), argv.data());
  return WorkloadSpecFromFlags(flags, spec);
}

TEST(WorkloadSpecFlagsTest, RejectsOutOfRangeMixSizes) {
  WorkloadSpec spec;
  // colors: [1, 2^32]. Zero used to abort in ZipfDistribution, negatives
  // wrapped to 2^64 and anything above 2^32 aliased color ids.
  EXPECT_FALSE(SpecFromArgs({"--colors=0"}, &spec));
  EXPECT_FALSE(SpecFromArgs({"--colors=-1"}, &spec));
  EXPECT_FALSE(SpecFromArgs({"--colors=4294967297"}, &spec));
  // objects_per_color >= 1: zero used to collapse every color to one object.
  EXPECT_FALSE(SpecFromArgs({"--objects_per_color=0"}, &spec));
  EXPECT_FALSE(SpecFromArgs({"--objects_per_color=-3"}, &spec));
  // inputs: [0, 65535], the range of the per-sample hit counters.
  EXPECT_FALSE(SpecFromArgs({"--inputs=-1"}, &spec));
  EXPECT_FALSE(SpecFromArgs({"--inputs=65536"}, &spec));
  // write_fraction: [0, 1].
  EXPECT_FALSE(SpecFromArgs({"--write_fraction=-0.1"}, &spec));
  EXPECT_FALSE(SpecFromArgs({"--write_fraction=1.5"}, &spec));
  EXPECT_FALSE(SpecFromArgs({"--write_fraction=nan"}, &spec));
}

TEST(WorkloadSpecFlagsTest, AcceptsRangeEndpoints) {
  WorkloadSpec spec;
  ASSERT_TRUE(SpecFromArgs({"--colors=1", "--objects_per_color=1",
                            "--inputs=0", "--write_fraction=0"},
                           &spec));
  EXPECT_EQ(spec.mix.color_count, 1u);
  EXPECT_EQ(spec.mix.objects_per_color, 1u);
  EXPECT_EQ(spec.mix.inputs_per_invocation, 0);
  EXPECT_EQ(spec.mix.write_fraction, 0.0);
  ASSERT_TRUE(SpecFromArgs({"--colors=4294967296", "--inputs=65535",
                            "--write_fraction=1"},
                           &spec));
  EXPECT_EQ(spec.mix.color_count, std::uint64_t{1} << 32);
  EXPECT_EQ(spec.mix.inputs_per_invocation, 65535);
  EXPECT_EQ(spec.mix.write_fraction, 1.0);
  // The defaults pass untouched.
  ASSERT_TRUE(SpecFromArgs({}, &spec));
  EXPECT_EQ(spec.mix.color_count, MixConfig().color_count);
}

TEST(SloTest, EmptySamplesScoreZeroSafely) {
  const SloReport report =
      ScoreSlo({}, SloConfig{}, SimTime::FromSeconds(10), 100);
  EXPECT_EQ(report.submitted, 0u);
  EXPECT_EQ(report.scored, 0u);
  EXPECT_EQ(report.p99_ms, 0.0);
  EXPECT_FALSE(report.MeetsSlo());
  EXPECT_EQ(SamplesDigest({}), SamplesDigest({}));
}

TEST(SloTest, GoodputCountsOnlyWithinDeadline) {
  std::vector<InvocationSample> samples;
  for (int i = 0; i < 10; ++i) {
    InvocationSample s;
    s.intended_start = SimTime::FromMillis(100 * i);
    // 5 fast (10 ms), 5 slow (500 ms).
    s.completed = s.intended_start +
                  (i < 5 ? SimTime::FromMillis(10) : SimTime::FromMillis(500));
    s.status = SampleStatus::kCompleted;
    s.local_hits = 1;
    samples.push_back(s);
  }
  SloConfig config;
  config.deadline = SimTime::FromMillis(100);
  const SloReport report =
      ScoreSlo(samples, config, SimTime::FromSeconds(1), 10);
  EXPECT_EQ(report.scored, 10u);
  EXPECT_DOUBLE_EQ(report.goodput_fraction, 0.5);
  EXPECT_DOUBLE_EQ(report.goodput_rps, 5.0);
  EXPECT_DOUBLE_EQ(report.local_hit_ratio, 1.0);
  EXPECT_FALSE(report.MeetsSlo());  // p99 ~ 500 ms > 100 ms
}

TEST(SloTest, WarmupSamplesExcludedFromScoringButCounted) {
  std::vector<InvocationSample> samples;
  for (int i = 0; i < 4; ++i) {
    InvocationSample s;
    s.intended_start = SimTime::FromMillis(500 * i);  // 0, 0.5, 1.0, 1.5 s
    s.completed = s.intended_start + SimTime::FromMillis(i < 2 ? 900 : 10);
    s.status = SampleStatus::kCompleted;
    samples.push_back(s);
  }
  SloConfig config;
  config.warmup = SimTime::FromSeconds(1);
  const SloReport report =
      ScoreSlo(samples, config, SimTime::FromSeconds(2), 2);
  EXPECT_EQ(report.submitted, 4u);
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.scored, 2u);  // the two slow warmup samples are excluded
  EXPECT_LT(report.p99_ms, 11);
  EXPECT_TRUE(report.MeetsSlo());
}

TEST(SloTest, SweepReportsHighestPassingRate) {
  const std::vector<double> rates = {100, 200, 400};
  const RateSweepResult result = SweepRates(rates, [](double rate) {
    SloReport report;
    report.scored = 1;
    report.deadline_ms = 100;
    report.p99_ms = rate <= 200 ? 50 : 5000;  // knee between 200 and 400
    return report;
  });
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_DOUBLE_EQ(result.max_sustainable_rps, 200);
}

TEST(SloTest, DigestIsOrderAndFieldSensitive) {
  InvocationSample a;
  a.intended_start = SimTime::FromMillis(1);
  a.completed = SimTime::FromMillis(2);
  a.color_id = 3;
  a.status = SampleStatus::kCompleted;
  InvocationSample b = a;
  b.color_id = 4;
  EXPECT_NE(SamplesDigest({a, b}), SamplesDigest({b, a}));
  InvocationSample c = a;
  c.misses = 1;
  EXPECT_NE(SamplesDigest({a}), SamplesDigest({c}));
}

TEST(WorkloadRunTest, OpenLoopAccountingClosesTheBooks) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kPoisson;
  spec.arrival.rate_per_sec = 300;
  spec.mix.color_count = 32;
  spec.driver.duration = SimTime::FromSeconds(4);
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  const WorkloadRunResult run =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo,
                  DefaultWorkloadPlatformConfig());
  EXPECT_GT(run.report.submitted, 1000u);
  EXPECT_EQ(run.report.submitted,
            run.report.completed + run.report.rejected + run.report.dropped);
  EXPECT_EQ(run.report.dropped, run.platform_dropped);
  EXPECT_EQ(run.samples.size(), run.report.submitted);
  EXPECT_GT(run.report.p50_ms, 0);
  // Healthy platform, no churn: nothing dropped or rejected.
  EXPECT_EQ(run.report.dropped, 0u);
  EXPECT_EQ(run.report.rejected, 0u);
}

TEST(WorkloadRunTest, IdenticalSpecsReproduceBitIdenticalSamples) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 250;
  spec.mix.color_count = 64;
  spec.mix.churn_interval = SimTime::FromSeconds(1);
  spec.driver.duration = SimTime::FromSeconds(3);
  spec.seed = 77;
  const SloConfig slo;
  const PlatformConfig config = DefaultWorkloadPlatformConfig();
  const WorkloadRunResult a =
      RunWorkload(spec, PolicyKind::kBucketHashing, 4, slo, config);
  const WorkloadRunResult b =
      RunWorkload(spec, PolicyKind::kBucketHashing, 4, slo, config);
  EXPECT_GT(a.samples.size(), 100u);
  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.sim_events, b.sim_events);

  // A different seed must actually change the stream.
  WorkloadSpec reseeded = spec;
  reseeded.seed = 78;
  const WorkloadRunResult c =
      RunWorkload(reseeded, PolicyKind::kBucketHashing, 4, slo, config);
  EXPECT_NE(a.samples_digest, c.samples_digest);
}

std::vector<std::string> FaultWorkers(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(StrFormat("w%d", i));
  }
  return out;
}

TEST(FaultScheduleTest, FromMtbfIsDeterministicPerSeed) {
  MtbfConfig config;
  config.mtbf = SimTime::FromSeconds(1);
  config.mttr = SimTime::FromMillis(500);
  config.end = SimTime::FromSeconds(10);
  const auto workers = FaultWorkers(4);
  const FaultSchedule a = FaultSchedule::FromMtbf(config, workers, 42);
  const FaultSchedule b = FaultSchedule::FromMtbf(config, workers, 42);
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].worker, b.events()[i].worker);
  }
  // A different seed must actually move the failures.
  const FaultSchedule c = FaultSchedule::FromMtbf(config, workers, 43);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !(a.events()[i].at == c.events()[i].at) ||
              a.events()[i].worker != c.events()[i].worker;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultScheduleTest, FromMtbfRespectsWindowAndMembership) {
  MtbfConfig config;
  config.mtbf = SimTime::FromMillis(500);
  config.mttr = SimTime::FromSeconds(1);
  config.start = SimTime::FromSeconds(2);
  config.end = SimTime::FromSeconds(8);
  const auto workers = FaultWorkers(3);
  const FaultSchedule schedule = FaultSchedule::FromMtbf(config, workers, 7);
  ASSERT_GT(schedule.size(), 0u);
  EXPECT_EQ(schedule.CountOf(FaultKind::kCrash),
            schedule.CountOf(FaultKind::kRestart));
  SimTime prev;
  for (const FaultEvent& event : schedule.events()) {
    EXPECT_GE(event.at, prev);  // sorted
    prev = event.at;
    EXPECT_TRUE(std::find(workers.begin(), workers.end(), event.worker) !=
                workers.end());
    if (event.kind == FaultKind::kCrash) {
      // Crashes stay inside the window; restarts may trail past `end`.
      EXPECT_GE(event.at, config.start);
      EXPECT_LT(event.at, config.end);
    }
  }
  // No worker is hit again while it is still down.
  std::map<std::string, SimTime> down_until;
  for (const FaultEvent& event : schedule.events()) {
    if (event.kind == FaultKind::kCrash) {
      const auto it = down_until.find(event.worker);
      if (it != down_until.end()) {
        EXPECT_GE(event.at, it->second);
      }
      down_until[event.worker] = event.at + config.mttr;
    }
  }
}

TEST(FaultScheduleTest, ChurnRunWithRetriesClosesBooksReproducibly) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kPoisson;
  spec.arrival.rate_per_sec = 300;
  spec.mix.color_count = 32;
  // ~10 ms compute at 300 rps over 4 workers keeps utilization around
  // 0.75, so each crash reliably catches running + queued invocations.
  spec.mix.functions[0].cpu_ops = 1e7;
  spec.driver.duration = SimTime::FromSeconds(4);
  spec.seed = 5;
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.retry.max_attempts = 4;

  MtbfConfig mtbf;
  mtbf.mtbf = SimTime::FromMillis(500);
  mtbf.mttr = SimTime::FromMillis(300);
  mtbf.start = SimTime::FromSeconds(1);
  mtbf.end = SimTime::FromSeconds(3);
  const FaultSchedule faults =
      FaultSchedule::FromMtbf(mtbf, FaultWorkers(4), 9);
  ASSERT_GT(faults.CountOf(FaultKind::kCrash), 0u);

  const WorkloadRunResult a = RunWorkload(
      spec, PolicyKind::kLeastAssigned, 4, slo, config, &faults);
  // Books close under churn + retry, and with enough attempts nothing is
  // dropped or abandoned — crashes only cost latency.
  EXPECT_EQ(a.platform_submitted,
            a.platform_completed + a.platform_dropped + a.platform_abandoned);
  EXPECT_EQ(a.platform_dropped, 0u);
  EXPECT_EQ(a.platform_abandoned, 0u);
  EXPECT_GT(a.retries, 0u);
  EXPECT_GT(a.recolored, 0u);

  // The whole faulted run is bit-reproducible.
  const WorkloadRunResult b = RunWorkload(
      spec, PolicyKind::kLeastAssigned, 4, slo, config, &faults);
  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.retries, b.retries);
}

TEST(WorkloadRunTest, StickyPoliciesBeatObliviousOnHitRatio) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kPoisson;
  spec.arrival.rate_per_sec = 400;
  spec.mix.color_count = 64;
  spec.mix.objects_per_color = 2;
  spec.driver.duration = SimTime::FromSeconds(5);
  SloConfig slo;
  slo.warmup = SimTime::FromSeconds(1);
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.cache.per_instance_capacity = 16 * kMiB;
  const WorkloadRunResult sticky =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 4, slo, config);
  const WorkloadRunResult oblivious =
      RunWorkload(spec, PolicyKind::kObliviousRandom, 4, slo, config);
  EXPECT_GT(sticky.report.local_hit_ratio,
            oblivious.report.local_hit_ratio + 0.2);
}

// ---------------------------------------------------------------------------
// Golden pins for single-group (monolithic) runs. The values were recorded
// before the run harness was unified; a single-group run must reproduce
// them bit for bit.

namespace {

WorkloadSpec PinSpec() {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 500;
  spec.mix.color_count = 64;
  spec.mix.zipf_theta = 0.9;
  // ~10 ms compute: 8 workers run about 60% busy, so a crash catches
  // running and queued invocations.
  spec.mix.functions[0].cpu_ops = 1e7;
  spec.driver.duration = SimTime::FromSeconds(3);
  spec.seed = 23;
  return spec;
}

struct PinnedBooks {
  std::uint64_t samples_digest;
  std::uint64_t sim_events;
  std::uint64_t submitted;
  std::uint64_t completed;
  std::uint64_t dropped;
  std::uint64_t abandoned;
  std::uint64_t rejected;
};

void ExpectPinned(const WorkloadRunResult& run, const PinnedBooks& pin) {
  EXPECT_EQ(run.samples_digest, pin.samples_digest);
  EXPECT_EQ(run.sim_events, pin.sim_events);
  EXPECT_EQ(run.platform_submitted, pin.submitted);
  EXPECT_EQ(run.platform_completed, pin.completed);
  EXPECT_EQ(run.platform_dropped, pin.dropped);
  EXPECT_EQ(run.platform_abandoned, pin.abandoned);
  EXPECT_EQ(run.report.rejected, pin.rejected);
  EXPECT_EQ(run.platform_submitted, run.platform_completed +
                                        run.platform_dropped +
                                        run.platform_abandoned);
}

}  // namespace

TEST(MonolithicPinTest, PushLeastAssigned) {
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  const WorkloadRunResult run =
      RunWorkload(PinSpec(), PolicyKind::kLeastAssigned, 8, slo,
                  DefaultWorkloadPlatformConfig());
  ExpectPinned(run, {0x236a6a1b443b966aULL, 2452, 613, 613, 0, 0, 0});
}

TEST(MonolithicPinTest, HybridWriteBackWithPlanner) {
  WorkloadSpec spec = PinSpec();
  spec.mix.write_fraction = 0.2;
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.dispatch_mode = FaasDispatchMode::kHybrid;
  config.storage.mode = CoherenceMode::kWriteBack;
  PlannerConfig planner;
  planner.plan_every = SimTime::FromMillis(500);
  planner.seed = spec.seed;
  const WorkloadRunResult run =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 8, slo, config, nullptr,
                  nullptr, &planner);
  EXPECT_GT(run.planner_rounds, 0u);
  EXPECT_GT(run.storage.writes_total, 0u);
  ExpectPinned(run, {0xd62daf03d30f1c70ULL, 3645, 613, 613, 0, 0, 0});
  EXPECT_EQ(run.planner_moves, 25u);
  EXPECT_EQ(run.pulls, 203u);
}

TEST(MonolithicPinTest, SprayingRouterTierWithWorkerCrash) {
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.retry.max_attempts = 3;
  RouterTierConfig tier;
  tier.routers = 4;
  tier.dispatch = DispatchMode::kSpray;
  tier.sync_lag = SimTime::FromMillis(10);
  FaultSchedule faults;
  faults.Add(FaultEvent{SimTime::FromMillis(1100), FaultKind::kCrash, "w3"});
  faults.Add(FaultEvent{SimTime::FromMillis(2100), FaultKind::kRestart, "w3"});
  const WorkloadRunResult run =
      RunRouterWorkload(PinSpec(), PolicyKind::kLeastAssigned, 8, tier, slo,
                        config, &faults);
  EXPECT_GT(run.router_routes, 0u);
  ExpectPinned(run, {0xa774396fa4e772a2ULL, 2465, 613, 613, 0, 0, 0});
  EXPECT_EQ(run.router_misroutes, 0u);
  EXPECT_EQ(run.retries, 1u);
}

TEST(MonolithicPinTest, TelemetryOn) {
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  WorkloadObsConfig obs;
  obs.sample_every = SimTime::FromMillis(100);
  std::vector<std::string> errors;
  obs.alert_rules =
      ParseAlertRules("submit=driver.submitted.rate>0:1:1", &errors);
  ASSERT_TRUE(errors.empty());
  const WorkloadRunResult run =
      RunWorkload(PinSpec(), PolicyKind::kLeastAssigned, 8, slo,
                  DefaultWorkloadPlatformConfig(), nullptr, &obs);
  ExpectPinned(run, {0x236a6a1b443b966aULL, 2452, 613, 613, 0, 0, 0});
  ASSERT_TRUE(run.telemetry.enabled());
  ASSERT_NE(run.telemetry.alerts, nullptr);
  // The exported artifacts are pinned byte for byte.
  EXPECT_EQ(Fnv1a64(run.telemetry.series->ToCsv()), 0x2e661adb5c97fa4dULL);
  EXPECT_EQ(Fnv1a64(ToPrometheusText(*run.telemetry.metrics)),
            0x74f6f7c8895de402ULL);
  EXPECT_EQ(Fnv1a64(run.telemetry.alerts->ToLogLines()),
            0x4f61c7f0f18fe6c3ULL);
}

TEST(ShardedBooksTest, GroupRejectionsScoreAsRejected) {
  // Two workers across four groups leave two groups with no worker at
  // all: every arrival they own is refused at the group. The driver books
  // each refusal as rejected, exactly as a single-group run does.
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  ShardedWorkloadConfig config;
  config.groups = 4;
  config.shards = 2;
  config.routers_per_group = 0;
  const ShardedRunResult run =
      RunShardedWorkload(PinSpec(), PolicyKind::kLeastAssigned, 2, config,
                         slo, DefaultWorkloadPlatformConfig());
  EXPECT_GT(run.group_rejections, 0u);
  EXPECT_EQ(run.report.rejected, run.group_rejections);
  EXPECT_EQ(run.report.dropped, run.group_dropped);
  EXPECT_EQ(run.report.submitted, run.report.completed +
                                      run.report.rejected +
                                      run.report.dropped);
  EXPECT_TRUE(run.books_close);
}

// ---------------------------------------------------------------------------
// Live telemetry determinism (docs/OBSERVABILITY.md): sampling must be
// invisible to the simulation, and the sampled artifacts themselves must
// be seed-reproducible and shard-count-invariant.

namespace {

WorkloadSpec TelemetrySpec() {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 300;
  spec.mix.color_count = 64;
  spec.mix.zipf_theta = 0.9;
  spec.driver.duration = SimTime::FromSeconds(3);
  spec.seed = 19;
  return spec;
}

}  // namespace

TEST(TelemetryTest, SamplingOnDoesNotChangeTheRun) {
  const WorkloadSpec spec = TelemetrySpec();
  const SloConfig slo;
  const PlatformConfig config = DefaultWorkloadPlatformConfig();
  const WorkloadRunResult off =
      RunWorkload(spec, PolicyKind::kLeastAssigned, 8, slo, config);

  WorkloadObsConfig obs;
  obs.sample_every = SimTime::FromMillis(100);
  const WorkloadRunResult on = RunWorkload(
      spec, PolicyKind::kLeastAssigned, 8, slo, config, nullptr, &obs);

  // The clock observer adds zero events: digests and event counts are
  // bit-identical with the sampler on or off.
  EXPECT_EQ(on.samples_digest, off.samples_digest);
  EXPECT_EQ(on.sim_events, off.sim_events);
  EXPECT_FALSE(off.telemetry.enabled());
  ASSERT_TRUE(on.telemetry.enabled());
  EXPECT_GT(on.telemetry.series->series_count(), 0u);
  EXPECT_GE(on.telemetry.series->samples_taken(), 30u);
  // The run closed its books on the mark grid: the last window reaches
  // the nominal duration.
  EXPECT_GE(on.telemetry.series->last_mark(), spec.driver.duration);
}

TEST(TelemetryTest, TimeSeriesCsvIsSeedReproducible) {
  const WorkloadSpec spec = TelemetrySpec();
  const SloConfig slo;
  const PlatformConfig config = DefaultWorkloadPlatformConfig();
  WorkloadObsConfig obs;
  obs.sample_every = SimTime::FromMillis(100);
  std::vector<std::string> errors;
  obs.alert_rules =
      ParseAlertRules("submit=driver.submitted.rate>0:1:1", &errors);
  ASSERT_TRUE(errors.empty());

  const WorkloadRunResult a = RunWorkload(
      spec, PolicyKind::kLeastAssigned, 8, slo, config, nullptr, &obs);
  const WorkloadRunResult b = RunWorkload(
      spec, PolicyKind::kLeastAssigned, 8, slo, config, nullptr, &obs);
  ASSERT_TRUE(a.telemetry.enabled());
  ASSERT_TRUE(b.telemetry.enabled());
  EXPECT_EQ(a.telemetry.series->ToCsv(), b.telemetry.series->ToCsv());
  ASSERT_NE(a.telemetry.alerts, nullptr);
  // Traffic flows, so the submit-rate rule fires; both logs match byte
  // for byte.
  EXPECT_GE(a.telemetry.alerts->fired_count(), 1u);
  EXPECT_EQ(a.telemetry.alerts->ToLogLines(),
            b.telemetry.alerts->ToLogLines());
}

TEST(TelemetryTest, ShardedTelemetryBitIdenticalAcrossShardCounts) {
  const WorkloadSpec spec = TelemetrySpec();
  SloConfig slo;
  slo.warmup = SimTime::FromMillis(500);
  auto run = [&](int shards) {
    ShardedWorkloadConfig config;
    config.groups = 4;
    config.shards = shards;
    config.routers_per_group = 2;
    config.obs.sample_every = SimTime::FromMillis(250);
    std::vector<std::string> errors;
    config.obs.alert_rules =
        ParseAlertRules("submit=driver.submitted.rate>0:1:1", &errors);
    EXPECT_TRUE(errors.empty());
    return RunShardedWorkload(spec, PolicyKind::kLeastAssigned,
                              /*total_workers=*/16, config, slo,
                              DefaultWorkloadPlatformConfig());
  };
  const ShardedRunResult one = run(1);
  const ShardedRunResult four = run(4);
  ASSERT_TRUE(one.telemetry.enabled());
  ASSERT_TRUE(four.telemetry.enabled());
  // Same simulation (digest invariance) and the same telemetry artifacts:
  // the per-domain series merge in fixed domain order on a shared mark
  // grid, so CSV and alert log match byte for byte.
  EXPECT_EQ(one.samples_digest, four.samples_digest);
  EXPECT_EQ(one.engine_digest, four.engine_digest);
  EXPECT_EQ(one.telemetry.series->ToCsv(), four.telemetry.series->ToCsv());
  ASSERT_NE(one.telemetry.alerts, nullptr);
  EXPECT_GE(one.telemetry.alerts->fired_count(), 1u);
  EXPECT_EQ(one.telemetry.alerts->ToLogLines(),
            four.telemetry.alerts->ToLogLines());
  // And sampling stays invisible in the sharded engine too.
  ShardedWorkloadConfig plain;
  plain.groups = 4;
  plain.shards = 2;
  plain.routers_per_group = 2;
  const ShardedRunResult off = RunShardedWorkload(
      spec, PolicyKind::kLeastAssigned, 16, plain, slo,
      DefaultWorkloadPlatformConfig());
  EXPECT_EQ(off.samples_digest, one.samples_digest);
  EXPECT_EQ(off.engine_digest, one.engine_digest);
  EXPECT_EQ(off.sim_events, one.sim_events);
}

TEST(TelemetryTest, MergedClusterRegistryMatchesDriverBooks) {
  const WorkloadSpec spec = TelemetrySpec();
  SloConfig slo;
  ShardedWorkloadConfig config;
  config.groups = 2;
  config.shards = 2;
  config.routers_per_group = 0;
  config.obs.sample_every = SimTime::FromMillis(500);
  const ShardedRunResult run = RunShardedWorkload(
      spec, PolicyKind::kLeastAssigned, 8, config, slo,
      DefaultWorkloadPlatformConfig());
  ASSERT_TRUE(run.telemetry.enabled());
  ASSERT_NE(run.telemetry.metrics, nullptr);
  // The merged registry's cluster totals agree with the run's books.
  EXPECT_EQ(run.telemetry.metrics->counter("driver.submitted").value(),
            run.driver_submitted);
  EXPECT_EQ(run.telemetry.metrics->counter("faas.invocations.submitted")
                .value(),
            run.group_submitted);
  EXPECT_EQ(run.telemetry.metrics->counter("faas.invocations.completed")
                .value(),
            run.group_completed);
  EXPECT_TRUE(run.books_close);
}

}  // namespace
}  // namespace palette
