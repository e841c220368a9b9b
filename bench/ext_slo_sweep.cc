// Extension experiment — latency-vs-throughput knee curves under open-loop
// load (docs/WORKLOADS.md).
//
// The paper's figures replay fixed invocation counts closed-loop; this
// bench asks the production question instead: at what sustained offered
// rate does each routing policy's tail latency leave the SLO? It sweeps
// offered load x policy with the open-loop driver (Poisson arrivals, Zipf
// color popularity) and reports the knee — the highest rate whose p99
// still meets the deadline — per policy.
//
// The mechanism separating the curves: color-sticky policies keep each
// instance's share of the object population warm, so their service time is
// mostly compute; oblivious routing re-fetches objects everywhere, the
// per-instance cache cannot hold the whole population, and every miss both
// blocks the single-threaded worker and queues on the backing store's NIC.
// Saturation therefore arrives at a visibly lower offered rate.
#include <cstdio>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/core/policy_factory.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

constexpr int kWorkers = 8;
constexpr double kDeadlineMs = 100;

// The population (256 colors x 2 objects, ~165 KiB mean) is sized to
// overflow one 32 MiB instance cache ~2.6x while fitting comfortably when
// sharded across 8 sticky instances, and to cold-fill from storage fast
// enough that the warmup window absorbs the fill transient.
WorkloadSpec SweepSpec() {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kPoisson;
  spec.mix.color_count = 256;
  spec.mix.zipf_theta = 0.7;
  spec.mix.objects_per_color = 2;
  spec.mix.inputs_per_invocation = 1;
  spec.mix.functions[0].cpu_ops = 2e6;  // ~2 ms compute per invocation
  spec.driver.duration = SimTime::FromSeconds(15);
  spec.seed = 1;
  return spec;
}

void Run() {
  std::printf("== Extension: SLO knee — offered load x policy ==\n");
  std::printf(
      "(open-loop Poisson, %d workers, Zipf(0.9) over 512 colors, "
      "deadline %.0f ms)\n\n",
      kWorkers, kDeadlineMs);

  const std::vector<double> rates = {250,  500,  1000, 1500,
                                     2000, 2500, 3000};
  const std::vector<PolicyKind> policies = {
      PolicyKind::kObliviousRandom, PolicyKind::kConsistentHashing,
      PolicyKind::kBucketHashing, PolicyKind::kLeastAssigned};

  Scenario scenario;
  scenario.workers = kWorkers;
  scenario.slo.deadline = SimTime::FromMillis(kDeadlineMs);
  scenario.slo.warmup = SimTime::FromSeconds(5);
  scenario.platform.cache.per_instance_capacity = 32 * kMiB;
  const WorkloadSpec base = SweepSpec();

  TablePrinter table;
  table.AddRow({"policy", "offered_rps", "completed_rps", "goodput_rps",
                "p50_ms", "p99_ms", "hit%", "meets_slo"});

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("ext_slo_sweep");
  json.Key("workers");
  json.Int(kWorkers);
  json.Key("deadline_ms");
  json.Double(kDeadlineMs);
  json.Key("spec");
  AppendWorkloadSpecJson(base, &json);
  json.Key("curves");
  json.BeginArray();

  struct Knee {
    PolicyKind policy;
    double max_sustainable_rps;
  };
  std::vector<Knee> knees;

  for (const PolicyKind policy : policies) {
    const RateSweepResult sweep = SweepRates(rates, [&](double rate) {
      Scenario at_rate = scenario;
      at_rate.policy = policy;
      at_rate.spec = base;
      at_rate.spec.arrival.rate_per_sec = rate;
      return RunScenario(at_rate).report;
    });
    knees.push_back(Knee{policy, sweep.max_sustainable_rps});

    json.BeginObject();
    json.Key("policy");
    json.String(PolicyKindId(policy));
    json.Key("max_sustainable_rps");
    json.Double(sweep.max_sustainable_rps);
    json.Key("points");
    json.BeginArray();
    for (const RateSweepPoint& point : sweep.points) {
      table.AddRow({std::string(PolicyKindId(policy)),
                    StrFormat("%.0f", point.offered_rps),
                    StrFormat("%.1f", point.report.completed_rps),
                    StrFormat("%.1f", point.report.goodput_rps),
                    StrFormat("%.3f", point.report.p50_ms),
                    StrFormat("%.3f", point.report.p99_ms),
                    StrFormat("%.1f", 100 * point.report.local_hit_ratio),
                    point.report.MeetsSlo() ? "yes" : "no"});
      json.BeginObject();
      json.Key("offered_rps");
      json.Double(point.offered_rps);
      json.Key("report");
      AppendSloReportJson(point.report, &json);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  table.Print();
  std::printf("\nknee (max sustainable rps at p99 <= %.0f ms):\n",
              kDeadlineMs);
  for (const Knee& knee : knees) {
    std::printf("  %-8s %.0f rps\n",
                std::string(PolicyKindId(knee.policy)).c_str(),
                knee.max_sustainable_rps);
  }
  std::printf(
      "\nPast each policy's knee the open-loop driver keeps arrivals "
      "coming,\nso queueing delay lands in p99 instead of silently "
      "stretching the\narrival stream (coordinated omission). "
      "Locality-aware policies move\nthe knee right: warm caches keep "
      "service time at compute, oblivious\nrouting pays the backing-store "
      "fetch on the worker's critical path.\n");

  if (!WriteTextFile("BENCH_slo_sweep.json", json.str())) {
    return;
  }
  std::printf("\nwrote BENCH_slo_sweep.json\n");
}

}  // namespace
}  // namespace palette

int main() {
  palette::Run();
  return 0;
}
