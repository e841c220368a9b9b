// Parallel bench sweep runner.
//
// Fans the full (policy × seed × worker-count) grid of Task Bench DAG
// replays across cores: every cell owns a private Simulator and platform
// (RunDagOnFaas builds a fresh one per call), so replicas share no mutable
// simulation state and the pool needs no locking on the hot path. The
// interned-instance registry is the only shared structure and is
// thread-safe; cell outcomes do not depend on the numeric ids it assigns,
// so a parallel sweep reports bit-identical metrics to a serial one.
//
// Emits BENCH_sweep.json (schema "palette-bench-v1", shared with
// bench/micro_core's BENCH_core.json) plus a human-readable table.
//
// Usage:
//   bench_sweep [--policies=random,rr,ch,bh,la] [--seeds=3]
//               [--workers=8,16] [--pattern=stencil_1d] [--width=16]
//               [--timesteps=10] [--threads=0] [--out=BENCH_sweep.json]
//
// `--threads=1` runs serially (the baseline for measuring sweep speedup);
// `--threads=0` uses all hardware threads.
//
// `--workload=poisson|fixed|mmpp|diurnal` switches the grid cells from
// Task Bench DAG replays to open-loop SLO runs (src/workload): each cell
// drives a fresh platform with that arrival process and reports
// p50/p99/goodput/hit ratio instead of makespan. The workload spec comes
// from the loadgen flag set (--rate, --duration, --colors, --theta, ...;
// see docs/WORKLOADS.md), with each cell's seed from the grid.
//
// `--shards=N` (workload mode only) runs every cell as a sharded run
// (docs/PERF.md, "Parallel engine"): --groups worker groups, each fronted
// by --group_routers routers, spread over N threads. Each such cell owns
// an N-thread pool, so the sweep's own fan-out is capped at
// hardware_concurrency / N — shards x cells never oversubscribes the
// machine.
//
// A flag the chosen mode does not read is an error (exit status 2).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/common/thread_pool.h"
#include "src/core/policy_factory.h"
#include "src/dag/dag_executor.h"
#include "src/taskbench/taskbench.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

struct SweepCell {
  PolicyKind policy;
  std::uint64_t seed = 1;
  int workers = 8;
};

struct CellResult {
  SweepCell cell;
  DagRunResult run;
  double wall_seconds = 0;
};

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) {
      out.push_back(csv.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

std::optional<TaskBenchPattern> ParsePattern(const std::string& name) {
  for (const TaskBenchPattern pattern : AllTaskBenchPatterns()) {
    if (TaskBenchPatternName(pattern) == name) {
      return pattern;
    }
  }
  return std::nullopt;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Open-loop SLO grid: one RunWorkload per (policy, seed, workers) cell.
// Like the DAG cells, every cell owns a private Simulator + platform, so
// the grid parallelizes without locks and is bit-reproducible.
int RunWorkloadSweep(const FlagParser& flags, ArrivalKind arrival_kind,
                     const std::vector<PolicyKind>& policies,
                     const std::vector<int>& worker_counts,
                     std::uint64_t seeds, std::size_t threads, int shards,
                     const std::string& out_path) {
  WorkloadSpec base_spec;
  if (!WorkloadSpecFromFlags(flags, &base_spec)) {
    return 2;
  }
  base_spec.arrival.kind = arrival_kind;
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(flags.GetDouble("deadline_ms", 100));
  slo.warmup = SimTime::FromSeconds(flags.GetDouble("warmup_s", 1));
  const PlatformConfig platform_config = DefaultWorkloadPlatformConfig();

  // Sharded cells: each one spins a `shards`-thread pool, so cap the
  // sweep's own fan-out at hardware_concurrency / shards to keep shards x
  // cells at or under the machine's width.
  ShardedWorkloadConfig sharded_config;
  if (shards >= 1) {
    sharded_config.shards = shards;
    sharded_config.groups = static_cast<int>(flags.GetInt("groups", 8));
    sharded_config.routers_per_group =
        static_cast<int>(flags.GetInt("group_routers", 2));
    const auto hw = static_cast<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()));
    const std::size_t cap =
        std::max<std::size_t>(1, hw / static_cast<std::size_t>(shards));
    threads = std::min(threads == 0 ? hw : threads, cap);
    std::printf("sharded cells: %d shard(s) each; sweep fan-out capped at "
                "%zu thread(s)\n",
                shards, threads);
  }
  if (flags.ReportUnqueried()) {
    return 2;
  }

  struct WorkloadCell {
    PolicyKind policy;
    std::uint64_t seed = 1;
    int workers = 8;
    WorkloadRunResult run;
    ShardedRunResult sharded;
    double wall_seconds = 0;
  };
  std::vector<WorkloadCell> cells;
  for (const PolicyKind policy : policies) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      for (const int workers : worker_counts) {
        WorkloadCell cell;
        cell.policy = policy;
        cell.seed = seed;
        cell.workers = workers;
        cells.push_back(std::move(cell));
      }
    }
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  ParallelFor(cells.size(), threads, [&](std::size_t i) {
    WorkloadCell& cell = cells[i];
    const auto cell_start = std::chrono::steady_clock::now();
    WorkloadSpec spec = base_spec;
    spec.seed = cell.seed;
    if (shards >= 1) {
      cell.sharded = RunShardedWorkload(spec, cell.policy, cell.workers,
                                        sharded_config, slo,
                                        platform_config);
      cell.run.report = cell.sharded.report;
      cell.run.samples_digest = cell.sharded.samples_digest;
    } else {
      cell.run = RunWorkload(spec, cell.policy, cell.workers, slo,
                             platform_config);
    }
    cell.wall_seconds = SecondsSince(cell_start);
  });
  const double wall_seconds = SecondsSince(sweep_start);

  TablePrinter table;
  table.AddRow({"policy", "seed", "workers", "p50_ms", "p99_ms",
                "goodput_rps", "hit%", "meets_slo"});
  for (const WorkloadCell& cell : cells) {
    table.AddRow(
        {std::string(PolicyKindId(cell.policy)),
         StrFormat("%llu", static_cast<unsigned long long>(cell.seed)),
         StrFormat("%d", cell.workers),
         StrFormat("%.3f", cell.run.report.p50_ms),
         StrFormat("%.3f", cell.run.report.p99_ms),
         StrFormat("%.1f", cell.run.report.goodput_rps),
         StrFormat("%.1f", 100 * cell.run.report.local_hit_ratio),
         cell.run.report.MeetsSlo() ? "yes" : "no"});
  }
  table.Print();
  std::printf("\n%zu workload cells in %.3f s\n", cells.size(),
              wall_seconds);

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("sweep-workload");
  json.Key("spec");
  AppendWorkloadSpecJson(base_spec, &json);
  if (shards >= 1) {
    json.Key("shards");
    json.Int(shards);
    json.Key("groups");
    json.Int(sharded_config.groups);
    json.Key("group_routers");
    json.Int(sharded_config.routers_per_group);
  }
  json.Key("wall_seconds");
  json.Double(wall_seconds);
  json.Key("results");
  json.BeginArray();
  for (const WorkloadCell& cell : cells) {
    json.BeginObject();
    json.Key("policy");
    json.String(PolicyKindId(cell.policy));
    json.Key("seed");
    json.UInt(cell.seed);
    json.Key("workers");
    json.Int(cell.workers);
    json.Key("samples_digest");
    json.String(StrFormat("%016llx", static_cast<unsigned long long>(
                                         cell.run.samples_digest)));
    if (shards >= 1) {
      json.Key("engine_digest");
      json.String(StrFormat("%016llx", static_cast<unsigned long long>(
                                           cell.sharded.engine_digest)));
    }
    json.Key("cell_wall_seconds");
    json.Double(cell.wall_seconds);
    json.Key("report");
    AppendSloReportJson(cell.run.report, &json);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!WriteTextFile(out_path, json.str())) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  const FlagParser flags(argc, argv);

  std::vector<PolicyKind> policies;
  for (const std::string& id :
       SplitCsv(flags.GetString("policies", "random,rr,ch,bh,la"))) {
    PolicyKind kind;
    if (!ParsePolicyKind(id, &kind)) {
      std::fprintf(stderr, "unknown policy id: %s\n", id.c_str());
      return 1;
    }
    policies.push_back(kind);
  }
  std::vector<int> worker_counts;
  for (const std::string& w : SplitCsv(flags.GetString("workers", "8,16"))) {
    const int count = std::stoi(w);
    if (count <= 0) {
      std::fprintf(stderr, "worker counts must be positive, got: %s\n",
                   w.c_str());
      return 1;
    }
    worker_counts.push_back(count);
  }
  const auto seeds = static_cast<std::uint64_t>(flags.GetInt("seeds", 3));

  // Open-loop SLO cells instead of DAG replays; --shards>=1 puts each
  // cell on the sharded parallel engine.
  const int shards = static_cast<int>(flags.GetInt("shards", 0));
  const std::string workload_id = flags.GetString("workload", "");
  if (!workload_id.empty()) {
    ArrivalKind arrival_kind;
    if (!ParseArrivalKind(workload_id, &arrival_kind)) {
      std::fprintf(stderr,
                   "unknown workload arrival kind: %s (try: fixed, "
                   "poisson, mmpp, diurnal)\n",
                   workload_id.c_str());
      return 1;
    }
    return RunWorkloadSweep(
        flags, arrival_kind, policies, worker_counts, seeds,
        static_cast<std::size_t>(flags.GetInt("threads", 0)), shards,
        flags.GetString("out", "BENCH_sweep.json"));
  }
  if (shards >= 1) {
    std::fprintf(stderr,
                 "--shards requires --workload (DAG cells have no sharded "
                 "mode)\n");
    return 1;
  }

  const std::string pattern_name = flags.GetString("pattern", "stencil_1d");
  const auto pattern = ParsePattern(pattern_name);
  if (!pattern.has_value()) {
    std::fprintf(stderr, "unknown taskbench pattern: %s (try: ",
                 pattern_name.c_str());
    for (const TaskBenchPattern p : AllTaskBenchPatterns()) {
      std::fprintf(stderr, "%.*s ",
                   static_cast<int>(TaskBenchPatternName(p).size()),
                   TaskBenchPatternName(p).data());
    }
    std::fprintf(stderr, ")\n");
    return 1;
  }
  TaskBenchConfig bench_config;
  bench_config.width = static_cast<int>(flags.GetInt("width", 16));
  bench_config.timesteps = static_cast<int>(flags.GetInt("timesteps", 10));
  bench_config.cpu_ops_per_task = flags.GetDouble("cpu_ops", 60e6);
  // Smaller objects than Fig. 8's 256 MiB keep sweep cells snappy; the
  // relative policy ordering is insensitive to the exact size.
  bench_config.output_bytes =
      static_cast<Bytes>(flags.GetInt("output_mib", 16)) * kMiB;
  const auto threads = static_cast<std::size_t>(flags.GetInt("threads", 0));
  const std::string out_path = flags.GetString("out", "BENCH_sweep.json");
  if (flags.ReportUnqueried()) {
    return 2;
  }

  std::vector<SweepCell> cells;
  for (const PolicyKind policy : policies) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      for (const int workers : worker_counts) {
        cells.push_back(SweepCell{policy, seed, workers});
      }
    }
  }

  std::vector<CellResult> results(cells.size());
  const auto sweep_start = std::chrono::steady_clock::now();
  // Each index owns its slot in `results`; no synchronization needed beyond
  // the pool's own queue.
  ParallelFor(cells.size(), threads, [&](std::size_t i) {
    const SweepCell& cell = cells[i];
    const auto cell_start = std::chrono::steady_clock::now();
    const Dag dag = MakeTaskBenchDag(*pattern, bench_config);
    DagRunConfig config;
    config.policy = cell.policy;
    config.coloring = IsLocalityAware(cell.policy) ? ColoringKind::kChain
                                                   : ColoringKind::kNone;
    config.workers = cell.workers;
    config.seed = cell.seed;
    results[i] = CellResult{cell, RunDagOnFaas(dag, config),
                            SecondsSince(cell_start)};
  });
  const double wall_seconds = SecondsSince(sweep_start);

  TablePrinter table;
  table.AddRow({"policy", "seed", "workers", "makespan_ms", "local_hits",
                "remote_hits", "misses", "imbalance"});
  for (const CellResult& r : results) {
    table.AddRow({std::string(PolicyKindId(r.cell.policy)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.cell.seed)),
                  StrFormat("%d", r.cell.workers),
                  StrFormat("%.2f", r.run.makespan.millis()),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.run.local_hits)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        r.run.remote_hits)),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(r.run.misses)),
                  StrFormat("%.3f", r.run.routing_imbalance)});
  }
  table.Print();
  std::printf("\n%zu cells on %zu thread(s) in %.3f s\n", cells.size(),
              threads == 0 ? static_cast<std::size_t>(
                                 std::thread::hardware_concurrency())
                           : threads,
              wall_seconds);

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("sweep");
  json.Key("pattern");
  json.String(TaskBenchPatternName(*pattern));
  json.Key("threads");
  json.UInt(threads);
  json.Key("wall_seconds");
  json.Double(wall_seconds);
  json.Key("results");
  json.BeginArray();
  for (const CellResult& r : results) {
    json.BeginObject();
    json.Key("policy");
    json.String(PolicyKindId(r.cell.policy));
    json.Key("seed");
    json.UInt(r.cell.seed);
    json.Key("workers");
    json.Int(r.cell.workers);
    json.Key("makespan_ms");
    json.Double(r.run.makespan.millis());
    json.Key("local_hits");
    json.UInt(r.run.local_hits);
    json.Key("remote_hits");
    json.UInt(r.run.remote_hits);
    json.Key("misses");
    json.UInt(r.run.misses);
    json.Key("network_bytes");
    json.UInt(r.run.network_bytes);
    json.Key("routing_imbalance");
    json.Double(r.run.routing_imbalance);
    json.Key("cell_wall_seconds");
    json.Double(r.wall_seconds);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!WriteTextFile(out_path, json.str())) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace palette

int main(int argc, char** argv) { return palette::Run(argc, argv); }
