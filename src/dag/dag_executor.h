// Serverless DAG executor: runs a task graph on the simulated FaaS platform
// (§6.2.2's "eval" function pattern — each DAG node is one invocation whose
// inputs and outputs flow through the Faa$T cache).
//
// Object naming follows §5.1. With a Palette coloring, task t's output is
// "<color(t)>___t<id>", and the platform homes it where the color is placed
// (FaasPlatform::ColorHome), so the object's cache home is the producing
// worker. Without colors (oblivious baselines), the name is "t<id>" and the
// home falls wherever consistent hashing of the name lands — the behavior of
// far-memory object stores the paper compares against.
#ifndef PALETTE_SRC_DAG_DAG_EXECUTOR_H_
#define PALETTE_SRC_DAG_DAG_EXECUTOR_H_

#include <cstdint>
#include <string>

#include "src/core/policy_factory.h"
#include "src/dag/coloring.h"
#include "src/dag/dag.h"
#include "src/faas/platform.h"

namespace palette {

struct DagRunConfig {
  PolicyKind policy = PolicyKind::kLeastAssigned;
  ColoringKind coloring = ColoringKind::kChain;
  int workers = 4;
  // Per-worker CPU speed multipliers (heterogeneous clusters / straggler
  // experiments). Empty = all workers at 1.0; otherwise must have
  // `workers` entries.
  std::vector<double> worker_speeds;
  // Virtual device count for kVirtualWorker coloring; 0 = same as workers.
  int virtual_workers = 0;
  std::uint64_t seed = 1;
  PlatformConfig platform;
  // Optional observability hooks (docs/OBSERVABILITY.md). When non-null
  // they are attached to the platform for the run; `metrics` additionally
  // receives the platform's counter snapshot (ExportMetrics) after the
  // run drains. Null keeps the hot path instrumentation-free.
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
};

struct DagRunResult {
  SimTime makespan;
  std::uint64_t local_hits = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t misses = 0;
  Bytes network_bytes = 0;  // bytes this DAG's inputs pulled over the network
  Bytes cluster_remote_bytes = 0;  // all remote bytes incl. output placement
  int distinct_colors = 0;
  // max/avg invocations per worker — routing imbalance of the run.
  double routing_imbalance = 0;
  // Completion time per task id (phase breakdowns, Fig. 10b).
  std::vector<SimTime> task_completion;
};

// Executes `dag` to completion on a fresh platform; deterministic for a
// fixed config. If `coloring_override` is non-null it is used instead of
// computing a coloring from config.coloring (the hook for the §6.3 dynamic
// coloring policies in src/dag/dynamic_coloring.h).
DagRunResult RunDagOnFaas(const Dag& dag, const DagRunConfig& config,
                          const DagColoring* coloring_override = nullptr);

// A job submitted to a shared cluster: one DAG plus its arrival time.
struct DagJob {
  const Dag* dag = nullptr;
  SimTime arrival;
};

struct SharedRunResult {
  // Per-job completion time minus arrival (the latency each job saw).
  std::vector<SimTime> job_latency;
  SimTime total_makespan;
  Bytes cluster_remote_bytes = 0;
};

// Runs several DAG jobs concurrently on ONE platform (shared workers,
// shared cache, shared color table). Each job's colors are namespaced with
// its index ("job3/chain5"), so jobs cannot alias each other's colors or
// cache objects — but they do contend for workers, NICs, and (for the LA
// policy) color-table capacity, which is exactly what this models.
SharedRunResult RunDagsOnSharedPlatform(const std::vector<DagJob>& jobs,
                                        const DagRunConfig& config);

}  // namespace palette

#endif  // PALETTE_SRC_DAG_DAG_EXECUTOR_H_
