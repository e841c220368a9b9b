// The benchmark's run assembly (README.md in this directory).
//
// Builds the same Simulator / FaasPlatform / RouterTier / OpenLoopDriver /
// planner stack as RunWorkload and RunRouterWorkload, in the same order
// and from the same seeds, so the samples and books are the ones those
// harnesses produce (tests/faithfulness_test.cc checks this). Owning the
// stack lets the benchmark time set-up apart from the run and, in a traced
// run, wrap the layers' public entry points in spans.
#ifndef PALETTE_PERFBENCH_HARNESS_ASSEMBLY_H_
#define PALETTE_PERFBENCH_HARNESS_ASSEMBLY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/spans.h"
#include "harness/workloads.h"
#include "src/storage/storage_types.h"
#include "src/workload/slo.h"

namespace palette::perfbench {

// Named metric values, in the order they were produced.
using MetricList = std::vector<std::pair<std::string, double>>;

// Conservation counts the correctness gate checks.
struct Books {
  std::uint64_t driver_submitted = 0;
  std::uint64_t driver_rejected = 0;
  std::uint64_t platform_submitted = 0;
  std::uint64_t platform_completed = 0;
  std::uint64_t platform_dropped = 0;
  std::uint64_t platform_abandoned = 0;
  std::uint64_t retries = 0;
  // Workloads with routers; on the sharded engine, traced runs only (the
  // count comes from the merged metrics registry).
  bool has_router = false;
  std::uint64_t router_routes = 0;
  // Sharded workloads only: ShardedRunResult::books_close.
  bool has_sharded_books = false;
  bool sharded_books_close = false;
  StorageStats storage;
  bool has_storage = false;
};

struct RunOutcome {
  // Median host seconds to build the stack up to its first event, over
  // the set-up repetitions.
  double setup_s = 0;
  // Host seconds from the first event through the scored report (the
  // simulation, ScoreSlo and SamplesDigest).
  double window_s = 0;
  SloReport report;
  std::uint64_t samples_digest = 0;
  std::uint64_t sim_events = 0;
  Books books;
  // Per-layer metrics; filled by traced runs only.
  MetricList layers;
};

// Runs workload `w` once. The stack is built `setup_reps` times (all but
// the last torn down unrun) so set-up time is a median. With `spans`
// non-null the run is traced: layer calls are wrapped in spans and the
// per-layer metrics are computed.
RunOutcome RunBenchWorkload(const BenchWorkload& w, int setup_reps,
                            SpanRecorder* spans);

// The benchmark's peak resident set size so far, in MiB (VmHWM).
double PeakRssMb();

}  // namespace palette::perfbench

#endif  // PALETTE_PERFBENCH_HARNESS_ASSEMBLY_H_
