// Layer replays for the traced benchmark run (README.md, "Per-layer
// metrics").
//
// Each replay re-draws the run's inputs from the workload's WorkloadSpec
// and seed — the arrival times, then the invocation mix in arrival order,
// exactly as OpenLoopDriver draws them — and times one layer's public
// function on that stream, in isolation from the rest of the stack.
#ifndef PALETTE_PERFBENCH_HARNESS_LAYERS_H_
#define PALETTE_PERFBENCH_HARNESS_LAYERS_H_

#include <cstdint>
#include <vector>

#include "harness/assembly.h"
#include "harness/spans.h"
#include "harness/workloads.h"

namespace palette::perfbench {

// Quantile q in [0, 1] of `values` (nearest rank); 0 when empty.
double QuantileOf(std::vector<double> values, double q);

// Replays ArrivalProcess::Next and InvocationMix::Sample over the run's
// streams, then the resulting color stream through a fresh
// PaletteLoadBalancer::RouteId and the object stream through a fresh
// FaastCache::Get / FaastCache::Put. Appends workload.arrival_next_ns.p50,
// workload.mix_sample_ns.p50, core.route_ns.{p50,p99} and
// cache.{get_ns.p50,get_ns.p99,put_ns.p50} to `out`. One span per replay
// phase is recorded under `parent`.
void ReplayLayers(const BenchWorkload& w, SpanRecorder* spans,
                  std::int32_t parent, MetricList* out);

}  // namespace palette::perfbench

#endif  // PALETTE_PERFBENCH_HARNESS_LAYERS_H_
