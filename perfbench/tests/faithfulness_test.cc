// Faithfulness self-test: the benchmark's own assembly — traced, with every
// timing wrapper and its own planner loop, and untraced — must reproduce
// what the library harnesses produce for the same spec and seed. If it did
// not, the benchmark would be measuring a different simulation than the one
// RunWorkload / RunRouterWorkload users run.
#include <string>

#include <gtest/gtest.h>

#include "harness/assembly.h"
#include "harness/workloads.h"
#include "src/workload/spec.h"

namespace palette::perfbench {
namespace {

// Small horizons: a few seconds of simulated traffic, a handful of planner
// rounds on all_features.
constexpr double kScale = 0.02;

double Layer(const RunOutcome& r, const std::string& name) {
  for (const auto& [metric, value] : r.layers) {
    if (metric == name) {
      return value;
    }
  }
  ADD_FAILURE() << "missing layer metric " << name;
  return -1;
}

WorkloadRunResult Reference(const BenchWorkload& w) {
  const PlannerConfig* planner = w.planner.enabled() ? &w.planner : nullptr;
  if (w.tier.routers > 0) {
    return RunRouterWorkload(w.spec, w.policy, w.workers, w.tier, w.slo,
                             w.platform, nullptr, nullptr, planner);
  }
  return RunWorkload(w.spec, w.policy, w.workers, w.slo, w.platform, nullptr,
                     nullptr, planner);
}

void ExpectSameRun(const WorkloadRunResult& ref, const RunOutcome& got) {
  EXPECT_EQ(got.samples_digest, ref.samples_digest);
  EXPECT_EQ(got.sim_events, ref.sim_events);
  EXPECT_EQ(got.books.platform_submitted, ref.platform_submitted);
  EXPECT_EQ(got.books.platform_completed, ref.platform_completed);
  EXPECT_EQ(got.books.platform_dropped, ref.platform_dropped);
  EXPECT_EQ(got.books.platform_abandoned, ref.platform_abandoned);
  EXPECT_EQ(got.books.retries, ref.retries);
  EXPECT_EQ(got.books.router_routes, ref.router_routes);
  EXPECT_EQ(got.books.storage.writes_total, ref.storage.writes_total);
  EXPECT_EQ(got.books.storage.writes_durable, ref.storage.writes_durable);
  EXPECT_EQ(got.books.storage.writes_lost, ref.storage.writes_lost);
  EXPECT_EQ(got.report.p99_ms, ref.report.p99_ms);
  EXPECT_EQ(got.report.local_hit_ratio, ref.report.local_hit_ratio);
}

class FaithfulnessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FaithfulnessTest, AssemblyReproducesLibraryHarness) {
  BenchWorkload w;
  ASSERT_TRUE(MakeWorkload(GetParam(), 7, kScale, &w));
  const WorkloadRunResult ref = Reference(w);
  ASSERT_GT(ref.platform_submitted, 0u);

  const RunOutcome untraced = RunBenchWorkload(w, 2, nullptr);
  ExpectSameRun(ref, untraced);

  SpanRecorder spans;
  const RunOutcome traced = RunBenchWorkload(w, 1, &spans);
  ExpectSameRun(ref, traced);
  EXPECT_EQ(Layer(traced, "planner.rounds"),
            static_cast<double>(ref.planner_rounds));
  EXPECT_EQ(Layer(traced, "planner.moves"),
            static_cast<double>(ref.planner_moves));
  EXPECT_EQ(Layer(traced, "faas.cold_starts"),
            static_cast<double>(ref.cold_starts));
  EXPECT_EQ(Layer(traced, "faas.pulls"), static_cast<double>(ref.pulls));
  EXPECT_EQ(Layer(traced, "faas.steals"), static_cast<double>(ref.steals));
  EXPECT_EQ(Layer(traced, "core.routing_imbalance"), ref.routing_imbalance);
  if (w.planner.enabled()) {
    EXPECT_GT(ref.planner_rounds, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(MonolithicWorkloads, FaithfulnessTest,
                         ::testing::Values("read_steady", "all_features"));

}  // namespace
}  // namespace palette::perfbench
