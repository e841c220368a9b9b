// Invocation mix models: what each arrival actually invokes.
//
// A mix draws, per arrival, (1) a color from a Zipf popularity law whose
// hot set can churn over simulated time, (2) a function from a weighted
// function mix, and (3) the invocation's CPU demand and input objects, with
// sizes from a quantile (inverse-CDF) distribution. Object sizes are a
// deterministic function of the object's identity — the same object always
// has the same size, run to run, so cache contents and therefore hit
// ratios are reproducible.
//
// Hot-set churn models popularity drift (yesterday's viral post cools off,
// a new one takes over): every `churn_interval` the mapping from Zipf rank
// to color id rotates by `churn_step`, so the identity of the hot colors
// shifts while the popularity *shape* stays Zipfian. Locality-aware
// policies must then re-warm caches for the newly hot colors — exactly the
// regime where Faa$T-style locality benefits are workload-dependent.
#ifndef PALETTE_SRC_WORKLOAD_MIX_H_
#define PALETTE_SRC_WORKLOAD_MIX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/distributions.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/faas/invocation.h"

namespace palette {

struct MixConfig {
  // Color population and popularity skew (the paper uses theta=0.9 for
  // social-network user selection).
  std::uint64_t color_count = 512;
  double zipf_theta = 0.9;

  // Hot-set churn: every interval, rank->color rotates by churn_step ids.
  // A zero interval or step disables churn.
  SimTime churn_interval;
  std::uint64_t churn_step = 0;

  // Weighted function mix; cpu_ops is the per-function mean, and each
  // invocation draws uniformly in [0.5, 1.5) of it.
  struct FunctionSpec {
    std::string name = "f";
    double weight = 1.0;
    double cpu_ops = 2e6;
  };
  std::vector<FunctionSpec> functions = {FunctionSpec{}};

  // Each invocation reads `inputs_per_invocation` objects of its color,
  // chosen uniformly from the color's `objects_per_color` objects. Sizes
  // come from `size_quantiles` (defaults to an Instagram-media-like
  // distribution from src/common/distributions.h idiom), keyed by object
  // identity.
  int inputs_per_invocation = 1;
  std::uint64_t objects_per_color = 4;
  std::vector<QuantileDistribution::Point> size_quantiles = {
      {0.0, 16.0 * kKiB},  {0.5, 64.0 * kKiB}, {0.9, 256.0 * kKiB},
      {0.99, 1.0 * kMiB},  {1.0, 4.0 * kMiB},
  };

  // Fraction of invocations that also write one object of their color back
  // through the cache (bounded object population: writes reuse input
  // names, so the working set never grows).
  double write_fraction = 0.0;
};

// One sampled arrival: the platform-ready spec plus the numeric identities
// the SLO scorer buckets by.
struct MixedInvocation {
  InvocationSpec spec;
  std::uint32_t color_id = 0;
  std::uint16_t function_index = 0;
};

class InvocationMix {
 public:
  explicit InvocationMix(MixConfig config);

  // Draws one invocation for an arrival at simulated time `now`. The
  // caller supplies the Rng so the driver owns a single stream.
  MixedInvocation Sample(SimTime now, Rng& rng) const;

  // Sample for a caller that keeps only some colors (a worker group of a
  // sharded run replaying the whole arrival stream): builds the invocation
  // into `out` only when `keep` is empty or holds for its color id, and
  // returns whether it did. Either way it consumes exactly the random
  // numbers Sample would, so the Rng stays in step with the stream.
  bool SampleIf(SimTime now, Rng& rng,
                const std::function<bool(std::uint32_t color_id)>& keep,
                MixedInvocation* out) const;

  // The routing hint Sample puts on an invocation of `color_id`.
  static std::string ColorName(std::uint32_t color_id);

  // The color id that Zipf rank `rank` maps to at time `now`; exposed so
  // tests can assert the hot set actually moves.
  std::uint32_t ColorIdForRank(std::uint64_t rank, SimTime now) const;

  // Deterministic size of object `obj` of color `color_id`.
  Bytes ObjectSize(std::uint32_t color_id, std::uint64_t obj) const;

  const MixConfig& config() const { return config_; }

 private:
  // The draws of Sample that follow the color, in Sample's order. Builds
  // the invocation into `out` unless it is null.
  void DrawRest(std::uint32_t color_id, Rng& rng, MixedInvocation* out) const;

  MixConfig config_;
  ZipfDistribution zipf_;
  std::vector<double> function_cdf_;  // cumulative weights, normalized
  QuantileDistribution sizes_;
};

}  // namespace palette

#endif  // PALETTE_SRC_WORKLOAD_MIX_H_
