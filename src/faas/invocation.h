// Invocation descriptions for the simulated FaaS platform.
//
// An invocation names a function, optionally carries a Palette color (§4),
// declares the objects it reads and writes through the Faa$T cache, and its
// CPU demand. Object names may carry the "<key>___<rest>" hashing-key prefix
// from §5.1; the platform translates color prefixes to instance names before
// touching the cache.
#ifndef PALETTE_SRC_FAAS_INVOCATION_H_
#define PALETTE_SRC_FAAS_INVOCATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/color.h"
#include "src/storage/storage_types.h"

namespace palette {

struct ObjectRef {
  std::string name;
  // Expected size; used when the object must come from backing storage
  // (cache hits report the cached size).
  Bytes size = 0;
};

struct InvocationSpec {
  std::string function;
  std::optional<Color> color;
  // CPU demand in abstract operations; divided by the platform's
  // ops-per-second rating to get compute time.
  double cpu_ops = 0;
  // Per-attempt time budget, measured from (re-)submission. An attempt
  // still incomplete when the budget expires is cancelled on its worker
  // (unexecuted CPU time refunded) and handled as a failure — retried if
  // the platform's RetryPolicy allows, otherwise dropped. Zero means "use
  // the platform's default_deadline"; if that is zero too, no deadline.
  SimTime deadline;
  std::vector<ObjectRef> inputs;
  std::vector<ObjectRef> outputs;
  // Per-invocation coherence override for this invocation's output writes
  // (docs/STORAGE.md): the objects it produces take this mode instead of
  // the platform's run-wide StorageConfig::mode. Nullopt (the default)
  // uses the run mode. Ignored when the storage layer is disabled.
  std::optional<CoherenceMode> coherence;
};

struct InvocationResult {
  std::uint64_t id = 0;
  std::string instance;  // where it ran (the final, successful attempt)
  int attempts = 1;      // tries this invocation took (1 = no retries)
  SimTime submitted;     // entered the load balancer (first attempt; kept
                         // across retries so e2e latency spans the backoffs)
  SimTime dispatched;    // left the load balancer (incl. any cold start)
  SimTime fetch_start;   // popped from the worker's FIFO; input fetch began
  SimTime inputs_ready;  // all inputs fetched
  SimTime compute_done;
  SimTime completed;     // outputs stored
  SimTime cold_start;    // cold-start share of dispatch (zero when warm)
  int local_hits = 0;
  int remote_hits = 0;
  int misses = 0;
  Bytes network_bytes = 0;  // bytes pulled over the network (remote + storage)
  // Routing-tier replica (src/router) that routed the latest attempt, or -1
  // when the platform's own load balancer routed it directly.
  std::int32_t router = -1;
};

}  // namespace palette

#endif  // PALETTE_SRC_FAAS_INVOCATION_H_
