// Placement snapshot: the planner's input (docs/PLANNER.md).
//
// A snapshot is a consistent, sim-clock-stamped view of one application:
// which instances exist, which color maps where, how hot each color has
// recently been (EWMA of per-window invocation counts), and how many cached
// bytes would have to move if the color were re-homed. The collector is
// deliberately read-only — it peeks the load balancer and cache without
// creating table entries or touching LRU order, so taking a snapshot never
// perturbs the state it observes.
#ifndef PALETTE_SRC_PLANNER_SNAPSHOT_H_
#define PALETTE_SRC_PLANNER_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/instance_id.h"
#include "src/common/types.h"
#include "src/core/color.h"

namespace palette {

class FaasPlatform;

// One color as the planner sees it.
struct ColorObservation {
  Color color;
  // Smoothed invocations per collection window: beta * latest_window +
  // (1 - beta) * previous. A burst decays instead of whipsawing the solver.
  double load_ewma = 0;
  // Migratable cache footprint at the current placement (bytes of objects
  // whose hash key is this color, resident in the placement's shard).
  Bytes cache_bytes = 0;
  // Dirty write-back bytes owned by the current placement under this color
  // (zero when the storage layer is disabled or the mode has no write
  // buffering). Re-homing such a color forces a flush before the haul, so
  // the planner prices these bytes above clean ones
  // (PlannerConfig::dirty_move_weight).
  Bytes dirty_bytes = 0;
  // Current primary placement (split colors report their primary);
  // kInvalidInstanceId when the policy has no mapping yet.
  InstanceId placement = kInvalidInstanceId;
  // Split state, for hysteresis and merge detection.
  bool split = false;
  std::vector<InstanceId> split_members;
};

struct PlacementSnapshot {
  SimTime taken;
  std::vector<InstanceId> instances;      // name-sorted, live members
  std::vector<ColorObservation> colors;   // sorted by color name

  double total_load() const {
    double total = 0;
    for (const ColorObservation& c : colors) {
      total += c.load_ewma;
    }
    return total;
  }
};

// Stateful collector: remembers each color's cumulative count from the
// previous collection so it can difference out the latest window, and keeps
// the EWMA across windows. One collector per platform.
class SnapshotCollector {
 public:
  explicit SnapshotCollector(double ewma_beta) : beta_(ewma_beta) {}

  // Requires the platform's LB to have color stats enabled (the planner
  // runtime turns them on); colors never routed since the last collection
  // keep decaying toward zero.
  PlacementSnapshot Collect(FaasPlatform& platform);

 private:
  struct ColorState {
    const std::string* name;       // key node in the LB's color_counts()
    const std::uint64_t* count;    // its cumulative route count
    std::uint64_t last_count = 0;  // *count at the previous collection
    double ewma = 0;
  };

  // Re-lists `counts` into colors_, name-sorted, carrying each known
  // color's state over.
  void Relist(const std::unordered_map<std::string, std::uint64_t>& counts);

  double beta_;
  // Every color the LB has counted, sorted by name. The LB's count map
  // only grows and its nodes never move, so these pointers stay valid and
  // the list is re-sorted only in rounds where new colors appeared.
  std::vector<ColorState> colors_;
};

}  // namespace palette

#endif  // PALETTE_SRC_PLANNER_SNAPSHOT_H_
