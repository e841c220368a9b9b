#include "src/planner/snapshot.h"

#include <algorithm>

#include "src/faas/platform.h"

namespace palette {

PlacementSnapshot SnapshotCollector::Collect(FaasPlatform& platform) {
  PlacementSnapshot snapshot;
  snapshot.taken = platform.simulator().Now();

  PaletteLoadBalancer& lb = platform.load_balancer();
  for (const std::string& name : lb.instances()) {
    const auto id = InstanceRegistry::Global().Find(name);
    if (id.has_value()) {
      snapshot.instances.push_back(*id);
    }
  }

  // Colors come from the LB's opt-in per-color counters; sort names so the
  // snapshot (and everything the solver derives from it) has one canonical
  // order regardless of hash-map iteration.
  std::vector<const std::string*> names;
  names.reserve(lb.color_counts().size());
  for (const auto& [color, count] : lb.color_counts()) {
    (void)count;
    names.push_back(&color);
  }
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  snapshot.colors.reserve(names.size());
  for (const std::string* name : names) {
    const std::uint64_t count = lb.color_counts().at(*name);
    ColorState& state = state_[*name];
    const std::uint64_t window =
        count >= state.last_count ? count - state.last_count : 0;
    state.last_count = count;
    state.ewma = beta_ * static_cast<double>(window) +
                 (1.0 - beta_) * state.ewma;

    ColorObservation obs;
    obs.color = *name;
    obs.load_ewma = state.ewma;
    const auto placement = lb.PeekColorId(*name);
    if (placement.has_value()) {
      obs.placement = *placement;
      const std::string& home = InstanceName(*placement);
      obs.cache_bytes = platform.cache().KeyBytes(home, *name);
      if (platform.storage_layer() != nullptr) {
        obs.dirty_bytes =
            platform.storage_layer()->DirtyBytesOwnedBy(home, *name);
      }
    }
    obs.split = lb.IsSplit(*name);
    if (obs.split) {
      obs.split_members = lb.SplitMembers(*name);
    }
    snapshot.colors.push_back(std::move(obs));
  }
  return snapshot;
}

}  // namespace palette
