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

  // Colors come from the LB's opt-in per-color counters, in name order so
  // the snapshot (and everything the solver derives from it) has one
  // canonical order regardless of hash-map iteration.
  if (colors_.size() != lb.color_counts().size()) {
    Relist(lb.color_counts());
  }

  snapshot.colors.reserve(colors_.size());
  for (ColorState& state : colors_) {
    const std::string& name = *state.name;
    const std::uint64_t count = *state.count;
    const std::uint64_t window =
        count >= state.last_count ? count - state.last_count : 0;
    state.last_count = count;
    state.ewma = beta_ * static_cast<double>(window) +
                 (1.0 - beta_) * state.ewma;

    ColorObservation obs;
    obs.color = name;
    obs.load_ewma = state.ewma;
    const auto placement = lb.PeekColorId(name);
    if (placement.has_value()) {
      obs.placement = *placement;
      obs.cache_bytes = platform.cache().KeyBytes(*placement, name);
      if (platform.storage_layer() != nullptr) {
        obs.dirty_bytes =
            platform.storage_layer()->DirtyBytesOwnedBy(*placement, name);
      }
    }
    obs.split = lb.IsSplit(name);
    if (obs.split) {
      obs.split_members = lb.SplitMembers(name);
    }
    snapshot.colors.push_back(std::move(obs));
  }
  return snapshot;
}

void SnapshotCollector::Relist(
    const std::unordered_map<std::string, std::uint64_t>& counts) {
  std::vector<ColorState> listed;
  listed.reserve(counts.size());
  for (const auto& [name, count] : counts) {
    listed.push_back(ColorState{&name, &count});
  }
  std::sort(listed.begin(), listed.end(),
            [](const ColorState& a, const ColorState& b) {
              return *a.name < *b.name;
            });
  // Both lists are name-sorted and every known color is still counted, so
  // one merge walk carries the states over (same node, same pointer).
  std::size_t known = 0;
  for (ColorState& state : listed) {
    if (known < colors_.size() && colors_[known].name == state.name) {
      state.last_count = colors_[known].last_count;
      state.ewma = colors_[known].ewma;
      ++known;
    }
  }
  colors_ = std::move(listed);
}

}  // namespace palette
