#include "src/core/bounded_load_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace palette {

BoundedLoadPolicy::BoundedLoadPolicy(std::uint64_t seed,
                                     BoundedLoadConfig config)
    : PolicyBase(seed),
      config_(config),
      ring_(config.virtual_nodes, /*seed=*/seed ^ 0xB07D10ADULL) {
  assert(config_.c_factor >= 1.0);
  assert(config_.table_capacity > 0);
}

std::size_t BoundedLoadPolicy::CapacityPerInstance() const {
  if (instance_ids().empty()) {
    return 0;
  }
  const double average = static_cast<double>(table_.size() + 1) /
                         static_cast<double>(instance_ids().size());
  return static_cast<std::size_t>(std::ceil(config_.c_factor * average));
}

std::size_t BoundedLoadPolicy::CountOf(InstanceId id) const {
  const auto it = assigned_counts_.find(id);
  return it == assigned_counts_.end() ? 0 : it->second;
}

std::optional<InstanceId> BoundedLoadPolicy::PlaceColor(
    std::string_view truncated) {
  const std::size_t capacity = CapacityPerInstance();
  ring_.LookupNIds(truncated, instance_ids().size(), &walk_buffer_);
  for (const InstanceId candidate : walk_buffer_) {
    if (CountOf(candidate) < capacity) {
      return candidate;
    }
  }
  // Every instance at the cap (possible when the table is full of stale
  // mappings): fall back to the globally least-assigned instance.
  std::optional<InstanceId> least;
  std::size_t least_count = 0;
  for (const InstanceId id : instance_ids()) {
    const std::size_t count = CountOf(id);
    if (!least.has_value() || count < least_count) {
      least = id;
      least_count = count;
    }
  }
  return least;
}

std::optional<InstanceId> BoundedLoadPolicy::RouteColoredId(
    std::string_view color) {
  if (instance_ids().empty()) {
    return std::nullopt;
  }
  const std::string_view key = color.substr(0, config_.max_color_bytes);
  if (InstanceId* assigned = table_.Touch(key)) {
    if (*assigned == kInvalidInstanceId) {
      const auto revived = PlaceColor(key);
      assert(revived.has_value());
      *assigned = *revived;
      ++assigned_counts_[*revived];
    }
    return *assigned;
  }
  const auto target = PlaceColor(key);
  assert(target.has_value());
  if (table_.size() >= config_.table_capacity) {
    EvictLru();
  }
  table_.InsertFront(key, *target);
  ++assigned_counts_[*target];
  return target;
}

void BoundedLoadPolicy::RemapColor(std::string_view color, InstanceId to,
                                   bool count_move) {
  const std::string_view key = color.substr(0, config_.max_color_bytes);
  InstanceId* const assigned = table_.Peek(key);
  if (assigned != nullptr && *assigned == to) {
    return;  // Already there (the common case for a passively learned route).
  }
  if (assigned_counts_.find(to) == assigned_counts_.end()) {
    return;  // Target left between snapshot and apply; skip the remap.
  }
  if (assigned != nullptr) {
    auto old_it = assigned_counts_.find(*assigned);
    if (old_it != assigned_counts_.end() && old_it->second > 0) {
      --old_it->second;
    }
    *assigned = to;
  } else {
    if (table_.size() >= config_.table_capacity) {
      EvictLru();
    }
    table_.InsertFront(key, to);
  }
  ++assigned_counts_[to];
  if (count_move) {
    ++planner_moves_;
  }
}

void BoundedLoadPolicy::ApplyPlan(const Plan& plan) {
  for (const PlanMerge& merge : plan.merges) {
    RemapColor(merge.color, merge.to, /*count_move=*/true);
  }
  for (const PlanMove& move : plan.moves) {
    RemapColor(move.color, move.to, /*count_move=*/true);
  }
  for (const PlanSplit& split : plan.splits) {
    if (!split.instances.empty()) {
      RemapColor(split.color, split.instances.front(), /*count_move=*/false);
    }
  }
}

void BoundedLoadPolicy::ObserveRoute(std::string_view color,
                                     InstanceId instance) {
  RemapColor(color, instance, /*count_move=*/false);
}

std::optional<InstanceId> BoundedLoadPolicy::PeekColorId(
    std::string_view color) const {
  const InstanceId* assigned =
      table_.Peek(color.substr(0, config_.max_color_bytes));
  if (assigned == nullptr || *assigned == kInvalidInstanceId) {
    return std::nullopt;
  }
  return *assigned;
}

void BoundedLoadPolicy::OnInstanceAdded(const std::string& instance) {
  PolicyBase::OnInstanceAdded(instance);
  ring_.AddMember(instance);
  assigned_counts_.try_emplace(InternInstance(instance), 0);
  // Existing mappings stay put (moving them would trade locality for
  // balance); the newcomer's spare capacity attracts new colors via the
  // capacity test.
}

void BoundedLoadPolicy::OnInstanceRemoved(const std::string& instance) {
  PolicyBase::OnInstanceRemoved(instance);
  ring_.RemoveMember(instance);
  const auto removed = InstanceRegistry::Global().Find(instance);
  if (!removed.has_value()) {
    return;
  }
  assigned_counts_.erase(*removed);
  // Only colors on the removed instance move: they re-walk their ring
  // order, preserving the bounded-load invariant. Each is a re-colored
  // mapping.
  table_.ForEach([&](const std::string& color, InstanceId& assigned) {
    if (assigned != *removed) {
      return;
    }
    ++recolored_;
    const auto target = PlaceColor(color);
    if (!target.has_value()) {
      assigned = kInvalidInstanceId;
      return;
    }
    assigned = *target;
    ++assigned_counts_[*target];
  });
}

void BoundedLoadPolicy::EvictLru() {
  auto it = assigned_counts_.find(table_.back().value);
  if (it != assigned_counts_.end() && it->second > 0) {
    --it->second;
  }
  table_.PopBack();
}

std::size_t BoundedLoadPolicy::AssignedCount(
    const std::string& instance) const {
  const auto id = InstanceRegistry::Global().Find(instance);
  return id.has_value() ? CountOf(*id) : 0;
}

double BoundedLoadPolicy::RelativeMaxAssigned() const {
  if (instance_ids().empty() || table_.empty()) {
    return 0;
  }
  std::size_t max = 0;
  std::size_t total = 0;
  for (const InstanceId id : instance_ids()) {
    const std::size_t count = CountOf(id);
    max = std::max(max, count);
    total += count;
  }
  const double avg = static_cast<double>(total) /
                     static_cast<double>(instance_ids().size());
  return avg > 0 ? static_cast<double>(max) / avg : 0;
}

std::size_t BoundedLoadPolicy::StateBytes() const {
  return table_.size() * (config_.max_color_bytes + 16) +
         ring_.member_count() * static_cast<std::size_t>(config_.virtual_nodes) *
             (sizeof(std::uint64_t) + 16);
}

}  // namespace palette
