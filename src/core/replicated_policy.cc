#include "src/core/replicated_policy.h"

#include <algorithm>
#include <cassert>

namespace palette {

ReplicatedColorPolicy::ReplicatedColorPolicy(std::uint64_t seed,
                                             ReplicatedColorConfig config)
    : PolicyBase(seed),
      config_(config),
      ring_(config.virtual_nodes, /*seed=*/seed ^ 0x5E7A11CAULL) {
  assert(config_.replicas >= 1);
  assert(config_.table_capacity > 0);
}

std::vector<std::string> ReplicatedColorPolicy::ReplicaSetOf(
    std::string_view color) const {
  return ring_.LookupN(color.substr(0, config_.max_color_bytes),
                       static_cast<std::size_t>(config_.replicas));
}

bool ReplicatedColorPolicy::IsHot(std::string_view color) const {
  if (!config_.adaptive) {
    return true;
  }
  const ColorState* state =
      table_.Peek(color.substr(0, config_.max_color_bytes));
  return state != nullptr && state->hot;
}

void ReplicatedColorPolicy::MaybeDecay() {
  if (!config_.adaptive ||
      ++routes_since_decay_ < config_.decay_interval) {
    return;
  }
  routes_since_decay_ = 0;
  window_total_ = 0;
  table_.ForEach([&](const std::string&, ColorState& state) {
    state.count /= 2;
    window_total_ += state.count;
  });
}

std::optional<InstanceId> ReplicatedColorPolicy::RouteColoredId(
    std::string_view color) {
  if (instance_ids().empty()) {
    return std::nullopt;
  }
  const std::string_view key = color.substr(0, config_.max_color_bytes);

  ColorState* state = table_.Touch(key);
  if (state == nullptr) {
    if (table_.size() >= config_.table_capacity) {
      window_total_ -= std::min(window_total_, table_.back().value.count);
      table_.PopBack();
    }
    state = &table_.InsertFront(key, ColorState{});
  }
  ++state->count;
  ++window_total_;
  MaybeDecay();

  if (config_.adaptive && window_total_ > 0) {
    // Hysteresis: enter hot at share > θ, exit only below θ/2. Decay
    // halves every count and the window total together, so decay alone
    // never flips the state — only a real share change does.
    const double share = static_cast<double>(state->count) /
                         static_cast<double>(window_total_);
    if (!state->hot && share > config_.hot_share_threshold) {
      state->hot = true;
    } else if (state->hot && share < config_.hot_share_threshold / 2) {
      state->hot = false;
    }
  }

  // Hot colors spread over the full replica set; cold ones keep one
  // instance (full locality). Non-adaptive mode treats everything as hot.
  const bool hot = !config_.adaptive || state->hot;
  const std::size_t set_size =
      hot ? static_cast<std::size_t>(config_.replicas) : 1;
  ring_.LookupNIds(key, set_size, &replica_buffer_);
  assert(!replica_buffer_.empty());
  const std::uint32_t cursor = state->cursor++;
  return replica_buffer_[cursor % replica_buffer_.size()];
}

void ReplicatedColorPolicy::OnInstanceAdded(const std::string& instance) {
  PolicyBase::OnInstanceAdded(instance);
  ring_.AddMember(instance);
}

void ReplicatedColorPolicy::OnInstanceRemoved(const std::string& instance) {
  PolicyBase::OnInstanceRemoved(instance);
  ring_.RemoveMember(instance);
}

std::size_t ReplicatedColorPolicy::StateBytes() const {
  return table_.size() * (config_.max_color_bytes + sizeof(std::uint32_t)) +
         ring_.member_count() * static_cast<std::size_t>(config_.virtual_nodes) *
             (sizeof(std::uint64_t) + 16);
}

}  // namespace palette
