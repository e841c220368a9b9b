#include "src/common/instance_id.h"

#include <cassert>
#include <mutex>

namespace palette {

InstanceRegistry& InstanceRegistry::Global() {
  static InstanceRegistry* registry = new InstanceRegistry();
  return *registry;
}

InstanceId InstanceRegistry::Intern(std::string_view name) {
  return InternWithName(name).first;
}

std::pair<InstanceId, const std::string&> InstanceRegistry::InternWithName(
    std::string_view name) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const auto it = ids_.find(name);
    if (it != ids_.end()) {
      return {it->second, names_[it->second]};
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Re-check: another thread may have interned between the locks.
  const auto it = ids_.find(name);
  if (it != ids_.end()) {
    return {it->second, names_[it->second]};
  }
  const InstanceId id = static_cast<InstanceId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return {id, names_.back()};
}

std::optional<InstanceId> InstanceRegistry::Find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = ids_.find(name);
  if (it == ids_.end()) {
    return std::nullopt;
  }
  return it->second;
}

const std::string& InstanceRegistry::NameOf(InstanceId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  assert(id < names_.size());
  return names_[id];
}

std::size_t InstanceRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return names_.size();
}

}  // namespace palette
