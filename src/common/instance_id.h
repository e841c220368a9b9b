// Interned instance identifiers.
//
// Application instances are named by strings ("w0", "app1-w17", ...) at the
// API surface, but the routing hot path — color tables, routed counts,
// worker maps — previously hashed and compared those strings on every
// invocation. InstanceRegistry interns each name once into a dense
// InstanceId; ids hash as integers, compare in one instruction, and shrink
// per-color table entries from a 32-byte std::string to 4 bytes.
//
// The registry is process-global so the load balancer, policies, platform,
// and cache all agree on ids without plumbing a registry handle through
// every constructor. It is append-only (ids are never recycled — an
// instance that leaves and rejoins keeps its id) and thread-safe, because
// the parallel sweep runner interns from worker threads. NameOf returns a
// reference into a std::deque, which never relocates elements, so the
// reference stays valid without holding the lock.
#ifndef PALETTE_SRC_COMMON_INSTANCE_ID_H_
#define PALETTE_SRC_COMMON_INSTANCE_ID_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace palette {

using InstanceId = std::uint32_t;

inline constexpr InstanceId kInvalidInstanceId = 0xFFFFFFFFu;

class InstanceRegistry {
 public:
  static InstanceRegistry& Global();

  // Returns the id for `name`, interning it on first sight.
  InstanceId Intern(std::string_view name);
  // Intern that also returns the interned name (as NameOf would, stable for
  // the process lifetime) in the same lock round trip.
  std::pair<InstanceId, const std::string&> InternWithName(
      std::string_view name);

  // Returns the id for `name` if already interned.
  std::optional<InstanceId> Find(std::string_view name) const;

  // Name for an interned id. The reference is stable for the process
  // lifetime. `id` must have come from Intern.
  const std::string& NameOf(InstanceId id) const;

  std::size_t size() const;

 private:
  InstanceRegistry() = default;

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, InstanceId, StringHash, std::equal_to<>>
      ids_;
  std::deque<std::string> names_;  // index == id; deque: stable references
};

// Shorthands for the common conversions.
inline InstanceId InternInstance(std::string_view name) {
  return InstanceRegistry::Global().Intern(name);
}
inline const std::string& InstanceName(InstanceId id) {
  return InstanceRegistry::Global().NameOf(id);
}

}  // namespace palette

#endif  // PALETTE_SRC_COMMON_INSTANCE_ID_H_
