// Consistent Hashing with Bounded Loads — research extension.
//
// The paper's Consistent Hashing policy needs no per-color state but
// "produces load imbalance that can significantly impact the runtime of
// functions", citing Mirrokni, Thorup & Zadimoghaddam [57] for the fix.
// This policy implements that fix in Palette's setting, going beyond what
// the paper evaluates (it is NOT one of the paper's three policies):
//
//   * A color walks its consistent-hash ring order and settles on the
//     first instance whose assigned-color count is below the capacity
//     ceil(c_factor * average), guaranteeing max/avg <= c_factor.
//   * Settled mappings are remembered in an LRU-capped table (the same
//     16,384-entry budget as Least Assigned) so routing stays sticky.
//   * On membership change only colors that must move do: mappings to
//     removed instances re-walk their ring order; everything else stays —
//     the property plain LA lacks, since LA's least-loaded choice ignores
//     the ring.
#ifndef PALETTE_SRC_CORE_BOUNDED_LOAD_POLICY_H_
#define PALETTE_SRC_CORE_BOUNDED_LOAD_POLICY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/lru_map.h"
#include "src/core/color_scheduling_policy.h"
#include "src/hash/consistent_hash_ring.h"

namespace palette {

struct BoundedLoadConfig {
  // Load cap factor c: an instance accepts a new color only while its
  // assigned count < ceil(c * average). Mirrokni et al. recommend small
  // constants; 1.25 keeps relative max load below 1.25 with short walks.
  double c_factor = 1.25;
  std::size_t table_capacity = kDefaultColorTableCapacity;
  std::size_t max_color_bytes = kMaxColorBytes;
  int virtual_nodes = 128;
};

class BoundedLoadPolicy : public PolicyBase {
 public:
  explicit BoundedLoadPolicy(std::uint64_t seed, BoundedLoadConfig config = {});

  std::optional<InstanceId> RouteColoredId(std::string_view color) override;
  void OnInstanceAdded(const std::string& instance) override;
  void OnInstanceRemoved(const std::string& instance) override;
  std::size_t StateBytes() const override;
  std::string_view name() const override {
    return "Palette: CH Bounded Loads";
  }

  // Plan+apply: the sticky table makes CH-BL plannable; planned remaps may
  // exceed the walk's capacity bound until organic churn restores it.
  bool supports_planning() const override { return true; }
  void ApplyPlan(const Plan& plan) override;
  std::optional<InstanceId> PeekColorId(std::string_view color) const override;
  void ObserveRoute(std::string_view color, InstanceId instance) override;

  std::size_t table_size() const { return table_.size(); }
  std::size_t AssignedCount(const std::string& instance) const;
  // Relative maximum assigned-color load (max/avg); bounded by c_factor
  // whenever every instance's count is at the walk's mercy (i.e. table not
  // dominated by stale mappings).
  double RelativeMaxAssigned() const;

 private:
  // First instance in `color`'s ring order with spare capacity (falls back
  // to the globally least-assigned when every instance is at the cap).
  std::optional<InstanceId> PlaceColor(std::string_view truncated);
  std::size_t CountOf(InstanceId id) const;
  void EvictLru();
  std::size_t CapacityPerInstance() const;
  void RemapColor(std::string_view color, InstanceId to, bool count_move);

  BoundedLoadConfig config_;
  ConsistentHashRing ring_;
  // Truncated color -> settled instance (kInvalidInstanceId while
  // dormant), in recency order.
  LruMap<InstanceId> table_;
  std::unordered_map<InstanceId, std::size_t> assigned_counts_;
  std::vector<InstanceId> walk_buffer_;  // scratch for ring walks
};

}  // namespace palette

#endif  // PALETTE_SRC_CORE_BOUNDED_LOAD_POLICY_H_
