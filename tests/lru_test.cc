// Tests for LruMap and the structures built on it (LruCache and the Least
// Assigned color table). The differential tests keep the previous
// list+map implementations below as reference models and drive both sides
// with the same seeded random operation sequences: hit/miss results,
// eviction order, eviction-hook arguments, recency order and every color's
// mapping must agree after every step.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cache/lru_cache.h"
#include "src/common/instance_id.h"
#include "src/common/lru_map.h"
#include "src/common/rng.h"
#include "src/common/string_hash.h"
#include "src/common/table_printer.h"
#include "src/core/least_assigned_policy.h"

namespace palette {
namespace {

std::vector<std::pair<std::string, int>> Contents(const LruMap<int>& map) {
  std::vector<std::pair<std::string, int>> out;
  map.ForEach([&](const std::string& key, int value) {
    out.emplace_back(key, value);
  });
  return out;
}

using Items = std::vector<std::pair<std::string, int>>;

TEST(LruMapTest, InsertFrontOrdersMostRecentFirst) {
  LruMap<int> map;
  EXPECT_TRUE(map.empty());
  map.InsertFront("a", 1);
  map.InsertFront("b", 2);
  map.InsertFront("c", 3);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(Contents(map), (Items{{"c", 3}, {"b", 2}, {"a", 1}}));
  EXPECT_EQ(map.back().key, "a");
  EXPECT_EQ(map.back().value, 1);
}

TEST(LruMapTest, TouchPromotesAndPeekDoesNot) {
  LruMap<int> map;
  map.InsertFront("a", 1);
  map.InsertFront("b", 2);
  map.InsertFront("c", 3);
  ASSERT_NE(map.Peek("a"), nullptr);
  EXPECT_EQ(*map.Peek("a"), 1);
  EXPECT_EQ(map.back().key, "a");  // the peek left a least-recent

  int* a = map.Touch("a");
  ASSERT_NE(a, nullptr);
  *a = 10;
  EXPECT_EQ(Contents(map), (Items{{"a", 10}, {"c", 3}, {"b", 2}}));
  // Touching the head keeps the order.
  map.Touch("a");
  EXPECT_EQ(Contents(map), (Items{{"a", 10}, {"c", 3}, {"b", 2}}));
  // Touching the middle moves it to the front.
  map.Touch("c");
  EXPECT_EQ(Contents(map), (Items{{"c", 3}, {"a", 10}, {"b", 2}}));

  EXPECT_EQ(map.Touch("missing"), nullptr);
  EXPECT_EQ(map.Peek("missing"), nullptr);
  EXPECT_FALSE(map.Contains("missing"));
  EXPECT_TRUE(map.Contains("b"));
}

TEST(LruMapTest, PopBackRemovesLeastRecentUntilEmpty) {
  LruMap<int> map;
  map.InsertFront("a", 1);
  map.InsertFront("b", 2);
  map.InsertFront("c", 3);
  map.Touch("a");  // order: a c b
  map.PopBack();
  EXPECT_FALSE(map.Contains("b"));
  EXPECT_EQ(Contents(map), (Items{{"a", 1}, {"c", 3}}));
  map.PopBack();
  EXPECT_EQ(Contents(map), (Items{{"a", 1}}));
  EXPECT_EQ(map.back().key, "a");
  map.PopBack();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(Contents(map), Items{});
  // A drained map links new entries from scratch.
  map.InsertFront("d", 4);
  EXPECT_EQ(Contents(map), (Items{{"d", 4}}));
  EXPECT_EQ(map.back().key, "d");
}

TEST(LruMapTest, EraseHeadTailAndMiddleKeepsLinks) {
  LruMap<int> map;
  for (const char* key : {"a", "b", "c", "d", "e"}) {
    map.InsertFront(key, key[0] - 'a');
  }
  // order: e d c b a
  EXPECT_TRUE(map.Erase("c"));  // middle
  EXPECT_EQ(Contents(map), (Items{{"e", 4}, {"d", 3}, {"b", 1}, {"a", 0}}));
  EXPECT_TRUE(map.Erase("e"));  // head
  EXPECT_EQ(Contents(map), (Items{{"d", 3}, {"b", 1}, {"a", 0}}));
  EXPECT_TRUE(map.Erase("a"));  // tail
  EXPECT_EQ(Contents(map), (Items{{"d", 3}, {"b", 1}}));
  EXPECT_EQ(map.back().key, "b");
  EXPECT_FALSE(map.Erase("a"));
  EXPECT_EQ(map.size(), 2u);
  // Promotion still works across the repaired links.
  map.Touch("b");
  EXPECT_EQ(Contents(map), (Items{{"b", 1}, {"d", 3}}));
  EXPECT_EQ(map.back().key, "d");
}

TEST(LruMapTest, ReinsertAfterEraseLandsAtFront) {
  LruMap<int> map;
  map.InsertFront("a", 1);
  map.InsertFront("b", 2);
  map.InsertFront("c", 3);
  ASSERT_TRUE(map.Erase("a"));
  map.InsertFront("a", 7);
  EXPECT_EQ(Contents(map), (Items{{"a", 7}, {"c", 3}, {"b", 2}}));
  ASSERT_TRUE(map.Erase("c"));
  map.InsertFront("c", 8);
  EXPECT_EQ(Contents(map), (Items{{"c", 8}, {"a", 7}, {"b", 2}}));
}

TEST(LruMapTest, LinksSurviveRehashAndClearResets) {
  LruMap<int> map;
  for (int i = 0; i < 100; ++i) {
    // Appended rather than "k" + std::to_string(i), which draws a GCC 12
    // -Wrestrict false positive.
    std::string key = "k";
    key += std::to_string(i);
    map.InsertFront(key, i);  // rehashes several times
  }
  map.Touch("k0");
  const Items contents = Contents(map);
  ASSERT_EQ(contents.size(), 100u);
  EXPECT_EQ(contents.front(), (std::pair<std::string, int>{"k0", 0}));
  EXPECT_EQ(contents[1], (std::pair<std::string, int>{"k99", 99}));
  EXPECT_EQ(map.back().key, "k1");

  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(Contents(map), Items{});
  map.InsertFront("x", 1);
  EXPECT_EQ(Contents(map), (Items{{"x", 1}}));
}

TEST(LruMapTest, ForEachCanUpdateValuesInPlace) {
  LruMap<int> map;
  map.InsertFront("a", 1);
  map.InsertFront("b", 2);
  map.ForEach([](const std::string&, int& value) { value *= 10; });
  EXPECT_EQ(Contents(map), (Items{{"b", 20}, {"a", 10}}));
}

// ---------------------------------------------------------------------------
// Reference model: the byte-capacity LRU cache as it was implemented before
// LruMap (a std::list in recency order plus a map of list iterators).
class ReferenceLruCache {
 public:
  explicit ReferenceLruCache(Bytes capacity) : capacity_(capacity) {}

  bool Get(const std::string& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return false;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  bool Contains(const std::string& key) const { return map_.count(key) > 0; }
  Bytes SizeOf(const std::string& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? 0 : it->second->size;
  }
  bool Put(const std::string& key, Bytes size) {
    if (capacity_ != 0 && size > capacity_) {
      return false;
    }
    auto it = map_.find(key);
    if (it != map_.end()) {
      used_ -= it->second->size;
      it->second->size = size;
      used_ += size;
      lru_.splice(lru_.begin(), lru_, it->second);
      EvictUntilFits(0);
      return true;
    }
    EvictUntilFits(size);
    lru_.push_front(Entry{key, size});
    map_[key] = lru_.begin();
    used_ += size;
    return true;
  }
  bool Erase(const std::string& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    used_ -= it->second->size;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }
  void ForEach(const std::function<void(const std::string&, Bytes)>& fn) const {
    for (const Entry& entry : lru_) {
      fn(entry.key, entry.size);
    }
  }
  void set_eviction_hook(std::function<void(const std::string&, Bytes)> hook) {
    eviction_hook_ = std::move(hook);
  }
  Bytes used_bytes() const { return used_; }
  std::size_t object_count() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::string key;
    Bytes size;
  };
  using List = std::list<Entry>;

  void EvictUntilFits(Bytes incoming) {
    if (capacity_ == 0) {
      return;
    }
    while (!lru_.empty() && used_ + incoming > capacity_) {
      const Entry& victim = lru_.back();
      used_ -= victim.size;
      ++evictions_;
      map_.erase(victim.key);
      if (eviction_hook_) {
        eviction_hook_(victim.key, victim.size);
      }
      lru_.pop_back();
    }
  }

  Bytes capacity_;
  Bytes used_ = 0;
  List lru_;
  std::unordered_map<std::string, List::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::function<void(const std::string&, Bytes)> eviction_hook_;
};

using Resident = std::vector<std::pair<std::string, Bytes>>;

template <typename Cache>
Resident ResidentOf(const Cache& cache) {
  Resident out;
  cache.ForEach([&](const std::string& key, Bytes size) {
    out.emplace_back(key, size);
  });
  return out;
}

TEST(LruDifferentialTest, LruCacheMatchesListAndMapReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Bytes capacity = 60 + 20 * (seed % 4);
    LruCache cache(capacity);
    ReferenceLruCache reference(capacity);
    Resident evicted;
    Resident reference_evicted;
    cache.set_eviction_hook([&](const std::string& key, Bytes size) {
      evicted.emplace_back(key, size);
    });
    reference.set_eviction_hook([&](const std::string& key, Bytes size) {
      reference_evicted.emplace_back(key, size);
    });

    Rng rng(seed);
    for (int step = 0; step < 2000; ++step) {
      const std::string key = StrFormat("c%u___o%u",
                                        static_cast<unsigned>(rng.NextBelow(4)),
                                        static_cast<unsigned>(rng.NextBelow(8)));
      const std::uint64_t op = rng.NextBelow(10);
      if (op < 4) {
        const std::optional<Bytes> hit = cache.Get(key);
        const bool reference_hit = reference.Get(key);
        ASSERT_EQ(hit.has_value(), reference_hit) << "seed " << seed;
        if (reference_hit) {
          ASSERT_EQ(*hit, reference.SizeOf(key));
        }
      } else if (op < 8) {
        // Occasionally larger than the whole capacity (not admitted) or
        // zero-sized; refreshes of resident keys resize them.
        const Bytes size = rng.NextBelow(20) == 0 ? capacity + 1
                                                  : rng.NextBelow(30);
        ASSERT_EQ(cache.Put(key, size), reference.Put(key, size));
      } else if (op < 9) {
        ASSERT_EQ(cache.Erase(key), reference.Erase(key));
      } else {
        ASSERT_EQ(cache.Contains(key), reference.Contains(key));
        ASSERT_EQ(cache.SizeOf(key), reference.SizeOf(key));
        ASSERT_EQ(cache.Peek(key).value_or(0), reference.SizeOf(key));
      }
      ASSERT_EQ(evicted, reference_evicted) << "seed " << seed;
      ASSERT_EQ(ResidentOf(cache), ResidentOf(reference)) << "seed " << seed;
      ASSERT_EQ(cache.used_bytes(), reference.used_bytes());
      ASSERT_EQ(cache.object_count(), reference.object_count());
      ASSERT_EQ(cache.hits(), reference.hits());
      ASSERT_EQ(cache.misses(), reference.misses());
      ASSERT_EQ(cache.evictions(), reference.evictions());
    }
    EXPECT_GT(cache.evictions(), 0u) << "seed " << seed;
  }
}

// Reference model: the Least Assigned color table as it was implemented
// before LruMap, on the same PolicyBase instance bookkeeping.
class ReferenceLeastAssigned : public PolicyBase {
 public:
  ReferenceLeastAssigned(std::uint64_t seed, LeastAssignedConfig config)
      : PolicyBase(seed), config_(config) {}

  std::optional<InstanceId> RouteColoredId(std::string_view color) override {
    if (instance_ids().empty()) {
      return std::nullopt;
    }
    const std::string_view key = color.substr(0, config_.max_color_bytes);
    auto it = table_.find(key);
    if (it != table_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      if (it->second->instance == kInvalidInstanceId) {
        const auto revived = LeastLoadedInstance();
        it->second->instance = *revived;
        ++assigned_counts_[*revived];
      }
      return it->second->instance;
    }
    const auto target = LeastLoadedInstance();
    if (table_.size() >= config_.table_capacity) {
      EvictLru();
    }
    lru_.push_front(Entry{std::string(key), *target});
    table_.emplace(lru_.front().color, lru_.begin());
    ++assigned_counts_[*target];
    return target;
  }
  void OnInstanceAdded(const std::string& instance) override {
    PolicyBase::OnInstanceAdded(instance);
    assigned_counts_.try_emplace(InternInstance(instance), 0);
  }
  void OnInstanceRemoved(const std::string& instance) override {
    PolicyBase::OnInstanceRemoved(instance);
    const auto removed = InstanceRegistry::Global().Find(instance);
    if (!removed.has_value()) {
      return;
    }
    assigned_counts_.erase(*removed);
    for (auto& entry : lru_) {
      if (entry.instance != *removed) {
        continue;
      }
      ++recolored_;
      const auto target = LeastLoadedInstance();
      if (!target.has_value()) {
        entry.instance = kInvalidInstanceId;
        continue;
      }
      entry.instance = *target;
      ++assigned_counts_[*target];
    }
  }
  std::size_t StateBytes() const override { return 0; }
  std::string_view name() const override { return "reference"; }
  void ObserveRoute(std::string_view color, InstanceId instance) override {
    RemapColor(color, instance, /*count_move=*/false);
  }
  void ApplyPlan(const Plan& plan) override {
    for (const PlanMove& move : plan.moves) {
      RemapColor(move.color, move.to, /*count_move=*/true);
    }
  }
  std::optional<InstanceId> PeekColorId(std::string_view color) const override {
    const std::string_view key = color.substr(0, config_.max_color_bytes);
    const auto it = table_.find(key);
    if (it == table_.end() || it->second->instance == kInvalidInstanceId) {
      return std::nullopt;
    }
    return it->second->instance;
  }

  std::size_t table_size() const { return table_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  std::size_t CountOf(InstanceId id) const {
    const auto it = assigned_counts_.find(id);
    return it == assigned_counts_.end() ? 0 : it->second;
  }

 private:
  struct Entry {
    std::string color;
    InstanceId instance = kInvalidInstanceId;
  };
  using List = std::list<Entry>;

  std::optional<InstanceId> LeastLoadedInstance() const {
    std::optional<InstanceId> best;
    std::size_t best_count = 0;
    for (const InstanceId id : instance_ids()) {
      const std::size_t count = CountOf(id);
      if (!best.has_value() || count < best_count) {
        best = id;
        best_count = count;
      }
    }
    return best;
  }
  void EvictLru() {
    const Entry& victim = lru_.back();
    auto count_it = assigned_counts_.find(victim.instance);
    if (count_it != assigned_counts_.end() && count_it->second > 0) {
      --count_it->second;
    }
    table_.erase(victim.color);
    lru_.pop_back();
    ++evictions_;
  }
  void RemapColor(std::string_view color, InstanceId to, bool count_move) {
    if (assigned_counts_.find(to) == assigned_counts_.end()) {
      return;
    }
    const std::string_view key = color.substr(0, config_.max_color_bytes);
    auto it = table_.find(key);
    if (it != table_.end()) {
      if (it->second->instance == to) {
        return;
      }
      auto old_it = assigned_counts_.find(it->second->instance);
      if (old_it != assigned_counts_.end() && old_it->second > 0) {
        --old_it->second;
      }
      it->second->instance = to;
    } else {
      if (table_.size() >= config_.table_capacity) {
        EvictLru();
      }
      lru_.push_front(Entry{std::string(key), to});
      table_.emplace(lru_.front().color, lru_.begin());
    }
    ++assigned_counts_[to];
    if (count_move) {
      ++planner_moves_;
    }
  }

  LeastAssignedConfig config_;
  List lru_;
  std::unordered_map<std::string, List::iterator, TransparentStringHash,
                     std::equal_to<>>
      table_;
  std::unordered_map<InstanceId, std::size_t> assigned_counts_;
  std::uint64_t evictions_ = 0;
};

TEST(LruDifferentialTest, LeastAssignedTableMatchesListAndMapReference) {
  // Names private to this test keep its interned ids from colliding with
  // other suites' workers.
  std::vector<std::string> names;
  for (int i = 0; i < 6; ++i) {
    names.push_back(StrFormat("lru-diff-w%d", i));
  }
  std::vector<std::string> colors;
  for (int i = 0; i < 24; ++i) {
    // Long enough that some colors share their truncated prefix.
    colors.push_back(i % 6 == 5 ? StrFormat("long-color-prefix-%02d", i - 5)
                                : StrFormat("c%d", i));
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    LeastAssignedConfig config;
    config.table_capacity = 5 + seed % 4;
    config.max_color_bytes = 18;
    LeastAssignedPolicy policy(seed, config);
    ReferenceLeastAssigned reference(seed, config);
    std::vector<bool> live(names.size(), false);
    for (std::size_t i = 0; i < 3; ++i) {
      policy.OnInstanceAdded(names[i]);
      reference.OnInstanceAdded(names[i]);
      live[i] = true;
    }

    Rng rng(seed * 7919);
    for (int step = 0; step < 1500; ++step) {
      const std::string& color = colors[rng.NextBelow(colors.size())];
      const std::size_t member = rng.NextBelow(names.size());
      const InstanceId member_id = InternInstance(names[member]);
      const std::uint64_t op = rng.NextBelow(20);
      if (op < 12) {
        ASSERT_EQ(policy.RouteColoredId(color), reference.RouteColoredId(color))
            << "seed " << seed << " step " << step;
      } else if (op < 15) {
        policy.ObserveRoute(color, member_id);
        reference.ObserveRoute(color, member_id);
      } else if (op < 17) {
        Plan plan;
        PlanMove move;
        move.color = color;
        move.to = member_id;
        plan.moves.push_back(move);
        policy.ApplyPlan(plan);
        reference.ApplyPlan(plan);
      } else if (op < 19) {
        if (!live[member]) {
          policy.OnInstanceAdded(names[member]);
          reference.OnInstanceAdded(names[member]);
          live[member] = true;
        }
      } else {
        // Removing every member leaves dormant entries; later adds revive
        // them on their next route.
        policy.OnInstanceRemoved(names[member]);
        reference.OnInstanceRemoved(names[member]);
        live[member] = false;
      }
      ASSERT_EQ(policy.table_size(), reference.table_size());
      ASSERT_EQ(policy.evictions(), reference.evictions());
      ASSERT_EQ(policy.recolored(), reference.recolored());
      ASSERT_EQ(policy.planner_moves(), reference.planner_moves());
      for (const std::string& name : names) {
        ASSERT_EQ(policy.AssignedCount(name),
                  reference.CountOf(InternInstance(name)));
      }
      // Every color's residency and mapping: equal sets of survivors after
      // each eviction pin the eviction order.
      for (const std::string& c : colors) {
        ASSERT_EQ(policy.PeekColorId(c), reference.PeekColorId(c))
            << "seed " << seed << " step " << step << " color " << c;
      }
    }
    EXPECT_GT(policy.evictions(), 0u) << "seed " << seed;
    EXPECT_GT(policy.recolored(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace palette
