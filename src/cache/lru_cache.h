// Byte-capacity LRU cache over named objects.
//
// This is the in-instance cache from the paper's use cases: the social
// network functions keep an "in-memory read-only LRU cache" in a global
// variable (§6.1), and each Faa$T cache instance holds objects produced on
// that worker (§5.1). Only object sizes are tracked — the simulation never
// materializes payloads.
#ifndef PALETTE_SRC_CACHE_LRU_CACHE_H_
#define PALETTE_SRC_CACHE_LRU_CACHE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/lru_map.h"
#include "src/common/types.h"

namespace palette {

class LruCache {
 public:
  // `capacity_bytes` == 0 means unbounded (used by the MRC simulator).
  explicit LruCache(Bytes capacity_bytes);

  // Looks up `key`, promoting it to most-recently-used on hit. Returns its
  // size on a hit (one hash probe), nullopt on a miss.
  std::optional<Bytes> Get(std::string_view key);

  // Peeks without updating recency or stats. Used for peer lookups, which
  // should not distort the owner's LRU order.
  bool Contains(std::string_view key) const { return lru_.Contains(key); }
  // Size of `key` if present (a peek, like Contains).
  std::optional<Bytes> Peek(std::string_view key) const;

  // Size of `key` if present, else 0.
  Bytes SizeOf(std::string_view key) const { return Peek(key).value_or(0); }

  // Inserts or refreshes `key`, evicting LRU entries as needed. An object
  // larger than the whole capacity is not admitted (returns false).
  bool Put(std::string_view key, Bytes size);

  // Removes `key`; returns true if it was present.
  bool Erase(std::string_view key);

  void Clear();

  Bytes used_bytes() const { return used_; }
  Bytes capacity_bytes() const { return capacity_; }
  std::size_t object_count() const { return lru_.size(); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  double HitRatio() const;
  void ResetStats();

  // Invoked for each evicted (key, size).
  void set_eviction_hook(std::function<void(const std::string&, Bytes)> hook) {
    eviction_hook_ = std::move(hook);
  }

  // Visits every resident (key, size) from most- to least-recently used
  // without touching recency or stats. Used by planner migration to list a
  // color's cached objects in recency order.
  void ForEach(const std::function<void(const std::string&, Bytes)>& fn) const {
    lru_.ForEach(fn);
  }

 private:
  void EvictUntilFits(Bytes incoming);

  Bytes capacity_;
  Bytes used_ = 0;
  LruMap<Bytes> lru_;  // object name -> size
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::function<void(const std::string&, Bytes)> eviction_hook_;
};

}  // namespace palette

#endif  // PALETTE_SRC_CACHE_LRU_CACHE_H_
