// String-keyed map with least-recently-used order, the one LRU structure
// behind the cache shards (LruCache) and the color tables (Least Assigned,
// Bounded Loads, Replicated Colors).
//
// The recency list is threaded through the hash map's own nodes: each
// entry is one map node holding the key once, the value and two links, so
// an insert costs one node allocation and a hit costs one hash probe plus a
// pointer splice. Unordered-map nodes never move on rehash, so the links
// stay valid for the entry's lifetime. Lookups take std::string_view
// (transparent hashing), so probing never materializes a key string.
#ifndef PALETTE_SRC_COMMON_LRU_MAP_H_
#define PALETTE_SRC_COMMON_LRU_MAP_H_

#include <cassert>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/common/string_hash.h"

namespace palette {

template <typename V>
class LruMap {
 public:
  // A view of one entry.
  struct Ref {
    const std::string& key;
    V& value;
  };

  LruMap() = default;
  // The links point into this map's own nodes, so it is neither copied nor
  // moved.
  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  // The value of `key`, promoted to most-recently-used; null if absent.
  V* Touch(std::string_view key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      return nullptr;
    }
    Entry* entry = &*it;
    if (entry != head_) {
      Unlink(entry);
      LinkFront(entry);
    }
    return &entry->second.value;
  }

  // The value of `key` without touching recency; null if absent.
  V* Peek(std::string_view key) {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second.value;
  }
  const V* Peek(std::string_view key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second.value;
  }
  bool Contains(std::string_view key) const {
    return map_.find(key) != map_.end();
  }

  // Inserts `key`, which must be absent, as the most-recently-used entry.
  V& InsertFront(std::string_view key, V value) {
    const auto [it, inserted] =
        map_.try_emplace(std::string(key), Node{std::move(value)});
    assert(inserted && "LruMap::InsertFront on a resident key");
    (void)inserted;
    LinkFront(&*it);
    return it->second.value;
  }

  // Removes `key`; returns true if it was present.
  bool Erase(std::string_view key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    Unlink(&*it);
    map_.erase(it);
    return true;
  }

  // The least-recently-used entry; the map must not be empty.
  Ref back() {
    assert(tail_ != nullptr);
    return Ref{tail_->first, tail_->second.value};
  }
  // Removes the least-recently-used entry; the map must not be empty.
  void PopBack() {
    assert(tail_ != nullptr);
    Entry* victim = tail_;
    Unlink(victim);
    map_.erase(map_.find(victim->first));
  }

  void Clear() {
    map_.clear();
    head_ = nullptr;
    tail_ = nullptr;
  }

  // Visits every entry from most- to least-recently used without touching
  // recency. `fn(key, value)` must not insert or erase.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry* e = head_; e != nullptr; e = e->second.next) {
      fn(e->first, static_cast<const V&>(e->second.value));
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Entry* e = head_; e != nullptr; e = e->second.next) {
      fn(e->first, e->second.value);
    }
  }

 private:
  struct Node;
  using Entry = std::pair<const std::string, Node>;
  struct Node {
    V value;
    Entry* prev = nullptr;  // toward the most-recently-used end
    Entry* next = nullptr;  // toward the least-recently-used end
  };
  using Map = std::unordered_map<std::string, Node, TransparentStringHash,
                                 std::equal_to<>>;

  void LinkFront(Entry* entry) {
    entry->second.prev = nullptr;
    entry->second.next = head_;
    if (head_ != nullptr) {
      head_->second.prev = entry;
    } else {
      tail_ = entry;
    }
    head_ = entry;
  }

  void Unlink(Entry* entry) {
    Node& node = entry->second;
    (node.prev != nullptr ? node.prev->second.next : head_) = node.next;
    (node.next != nullptr ? node.next->second.prev : tail_) = node.prev;
  }

  Map map_;
  Entry* head_ = nullptr;  // most recently used
  Entry* tail_ = nullptr;  // least recently used
};

}  // namespace palette

#endif  // PALETTE_SRC_COMMON_LRU_MAP_H_
