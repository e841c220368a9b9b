// Faa$T-style distributed serverless object cache (§5.1).
//
// Each application instance hosts a cache shard holding the objects produced
// on that worker. An object's *home* is the shard it is stored in and read
// back from by peers. The platform names it: for "<color>___<rest>" (the
// paper's hash-key prefix) the home is where the load balancer places the
// color (FaasPlatform::ColorHome), so a color's objects live where it runs.
// Otherwise, and for name-only callers, the cache ring's hash of the hashing
// key decides (RingHome).
//
// The two §5.1 requirements hold by construction:
//   (i)  objects stay cached where they were produced until evicted;
//   (ii) any instance can locate an object via its home lookup.
#ifndef PALETTE_SRC_CACHE_FAAST_CACHE_H_
#define PALETTE_SRC_CACHE_FAAST_CACHE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cache/lru_cache.h"
#include "src/common/instance_id.h"
#include "src/common/string_hash.h"
#include "src/common/types.h"
#include "src/hash/consistent_hash_ring.h"

namespace palette {

// Token separating the optional hashing key from the rest of an object name,
// as in the paper ("a prefix separated by a token string ('___')").
inline constexpr std::string_view kHashKeyToken = "___";

enum class CacheOutcome {
  kLocalHit,   // found in the reader's own shard
  kRemoteHit,  // found in a peer shard (network fetch required)
  kMiss,       // not cached anywhere; must come from backing storage
};

struct CacheLookup {
  CacheOutcome outcome = CacheOutcome::kMiss;
  // Instance holding the object (for kRemoteHit), empty otherwise.
  std::string owner;
  Bytes size = 0;
};

struct FaastCacheConfig {
  // Paper setup: 8 GB per function instance, evictions avoided.
  Bytes per_instance_capacity = 8 * kGiB;
  // Whether a remote hit also populates the reader's local shard. The paper
  // avoids pushing copies around for the DAG experiments (requirement (i)
  // is about NOT replicating), so this defaults off.
  bool replicate_on_remote_hit = false;
};

class FaastCache {
 public:
  explicit FaastCache(FaastCacheConfig config = {});

  // Instance membership. Removing an instance drops its shard (the paper's
  // semantics: state on a reclaimed worker is lost). Shards are indexed by
  // the instance's interned id as well as by name.
  void AddInstance(const std::string& instance);
  void RemoveInstance(const std::string& instance);
  std::size_t instance_count() const { return shards_.size(); }
  bool HasInstance(const std::string& instance) const;

  // The hashing key of an object name: the prefix before kHashKeyToken if
  // present, the whole name otherwise.
  static std::string_view HashKeyOf(std::string_view object_name);

  // The cache ring's instance for `object_name`'s hashing key. Empty
  // optional when no instances exist.
  std::optional<InstanceId> RingHome(std::string_view object_name) const {
    return ring_.LookupId(HashKeyOf(object_name));
  }

  // Stores an object in `home`'s shard; a home with no shard (it left the
  // cluster) stores nothing. The name-only overload homes the object on the
  // ring (RingHome), wherever `producer` is.
  void Put(InstanceId home, const std::string& object_name, Bytes size);
  void Put(const std::string& producer, const std::string& object_name,
           Bytes size);

  // Stores an object in `home`'s shard AND in every live instance in
  // `replicas` (a replicated/split color's replica set). Accounting counts
  // bytes once per *landed* copy: put_bytes grows by one size per store and
  // replicated_bytes by one size per extra copy beyond the home — the
  // paper's locality-diffusion cost measured honestly.
  void PutReplicated(InstanceId home, const std::string& object_name,
                     Bytes size, const std::vector<std::string>& replicas);

  // Stores an object directly in `instance`'s shard regardless of its home
  // (miss fills and app-managed local caching).
  void PutLocal(const std::string& instance, const std::string& object_name,
                Bytes size);

  // True iff `object_name` is resident in `instance`'s shard. Never touches
  // recency or stats (coherence probes must not perturb LRU order). The id
  // overload finds the shard by index (anti-entropy probes every peer).
  bool ContainsLocal(const std::string& instance,
                     const std::string& object_name) const;
  bool ContainsLocal(InstanceId instance,
                     const std::string& object_name) const {
    const Shard* shard = FindShard(instance);
    return shard != nullptr && shard->lru.Contains(object_name);
  }

  // Reads an object from `reader`: its own shard first, then the shard of
  // the object's home, the std::optional<InstanceId> `home_of()` returns.
  // It is called only on a local miss, so a local hit costs one probe of
  // the reader's shard. Never mutates peer LRU order. The name-only
  // overload reads from the ring home.
  template <typename HomeOf>
  CacheLookup Get(InstanceId reader, const std::string& object_name,
                  HomeOf&& home_of) {
    Shard* const shard = FindShard(reader);
    assert(shard != nullptr && "unknown reader instance");
    std::optional<CacheLookup> hit = GetLocal(*shard, object_name);
    return hit ? std::move(*hit) : GetFromHome(*shard, object_name, home_of());
  }
  CacheLookup Get(const std::string& reader, const std::string& object_name);

  // Drops an object everywhere (used by tests and churn experiments).
  void Invalidate(const std::string& object_name);

  // Planner-migration support (docs/PLANNER.md).
  //
  // A named object resident in one shard. Objects are reported in the
  // shard's most- to least-recently-used order.
  struct ResidentObject {
    std::string name;
    Bytes size = 0;
  };
  // Visits every object in `instance`'s shard without touching recency or
  // stats. No-op for unknown instances.
  void ForEachObject(
      const std::string& instance,
      const std::function<void(const std::string&, Bytes)>& fn) const;
  // Objects in `instance`'s shard whose hashing key equals `key` — i.e. a
  // color's migratable cache footprint on that instance — in MRU order.
  // Walks the shard only when the key index says the key is resident.
  std::vector<ResidentObject> PeekKeyObjects(const std::string& instance,
                                             std::string_view key) const;
  // Bytes resident in `instance`'s shard under hashing key `key` (the sum
  // of PeekKeyObjects' sizes), read from the shard's key index in O(1).
  // The planner's snapshot prices every color's move with it.
  Bytes KeyBytes(InstanceId instance, std::string_view key) const;
  // True iff at least one object with hashing key `key` is resident in
  // `instance`'s shard. An index lookup; never touches recency or stats
  // (the pull-dispatch claim path probes residency per idle worker).
  bool HasKeyObject(const std::string& instance, std::string_view key) const;
  // Removes one object from `instance`'s shard only (migration source-side
  // erase; Invalidate drops from every shard). Returns true if present.
  bool EraseLocal(const std::string& instance, const std::string& object_name);

  // Aggregate statistics.
  std::uint64_t local_hits() const { return local_hits_; }
  std::uint64_t remote_hits() const { return remote_hits_; }
  std::uint64_t misses() const { return misses_; }
  // Bytes served from the reader's own shard / from peer shards, bytes
  // written through Put/PutLocal, and bytes copied into the reader's shard
  // by replicate_on_remote_hit (a subset of put_bytes).
  Bytes local_hit_bytes() const { return local_hit_bytes_; }
  Bytes remote_hit_bytes() const { return remote_hit_bytes_; }
  Bytes put_bytes() const { return put_bytes_; }
  Bytes replicated_bytes() const { return replicated_bytes_; }
  // Evictions across live shards (a removed instance's count is lost with
  // its shard, matching the reclaimed-worker semantics).
  std::uint64_t total_evictions() const;
  std::uint64_t shard_evictions(const std::string& instance) const;
  Bytes shard_used_bytes(const std::string& instance) const;

  const FaastCacheConfig& config() const { return config_; }

 private:
  // The objects of one hashing key resident in a shard.
  struct KeyFootprint {
    Bytes bytes = 0;
    std::size_t objects = 0;
  };
  // One instance's cache shard: its LRU plus an index from hashing key to
  // that key's resident footprint. Every change to the LRU goes through
  // Put/Erase here or through LRU eviction, which the eviction hook
  // reports, so the index is always exact. Pinned in place: the hook
  // points back at the shard, and the id table points at it.
  struct Shard {
    Shard(Bytes capacity, const std::string& instance);
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    // Inserts or resizes `name`; a put the LRU does not admit changes
    // nothing.
    void Put(const std::string& name, Bytes size);
    bool Erase(const std::string& name);
    void Unindex(std::string_view name, Bytes size);

    const std::string owner;  // the instance (CacheLookup::owner)
    const InstanceId id;      // owner's interned id
    LruCache lru;
    std::unordered_map<std::string, KeyFootprint, TransparentStringHash,
                       std::equal_to<>>
        keys;
  };
  const Shard* FindShard(const std::string& instance) const;
  Shard* FindShard(InstanceId id) const {
    return id < shards_by_id_.size() ? shards_by_id_[id] : nullptr;
  }
  // The two halves of a read: the reader's shard (counts only a hit), then
  // the home's shard (counts a remote hit or a miss).
  std::optional<CacheLookup> GetLocal(Shard& reader,
                                      const std::string& object_name);
  CacheLookup GetFromHome(Shard& reader, const std::string& object_name,
                          std::optional<InstanceId> home);

  FaastCacheConfig config_;
  ConsistentHashRing ring_;
  std::unordered_map<std::string, Shard> shards_;
  // shards_by_id_[id] is the shard of the instance with interned id `id`,
  // or null.
  std::vector<Shard*> shards_by_id_;
  std::uint64_t local_hits_ = 0;
  std::uint64_t remote_hits_ = 0;
  std::uint64_t misses_ = 0;
  Bytes local_hit_bytes_ = 0;
  Bytes remote_hit_bytes_ = 0;
  Bytes put_bytes_ = 0;
  Bytes replicated_bytes_ = 0;
};

}  // namespace palette

#endif  // PALETTE_SRC_CACHE_FAAST_CACHE_H_
