#include "src/cache/faast_cache.h"

#include <cassert>

namespace palette {

FaastCache::Shard::Shard(Bytes capacity, const std::string& instance)
    : owner(instance), id(InternInstance(instance)), lru(capacity) {
  lru.set_eviction_hook(
      [this](const std::string& name, Bytes size) { Unindex(name, size); });
}

void FaastCache::Shard::Put(const std::string& name, Bytes size) {
  const std::optional<Bytes> old_size = lru.Peek(name);
  if (!lru.Put(name, size)) {
    return;
  }
  // Find the key's entry only after the put, whose evictions may erase
  // entries (this key's included, for a new object). A resized object
  // stays resident as the MRU entry, so its key's entry survives.
  const std::string_view key = HashKeyOf(name);
  auto it = keys.find(key);
  if (it == keys.end()) {
    it = keys.emplace(std::string(key), KeyFootprint{}).first;
  }
  it->second.bytes = it->second.bytes - old_size.value_or(0) + size;
  if (!old_size.has_value()) {
    ++it->second.objects;
  }
}

bool FaastCache::Shard::Erase(const std::string& name) {
  const std::optional<Bytes> size = lru.Peek(name);
  if (!size.has_value()) {
    return false;
  }
  lru.Erase(name);
  Unindex(name, *size);
  return true;
}

void FaastCache::Shard::Unindex(std::string_view name, Bytes size) {
  const auto it = keys.find(HashKeyOf(name));
  assert(it != keys.end() && "resident object missing from the key index");
  it->second.bytes -= size;
  if (--it->second.objects == 0) {
    keys.erase(it);
  }
}

FaastCache::FaastCache(FaastCacheConfig config) : config_(config) {}

const FaastCache::Shard* FaastCache::FindShard(
    const std::string& instance) const {
  const auto it = shards_.find(instance);
  return it == shards_.end() ? nullptr : &it->second;
}

void FaastCache::AddInstance(const std::string& instance) {
  if (shards_.count(instance) > 0) {
    return;
  }
  ring_.AddMember(instance);
  Shard& shard =
      shards_.try_emplace(instance, config_.per_instance_capacity, instance)
          .first->second;
  if (shard.id >= shards_by_id_.size()) {
    shards_by_id_.resize(shard.id + 1, nullptr);
  }
  shards_by_id_[shard.id] = &shard;
}

void FaastCache::RemoveInstance(const std::string& instance) {
  ring_.RemoveMember(instance);
  const auto it = shards_.find(instance);
  if (it == shards_.end()) {
    return;
  }
  shards_by_id_[it->second.id] = nullptr;
  shards_.erase(it);
}

bool FaastCache::HasInstance(const std::string& instance) const {
  return shards_.count(instance) > 0;
}

std::string_view FaastCache::HashKeyOf(std::string_view object_name) {
  const std::size_t pos = object_name.find(kHashKeyToken);
  if (pos == std::string_view::npos) {
    return object_name;
  }
  return object_name.substr(0, pos);
}

void FaastCache::Put(InstanceId home, const std::string& object_name,
                     Bytes size) {
  // No assert: an invocation can legitimately finish after its instance
  // left (graceful scale-in lets running work complete).
  Shard* const shard = FindShard(home);
  if (shard == nullptr) {
    return;
  }
  shard->Put(object_name, size);
  put_bytes_ += size;
}

void FaastCache::Put(const std::string& /*producer*/,
                     const std::string& object_name, Bytes size) {
  const std::optional<InstanceId> home = RingHome(object_name);
  if (home.has_value()) {
    Put(*home, object_name, size);
  }
}

void FaastCache::PutReplicated(InstanceId home, const std::string& object_name,
                               Bytes size,
                               const std::vector<std::string>& replicas) {
  Put(home, object_name, size);
  for (const std::string& replica : replicas) {
    const auto it = shards_.find(replica);
    if (it == shards_.end() || it->second.id == home) {
      continue;  // a dead replica lands nothing; the home store covers home
    }
    it->second.Put(object_name, size);
    put_bytes_ += size;
    replicated_bytes_ += size;
  }
}

void FaastCache::PutLocal(const std::string& instance,
                          const std::string& object_name, Bytes size) {
  auto it = shards_.find(instance);
  assert(it != shards_.end() && "unknown instance");
  it->second.Put(object_name, size);
  put_bytes_ += size;
}

bool FaastCache::ContainsLocal(const std::string& instance,
                               const std::string& object_name) const {
  const Shard* shard = FindShard(instance);
  return shard != nullptr && shard->lru.Contains(object_name);
}

CacheLookup FaastCache::Get(const std::string& reader,
                            const std::string& object_name) {
  auto reader_it = shards_.find(reader);
  assert(reader_it != shards_.end() && "unknown reader instance");
  std::optional<CacheLookup> hit = GetLocal(reader_it->second, object_name);
  return hit ? std::move(*hit)
             : GetFromHome(reader_it->second, object_name,
                           RingHome(object_name));
}

std::optional<CacheLookup> FaastCache::GetLocal(
    Shard& reader, const std::string& object_name) {
  const std::optional<Bytes> size = reader.lru.Get(object_name);
  if (!size.has_value()) {
    return std::nullopt;
  }
  ++local_hits_;
  local_hit_bytes_ += *size;
  return CacheLookup{CacheOutcome::kLocalHit, reader.owner, *size};
}

CacheLookup FaastCache::GetFromHome(Shard& reader,
                                    const std::string& object_name,
                                    std::optional<InstanceId> home) {
  const Shard* home_shard =
      home.has_value() && *home != reader.id ? FindShard(*home) : nullptr;
  const std::optional<Bytes> resident =
      home_shard != nullptr ? home_shard->lru.Peek(object_name) : std::nullopt;
  if (!resident.has_value()) {
    ++misses_;
    return CacheLookup{};
  }
  ++remote_hits_;
  const Bytes size = *resident;
  remote_hit_bytes_ += size;
  if (config_.replicate_on_remote_hit) {
    reader.Put(object_name, size);
    put_bytes_ += size;
    replicated_bytes_ += size;
  }
  return CacheLookup{CacheOutcome::kRemoteHit, home_shard->owner, size};
}

void FaastCache::Invalidate(const std::string& object_name) {
  for (auto& [_, shard] : shards_) {
    shard.Erase(object_name);
  }
}

void FaastCache::ForEachObject(
    const std::string& instance,
    const std::function<void(const std::string&, Bytes)>& fn) const {
  const Shard* shard = FindShard(instance);
  if (shard != nullptr) {
    shard->lru.ForEach(fn);
  }
}

std::vector<FaastCache::ResidentObject> FaastCache::PeekKeyObjects(
    const std::string& instance, std::string_view key) const {
  std::vector<ResidentObject> objects;
  const Shard* shard = FindShard(instance);
  if (shard == nullptr || !shard->keys.contains(key)) {
    return objects;
  }
  shard->lru.ForEach([&](const std::string& name, Bytes size) {
    if (HashKeyOf(name) == key) {
      objects.push_back(ResidentObject{name, size});
    }
  });
  return objects;
}

Bytes FaastCache::KeyBytes(InstanceId instance, std::string_view key) const {
  const Shard* shard = FindShard(instance);
  if (shard == nullptr) {
    return 0;
  }
  const auto it = shard->keys.find(key);
  return it == shard->keys.end() ? 0 : it->second.bytes;
}

bool FaastCache::HasKeyObject(const std::string& instance,
                              std::string_view key) const {
  const Shard* shard = FindShard(instance);
  return shard != nullptr && shard->keys.contains(key);
}

bool FaastCache::EraseLocal(const std::string& instance,
                            const std::string& object_name) {
  const auto it = shards_.find(instance);
  return it != shards_.end() && it->second.Erase(object_name);
}

Bytes FaastCache::shard_used_bytes(const std::string& instance) const {
  const Shard* shard = FindShard(instance);
  return shard == nullptr ? 0 : shard->lru.used_bytes();
}

std::uint64_t FaastCache::total_evictions() const {
  std::uint64_t total = 0;
  for (const auto& [_, shard] : shards_) {
    total += shard.lru.evictions();
  }
  return total;
}

std::uint64_t FaastCache::shard_evictions(const std::string& instance) const {
  const Shard* shard = FindShard(instance);
  return shard == nullptr ? 0 : shard->lru.evictions();
}

}  // namespace palette
