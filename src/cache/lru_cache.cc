#include "src/cache/lru_cache.h"

namespace palette {

LruCache::LruCache(Bytes capacity_bytes) : capacity_(capacity_bytes) {}

std::optional<Bytes> LruCache::Get(std::string_view key) {
  const Bytes* size = lru_.Touch(key);
  if (size == nullptr) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return *size;
}

std::optional<Bytes> LruCache::Peek(std::string_view key) const {
  const Bytes* size = lru_.Peek(key);
  return size == nullptr ? std::nullopt : std::optional<Bytes>(*size);
}

bool LruCache::Put(std::string_view key, Bytes size) {
  if (capacity_ != 0 && size > capacity_) {
    return false;
  }
  if (Bytes* resident = lru_.Touch(key)) {
    used_ = used_ - *resident + size;
    *resident = size;
    EvictUntilFits(0);
    return true;
  }
  EvictUntilFits(size);
  lru_.InsertFront(key, size);
  used_ += size;
  return true;
}

bool LruCache::Erase(std::string_view key) {
  const Bytes* size = lru_.Peek(key);
  if (size == nullptr) {
    return false;
  }
  used_ -= *size;
  lru_.Erase(key);
  return true;
}

void LruCache::Clear() {
  lru_.Clear();
  used_ = 0;
}

double LruCache::HitRatio() const {
  const std::uint64_t total = hits_ + misses_;
  return total > 0 ? static_cast<double>(hits_) / static_cast<double>(total)
                   : 0.0;
}

void LruCache::ResetStats() {
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

void LruCache::EvictUntilFits(Bytes incoming) {
  if (capacity_ == 0) {
    return;
  }
  while (!lru_.empty() && used_ + incoming > capacity_) {
    const auto victim = lru_.back();
    used_ -= victim.value;
    ++evictions_;
    if (eviction_hook_) {
      eviction_hook_(victim.key, victim.value);
    }
    lru_.PopBack();
  }
}

}  // namespace palette
