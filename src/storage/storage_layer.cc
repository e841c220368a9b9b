#include "src/storage/storage_layer.h"

#include <algorithm>
#include <cassert>

namespace palette {
namespace {

// Visits, in name order, every directory entry whose hashing key is
// exactly `key`. Such a name is either `key` itself or starts with
// `key` + kHashKeyToken, and the ordered directory keeps each of the two
// groups contiguous, so the walk costs O(log n + k) instead of a pass over
// the whole directory. The bare name sorts before its "___" range, so the
// visit order is the full scan's order restricted to this key. A matched
// text prefix is not enough on its own (for "c_", the name "c____y" has
// hashing key "c"), hence the HashKeyOf check on each visited entry.
template <typename Directory, typename Fn>
void ForEachKeyEntry(Directory& objects, std::string_view key, Fn fn) {
  std::string bound(key);
  const auto bare = objects.find(bound);
  if (bare != objects.end() && FaastCache::HashKeyOf(bare->first) == key) {
    fn(bare->first, bare->second);
  }
  bound += kHashKeyToken;
  for (auto it = objects.lower_bound(bound);
       it != objects.end() && it->first.starts_with(bound); ++it) {
    if (FaastCache::HashKeyOf(it->first) == key) {
      fn(it->first, it->second);
    }
  }
}

}  // namespace

StorageLayer::StorageLayer(Simulator* sim, Network* network, FaastCache* cache,
                           StorageConfig config, std::string storage_node)
    : sim_(sim),
      network_(network),
      cache_(cache),
      config_(config),
      tiers_(sim, network, config.tiers, std::move(storage_node), &stats_) {}

void StorageLayer::OnInstanceJoin(const std::string& instance) {
  const auto [it, inserted] = peers_.try_emplace(instance);
  Peer& peer = it->second;
  if (inserted) {
    peer.name = &it->first;
    peer.id = InternInstance(instance);
    if (peer.id >= peers_by_id_.size()) {
      peers_by_id_.resize(peer.id + 1, nullptr);
    }
    peers_by_id_[peer.id] = &peer;
  }
  // A joining (or re-joining) instance starts with an empty cache and an
  // empty log cursor: the whole log replays for it after the lag. Replay
  // against an empty shard is pure cursor advancement — the mechanism the
  // restart test pins — while a restart racing in-flight records applies
  // them exactly once from seq 1.
  peer.applied_seq = 0;
  if (!log_.empty()) {
    sim_->At(SaturatingAdd(sim_->Now(), config_.ae_lag),
             [this, id = peer.id]() { ApplyLogAt(id); });
  }
}

void StorageLayer::OnInstanceLeave(const std::string& instance, bool crashed) {
  const auto peer = peers_.find(instance);
  if (peer != peers_.end()) {
    peers_by_id_[peer->second.id] = nullptr;
    peers_.erase(peer);
  }
  for (auto& [name, obj] : objects_) {
    obj.copies.erase(instance);
    if (obj.owner != instance) {
      continue;
    }
    if (obj.pending_writes > 0) {
      if (crashed) {
        // Dirty write-back data died with its owner: bounded loss,
        // surfaced in the books — never silent.
        stats_.writes_lost += obj.pending_writes;
        stats_.dirty_bytes_lost += obj.pending_bytes;
        ClearPending(name, obj);
      } else {
        // Graceful drain flushes before the shard is reclaimed (the
        // network node outlives the worker, so the transfer still books).
        Flush(instance, name, obj);
      }
    }
    obj.owner.clear();
  }
}

void StorageLayer::Seed(const std::string& name, Bytes size) {
  tiers_.Seed(name, size);
  ObjectState& obj = objects_[name];
  if (obj.size == 0) {
    obj.size = size;
  }
}

Bytes StorageLayer::StoredSizeOf(const std::string& name,
                                 Bytes fallback) const {
  const auto it = objects_.find(name);
  return it != objects_.end() && it->second.size > 0 ? it->second.size
                                                     : fallback;
}

SimTime StorageLayer::ReadFromStore(const std::string& reader,
                                    const std::string& name, Bytes size) {
  return tiers_.Read(reader, name, StoredSizeOf(name, size));
}

void StorageLayer::NoteCopy(const std::string& instance,
                            const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    return;  // never written through the layer; nothing to track
  }
  // A copy fetched now holds the current version (misses fall back to the
  // store, which after a crash-loss is the authoritative content).
  it->second.copies[instance] = CopyState{it->second.version, SimTime()};
}

void StorageLayer::NoteErase(const std::string& instance,
                             const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    return;
  }
  it->second.copies.erase(instance);
  if (it->second.owner == instance) {
    // The owner's copy is leaving (planner migration); ownership transfers
    // when the copy lands, and reads meanwhile fall back to the store.
    it->second.owner.clear();
  }
}

void StorageLayer::NoteLanded(const std::string& instance,
                              const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    return;
  }
  it->second.copies[instance] = CopyState{it->second.version, SimTime()};
  if (it->second.owner.empty()) {
    it->second.owner = instance;
  }
}

SimTime StorageLayer::OnLocalRead(const std::string& reader,
                                  const std::string& name, SimTime done) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    return done;  // read-only object; coherence has nothing to say
  }
  ObjectState& obj = it->second;
  const auto cit = obj.copies.find(reader);
  if (cit == obj.copies.end()) {
    // A resident copy the directory never saw materialize (it predates the
    // first write). Adopt it as current: it was fetched from the then-
    // authoritative source, and any later write would have found it here.
    obj.copies.emplace(reader, CopyState{obj.version, SimTime()});
    return done;
  }
  if (cit->second.version >= obj.version) {
    return done;  // fresh
  }
  if (obj.mode == CoherenceMode::kCausal) {
    const SimTime staleness = sim_->Now() - cit->second.stale_since;
    if (staleness <= config_.staleness_bound) {
      // Bounded-stale serve: counted, and the maximum tracked so the bound
      // is checkable — never silently exceeded.
      ++stats_.stale_reads;
      if (staleness.nanos() > stats_.max_served_staleness_ns) {
        stats_.max_served_staleness_ns = staleness.nanos();
      }
      return done;
    }
  }
  return ForcedSync(reader, name, obj, done);
}

SimTime StorageLayer::ForcedSync(const std::string& reader,
                                 const std::string& name, ObjectState& obj,
                                 SimTime done) {
  const SimTime start = sim_->Now();
  SimTime sync_done;
  if (!obj.owner.empty() && obj.owner != reader &&
      peers_.contains(obj.owner) && cache_->ContainsLocal(obj.owner, name)) {
    sync_done = network_->Transfer(obj.owner, reader, obj.size);
  } else {
    sync_done = tiers_.Read(reader, name, obj.size);
  }
  cache_->PutLocal(reader, name, obj.size);
  obj.copies[reader] = CopyState{obj.version, SimTime()};
  ++stats_.coherence_syncs;
  stats_.coherence_bytes += obj.size;
  if (trace_ != nullptr) {
    trace_->RecordStorage(
        StorageTrace{name, reader, StorageOp::kSync, obj.size, start,
                     sync_done});
  }
  return std::max(done, sync_done);
}

SimTime StorageLayer::OnWrite(const std::string& /*writer*/,
                              const std::string& home, const std::string& name,
                              Bytes size,
                              std::optional<CoherenceMode> override_mode,
                              const std::vector<std::string>& fresh,
                              SimTime done) {
  const CoherenceMode mode = EffectiveMode(override_mode);
  const SimTime now = sim_->Now();
  ObjectState& obj = objects_[name];
  const std::uint64_t old_version = obj.version;
  ++obj.version;
  obj.size = size;
  obj.mode = mode;
  obj.owner = home;
  // Copies that were current until this write become stale now; copies
  // already stale keep their original divergence time (staleness is
  // measured from the first missed write).
  for (auto& [inst, copy] : obj.copies) {
    if (copy.version >= old_version && copy.stale_since == SimTime()) {
      copy.stale_since = now;
    }
  }
  obj.copies[home] = CopyState{obj.version, SimTime()};
  for (const std::string& replica : fresh) {
    if (peers_.contains(replica)) {  // dead replicas landed nothing
      obj.copies[replica] = CopyState{obj.version, SimTime()};
    }
  }

  ++stats_.writes_total;
  stats_.write_bytes += size;
  switch (mode) {
    case CoherenceMode::kNone:
    case CoherenceMode::kWriteThrough:
    case CoherenceMode::kCausal: {
      // Synchronously durable: the invocation's store phase blocks on the
      // backing-store write.
      const SimTime store_done = tiers_.Write(home, name, size);
      ++stats_.writes_durable;
      if (trace_ != nullptr) {
        trace_->RecordStorage(StorageTrace{
            name, home, StorageOp::kWriteThrough, size, now, store_done});
      }
      if (store_done > done) {
        done = store_done;
      }
      break;
    }
    case CoherenceMode::kWriteBack: {
      // Buffered dirty in the owner's cache; a flush timer bounds the
      // dirty age. Each write arms its own timer, so the oldest pending
      // write's timer fires first and flushes everything pending — the
      // age bound is an upper bound per write.
      if (obj.pending_writes++ == 0) {
        ++dirty_keys_[std::string(FaastCache::HashKeyOf(name))];
      }
      obj.pending_bytes += size;
      sim_->At(SaturatingAdd(now, config_.max_dirty_age), [this,
                                                           name = name]() {
        const auto it = objects_.find(name);
        if (it == objects_.end() || it->second.pending_writes == 0 ||
            it->second.owner.empty()) {
          return;  // already flushed, or lost with a crashed owner
        }
        Flush(it->second.owner, name, it->second);
      });
      break;
    }
  }

  // Anti-entropy: append one seq-numbered record, and one event ae_lag
  // later that replays the log at every peer live now, in name order (the
  // home and the synchronously refreshed replicas excluded). Per-peer
  // events would share one timestamp and consecutive seqs, so nothing could
  // run between them: one event walking the list has the same effects.
  AeRecord record;
  record.seq = next_seq_++;
  record.object = name;
  record.version = obj.version;
  record.size = size;
  record.source = InternInstance(home);
  record.mode = mode;
  record.applies_at = SaturatingAdd(now, config_.ae_lag);
  log_.push_back(std::move(record));
  ++stats_.ae_records;
  std::vector<InstanceId> replay;
  replay.reserve(peers_.size());
  for (const auto& [instance, peer] : peers_) {
    if (instance != home &&
        std::find(fresh.begin(), fresh.end(), instance) == fresh.end()) {
      replay.push_back(peer.id);
    }
  }
  if (!replay.empty()) {
    sim_->At(SaturatingAdd(now, config_.ae_lag),
             [this, replay = std::move(replay)]() {
               for (const InstanceId id : replay) {
                 ApplyLogAt(id);
               }
             });
  }
  return done;
}

void StorageLayer::Flush(const std::string& from, const std::string& name,
                         ObjectState& obj) {
  const SimTime start = sim_->Now();
  const SimTime store_done = tiers_.Write(from, name, obj.size);
  stats_.writes_durable += obj.pending_writes;
  stats_.dirty_bytes_flushed += obj.pending_bytes;
  ++stats_.flushes;
  ClearPending(name, obj);
  if (trace_ != nullptr) {
    trace_->RecordStorage(StorageTrace{name, from, StorageOp::kFlush,
                                       obj.size, start, store_done});
  }
}

void StorageLayer::ClearPending(const std::string& name, ObjectState& obj) {
  assert(obj.pending_writes > 0 && "only dirty objects are cleared");
  obj.pending_writes = 0;
  obj.pending_bytes = 0;
  const auto dirty = dirty_keys_.find(FaastCache::HashKeyOf(name));
  assert(dirty != dirty_keys_.end() && "dirty object missing from the index");
  if (--dirty->second == 0) {
    dirty_keys_.erase(dirty);
  }
}

void StorageLayer::FlushKeyOwned(const std::string& instance,
                                 std::string_view key) {
  if (!dirty_keys_.contains(key)) {
    return;
  }
  ForEachKeyEntry(objects_, key,
                  [&](const std::string& name, ObjectState& obj) {
                    if (obj.owner == instance && obj.pending_writes > 0) {
                      Flush(instance, name, obj);
                    }
                  });
}

Bytes StorageLayer::DirtyBytesOwnedBy(InstanceId owner,
                                      std::string_view key) const {
  if (!dirty_keys_.contains(key)) {
    return 0;
  }
  const std::string& instance = InstanceName(owner);
  Bytes total = 0;
  ForEachKeyEntry(objects_, key,
                  [&](const std::string&, const ObjectState& obj) {
                    if (obj.owner == instance) {
                      total += obj.pending_bytes;
                    }
                  });
  return total;
}

Bytes StorageLayer::total_dirty_bytes() const {
  Bytes total = 0;
  for (const auto& [name, obj] : objects_) {
    total += obj.pending_bytes;
  }
  return total;
}

std::uint64_t StorageLayer::AppliedSeqOf(const std::string& instance) const {
  const auto it = peers_.find(instance);
  return it != peers_.end() ? it->second.applied_seq : 0;
}

std::uint64_t StorageLayer::VersionOf(const std::string& name) const {
  const auto it = objects_.find(name);
  return it != objects_.end() ? it->second.version : 0;
}

std::optional<std::string> StorageLayer::OwnerOf(
    const std::string& name) const {
  const auto it = objects_.find(name);
  if (it == objects_.end() || it->second.owner.empty()) {
    return std::nullopt;
  }
  return it->second.owner;
}

Bytes StorageLayer::DirtyBytesOf(const std::string& name) const {
  const auto it = objects_.find(name);
  return it != objects_.end() ? it->second.pending_bytes : 0;
}

void StorageLayer::ApplyLogAt(InstanceId id) {
  Peer* const peer = id < peers_by_id_.size() ? peers_by_id_[id] : nullptr;
  if (peer == nullptr) {
    return;  // instance left before its replay fired
  }
  const SimTime now = sim_->Now();
  // Records append in seq order with monotone applies_at, so the replay
  // stops at the first not-yet-due record.
  for (std::size_t i = peer->applied_seq; i < log_.size(); ++i) {
    const AeRecord& record = log_[i];
    if (record.applies_at > now) {
      break;
    }
    ApplyRecord(*peer, record);
    peer->applied_seq = record.seq;
    ++stats_.ae_applied;
  }
}

void StorageLayer::ApplyRecord(const Peer& peer, const AeRecord& record) {
  if (peer.id == record.source) {
    return;  // its own write; cursor advances, nothing to do
  }
  if (!cache_->ContainsLocal(peer.id, record.object)) {
    return;  // no local copy to reconcile
  }
  const auto it = objects_.find(record.object);
  if (it == objects_.end()) {
    return;
  }
  const std::string& instance = *peer.name;
  ObjectState& obj = it->second;
  const auto cit = obj.copies.find(instance);
  if (cit != obj.copies.end() && cit->second.version >= record.version) {
    return;  // already at (or past) this record's version
  }
  AntiEntropyAction action = config_.ae_action;
  if (action == AntiEntropyAction::kAuto) {
    // Causal-mode objects are replicated hot objects worth keeping warm;
    // everything else just drops the stale copy.
    action = record.mode == CoherenceMode::kCausal
                 ? AntiEntropyAction::kRefresh
                 : AntiEntropyAction::kInvalidate;
  }
  const SimTime start = sim_->Now();
  if (action == AntiEntropyAction::kInvalidate) {
    cache_->EraseLocal(instance, record.object);
    obj.copies.erase(instance);
    ++stats_.ae_invalidations;
    if (trace_ != nullptr) {
      trace_->RecordStorage(StorageTrace{record.object, instance,
                                         StorageOp::kInvalidate, record.size,
                                         start, start});
    }
    return;
  }
  // Refresh: ship the current bytes from the live owner's shard when
  // possible, the backing store otherwise. The copy lands at the *object's*
  // current version — intervening writes are folded into one refresh.
  SimTime refresh_done;
  if (!obj.owner.empty() && obj.owner != instance &&
      peers_.contains(obj.owner) &&
      cache_->ContainsLocal(obj.owner, record.object)) {
    refresh_done = network_->Transfer(obj.owner, instance, obj.size);
  } else {
    refresh_done = tiers_.Read(instance, record.object, obj.size);
  }
  cache_->PutLocal(instance, record.object, obj.size);
  obj.copies[instance] = CopyState{obj.version, SimTime()};
  ++stats_.ae_refreshes;
  stats_.ae_refresh_bytes += obj.size;
  stats_.coherence_bytes += obj.size;
  if (trace_ != nullptr) {
    trace_->RecordStorage(StorageTrace{record.object, instance,
                                       StorageOp::kRefresh, obj.size, start,
                                       refresh_done});
  }
}

void StorageLayer::ExportMetrics(MetricsRegistry* metrics,
                                 const std::string& prefix) const {
  const auto counter = [&](const std::string& name) -> Counter& {
    return metrics->counter(prefix.empty() ? name : prefix + name);
  };
  const auto gauge = [&](const std::string& name) -> Gauge& {
    return metrics->gauge(prefix.empty() ? name : prefix + name);
  };
  counter("storage.writes_total").Set(stats_.writes_total);
  counter("storage.writes_durable").Set(stats_.writes_durable);
  counter("storage.writes_lost").Set(stats_.writes_lost);
  counter("storage.write_bytes").Set(stats_.write_bytes);
  counter("storage.flushes").Set(stats_.flushes);
  counter("storage.dirty_bytes_flushed").Set(stats_.dirty_bytes_flushed);
  counter("storage.dirty_bytes_lost").Set(stats_.dirty_bytes_lost);
  counter("storage.coherence_syncs").Set(stats_.coherence_syncs);
  counter("storage.coherence_bytes").Set(stats_.coherence_bytes);
  counter("storage.stale_reads").Set(stats_.stale_reads);
  counter("storage.max_served_staleness_ns")
      .Set(static_cast<std::uint64_t>(stats_.max_served_staleness_ns));
  counter("storage.ae.records").Set(stats_.ae_records);
  counter("storage.ae.applied").Set(stats_.ae_applied);
  counter("storage.ae.invalidations").Set(stats_.ae_invalidations);
  counter("storage.ae.refreshes").Set(stats_.ae_refreshes);
  counter("storage.ae.refresh_bytes").Set(stats_.ae_refresh_bytes);
  counter("storage.tier.fast_reads").Set(stats_.tier_fast_reads);
  counter("storage.tier.slow_reads").Set(stats_.tier_slow_reads);
  counter("storage.tier.promotions").Set(stats_.tier_promotions);
  counter("storage.tier.demotions").Set(stats_.tier_demotions);
  counter("storage.tier.promoted_bytes").Set(stats_.tier_promoted_bytes);
  counter("storage.tier.demoted_bytes").Set(stats_.tier_demoted_bytes);
  gauge("storage.dirty_bytes")
      .SetAt(static_cast<double>(total_dirty_bytes()), sim_->Now());
}

}  // namespace palette
