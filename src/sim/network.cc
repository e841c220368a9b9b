#include "src/sim/network.h"

#include <cassert>

namespace palette {

Network::Network(Simulator* sim, NetworkConfig config)
    : sim_(sim), config_(config) {}

void Network::AddNode(const std::string& node, InstanceId id) {
  const auto [it, inserted] = nics_.try_emplace(node);
  if (inserted) {
    it->second = std::make_unique<Nic>(sim_);
  }
  if (id != kInvalidInstanceId) {
    if (id >= nics_by_id_.size()) {
      nics_by_id_.resize(id + 1, nullptr);
    }
    nics_by_id_[id] = it->second.get();
  }
}

bool Network::HasNode(const std::string& node) const {
  return nics_.count(node) > 0;
}

SimTime Network::Transfer(const std::string& src, const std::string& dst,
                          Bytes size, SimTime ready) {
  auto src_it = nics_.find(src);
  auto dst_it = nics_.find(dst);
  assert(src_it != nics_.end() && "unknown source node");
  assert(dst_it != nics_.end() && "unknown destination node");
  return TransferBetween(*src_it->second, *dst_it->second, size, ready);
}

Network::Nic& Network::NicOf(InstanceId id) const {
  assert(id < nics_by_id_.size() && nics_by_id_[id] != nullptr &&
         "unknown node id");
  return *nics_by_id_[id];
}

SimTime Network::Transfer(InstanceId src, InstanceId dst, Bytes size,
                          SimTime ready) {
  return TransferBetween(NicOf(src), NicOf(dst), size, ready);
}

SimTime Network::TransferBetween(Nic& src_nic, Nic& dst_nic, Bytes size,
                                 SimTime ready) {
  if (&src_nic == &dst_nic) {
    local_bytes_ += size;
    const SimTime duration =
        TransferDuration(size, config_.local_bandwidth_bits_per_sec / 8.0);
    SimTime start = sim_->Now();
    if (ready > start) {
      start = ready;
    }
    return start + config_.local_latency + duration;
  }

  remote_bytes_ += size;
  ++remote_transfers_;
  const SimTime duration =
      TransferDuration(size, config_.bandwidth_bits_per_sec / 8.0);

  // The transfer needs the sender's egress and the receiver's ingress
  // simultaneously: find the earliest instant both are free, then book the
  // serialization time on each.
  SimTime base = sim_->Now();
  if (ready > base) {
    base = ready;
  }
  SimTime start = base;
  if (src_nic.egress.available_at() > start) {
    start = src_nic.egress.available_at();
  }
  if (dst_nic.ingress.available_at() > start) {
    start = dst_nic.ingress.available_at();
  }
  const SimTime wait = start - base;
  total_queue_delay_ = total_queue_delay_ + wait;
  src_nic.stats.bytes_out += size;
  dst_nic.stats.bytes_in += size;
  dst_nic.stats.queue_delay = dst_nic.stats.queue_delay + wait;
  const SimTime egress_done = src_nic.egress.Acquire(duration, start);
  const SimTime ingress_done = dst_nic.ingress.Acquire(duration, start);
  const SimTime done =
      (egress_done > ingress_done ? egress_done : ingress_done) +
      config_.latency;
  return done;
}

Network::NodeStats Network::NodeStatsOf(const std::string& node) const {
  auto it = nics_.find(node);
  return it == nics_.end() ? NodeStats{} : it->second->stats;
}

}  // namespace palette
