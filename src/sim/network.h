// Cluster network model.
//
// Matches the paper's testbed (§7): every VM pair shares a flat network
// throttled to 1 Gbps, and functions cannot bypass the kernel, so per-hop
// latency is non-trivial. Each node gets one egress and one ingress FIFO
// resource at the configured bandwidth; a transfer books both (it starts when
// both are free) and completes after the serialization time plus propagation
// latency. Node-local copies bypass the NIC and use a (much higher)
// memory-bandwidth figure — the local-vs-remote gap that Palette exploits.
#ifndef PALETTE_SRC_SIM_NETWORK_H_
#define PALETTE_SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/instance_id.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace palette {

struct NetworkConfig {
  // Paper setup: VMs see 1.86 Gbps raw, throttled to 1 Gbps to approximate
  // non-premium serverless offerings.
  double bandwidth_bits_per_sec = 1e9;
  // One-way propagation + protocol latency per remote transfer.
  SimTime latency = SimTime::FromMicros(200);
  // Node-local data path (cache hit in the same instance).
  double local_bandwidth_bits_per_sec = 64e9;  // ~8 GB/s memory copy
  SimTime local_latency = SimTime::FromMicros(5);
};

class Network {
 public:
  Network(Simulator* sim, NetworkConfig config);

  // Passing the node's interned `id` also indexes its NIC for the id
  // overload of Transfer.
  void AddNode(const std::string& node, InstanceId id = kInvalidInstanceId);
  bool HasNode(const std::string& node) const;

  // Books a transfer of `size` bytes from `src` to `dst` that may start no
  // earlier than `ready`; returns its completion time. Both nodes must have
  // been added. src == dst is a local copy.
  SimTime Transfer(const std::string& src, const std::string& dst, Bytes size,
                   SimTime ready = SimTime());
  // The same transfer between nodes added with their interned ids, without
  // name lookups (the platform's per-invocation fetch path).
  SimTime Transfer(InstanceId src, InstanceId dst, Bytes size,
                   SimTime ready = SimTime());

  // Aggregate counters for the evaluation (Fig. 9 reports bytes moved).
  Bytes remote_bytes() const { return remote_bytes_; }
  Bytes local_bytes() const { return local_bytes_; }
  std::uint64_t remote_transfers() const { return remote_transfers_; }
  // Total time remote transfers spent waiting for a busy NIC (the gap
  // between a transfer becoming ready and its serialization starting).
  SimTime total_queue_delay() const { return total_queue_delay_; }

  // Per-node NIC statistics. Local copies bypass the NIC and are not
  // counted here; queue_delay is recorded at the receiving node (the
  // reader is the party that waits).
  struct NodeStats {
    Bytes bytes_out = 0;
    Bytes bytes_in = 0;
    SimTime queue_delay;
  };
  NodeStats NodeStatsOf(const std::string& node) const;

  const NetworkConfig& config() const { return config_; }

 private:
  struct Nic {
    explicit Nic(Simulator* sim) : egress(sim), ingress(sim) {}
    FifoResource egress;
    FifoResource ingress;
    NodeStats stats;
  };

  Nic& NicOf(InstanceId id) const;
  SimTime TransferBetween(Nic& src, Nic& dst, Bytes size, SimTime ready);

  Simulator* sim_;
  NetworkConfig config_;
  std::unordered_map<std::string, std::unique_ptr<Nic>> nics_;
  std::vector<Nic*> nics_by_id_;  // [id] -> NIC of the node added with id
  Bytes remote_bytes_ = 0;
  Bytes local_bytes_ = 0;
  std::uint64_t remote_transfers_ = 0;
  SimTime total_queue_delay_;
};

}  // namespace palette

#endif  // PALETTE_SRC_SIM_NETWORK_H_
