// Stateful storage tier tests (docs/STORAGE.md): coherence-mode read/write
// semantics, bounded write-back dirty age and crash loss, anti-entropy
// replay after restart, two-tier promotion/demotion, §5.1 name translation
// at dispatch, and determinism of write-heavy runs across engine shard
// counts and re-runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/cache/faast_cache.h"
#include "src/common/rng.h"
#include "src/common/table_printer.h"
#include "src/faas/platform.h"
#include "src/obs/trace.h"
#include "src/router/router_tier.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/storage_layer.h"
#include "src/storage/storage_types.h"
#include "src/storage/tiered_store.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

constexpr Bytes kObj = 4 * kMiB;

// A bench-scale write-heavy open-loop spec, small enough for a test.
WorkloadSpec WriteHeavySpec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = 150;
  spec.mix.color_count = 16;
  spec.mix.zipf_theta = 0.9;
  spec.mix.objects_per_color = 4;
  spec.mix.inputs_per_invocation = 1;
  spec.mix.write_fraction = 0.2;
  spec.mix.functions[0].cpu_ops = 1e6;
  spec.driver.duration = SimTime::FromSeconds(3);
  spec.seed = seed;
  return spec;
}

// Direct-layer fixture: two workers, a slow store node, and a StorageLayer
// wired the way FaasPlatform wires it.
struct LayerRig {
  explicit LayerRig(StorageConfig config)
      : network(&sim, NetworkConfig{}),
        layer(&sim, &network, &cache, config, "store") {
    network.AddNode("store");
    for (const char* w : {"w0", "w1"}) {
      network.AddNode(w);
      cache.AddInstance(w);
      layer.OnInstanceJoin(w);
    }
  }

  // A write at w0 followed by a fetched copy at w1, then a second write at
  // w0 — leaving w1's copy exactly one version stale.
  void StrandStaleCopyAtW1(const std::string& name) {
    cache.Put("w0", name, kObj);
    layer.OnWrite("w0", "w0", name, kObj, std::nullopt, {}, sim.Now());
    cache.PutLocal("w1", name, kObj);
    layer.NoteCopy("w1", name);
    layer.OnWrite("w0", "w0", name, kObj, std::nullopt, {}, sim.Now());
  }

  Simulator sim;
  Network network;
  FaastCache cache;
  StorageLayer layer;
};

StorageConfig ModeConfig(CoherenceMode mode) {
  StorageConfig config;
  config.mode = mode;
  // Long AE lag: these unit tests exercise the read-time checks before any
  // anti-entropy record applies.
  config.ae_lag = SimTime::FromSeconds(30);
  return config;
}

TEST(StorageTypesTest, CoherenceModeIdRoundTrips) {
  for (const CoherenceMode mode :
       {CoherenceMode::kNone, CoherenceMode::kWriteThrough,
        CoherenceMode::kWriteBack, CoherenceMode::kCausal}) {
    CoherenceMode parsed;
    ASSERT_TRUE(ParseCoherenceMode(CoherenceModeId(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  CoherenceMode parsed;
  EXPECT_FALSE(ParseCoherenceMode("eventually", &parsed));
}

TEST(StorageLayerTest, WriteThroughNeverServesStale) {
  LayerRig rig(ModeConfig(CoherenceMode::kWriteThrough));
  rig.StrandStaleCopyAtW1("w0___o");

  // The stale local hit at w1 must block on a forced re-sync, not serve.
  const SimTime done = rig.sim.Now();
  const SimTime ready = rig.layer.OnLocalRead("w1", "w0___o", done);
  EXPECT_GT(ready, done);
  EXPECT_EQ(rig.layer.stats().stale_reads, 0u);
  EXPECT_EQ(rig.layer.stats().coherence_syncs, 1u);
  EXPECT_EQ(rig.layer.stats().coherence_bytes, kObj);
  // The sync repaired the copy: the next read is clean.
  EXPECT_EQ(rig.layer.OnLocalRead("w1", "w0___o", done), done);
  // Both writes were synchronously durable.
  EXPECT_EQ(rig.layer.stats().writes_total, 2u);
  EXPECT_EQ(rig.layer.stats().writes_durable, 2u);
  EXPECT_TRUE(rig.layer.stats().WriteBooksClose());
}

TEST(StorageLayerTest, CausalServesWithinBoundThenForcesSync) {
  StorageConfig config = ModeConfig(CoherenceMode::kCausal);
  config.staleness_bound = SimTime::FromMillis(50);
  LayerRig rig(config);
  rig.StrandStaleCopyAtW1("w0___o");

  // 10ms stale: served, counted, max tracked.
  rig.sim.At(SimTime::FromMillis(10), [&rig] {
    const SimTime done = rig.sim.Now();
    EXPECT_EQ(rig.layer.OnLocalRead("w1", "w0___o", done), done);
    EXPECT_EQ(rig.layer.stats().stale_reads, 1u);
    EXPECT_EQ(rig.layer.stats().max_served_staleness_ns,
              SimTime::FromMillis(10).nanos());
  });
  // 200ms stale: past the bound, the read must block on a re-fetch.
  rig.sim.At(SimTime::FromMillis(200), [&rig] {
    const SimTime done = rig.sim.Now();
    EXPECT_GT(rig.layer.OnLocalRead("w1", "w0___o", done), done);
    EXPECT_EQ(rig.layer.stats().stale_reads, 1u);
    EXPECT_EQ(rig.layer.stats().coherence_syncs, 1u);
  });
  rig.sim.Run();
  // The bound was never exceeded by a served read.
  EXPECT_LE(rig.layer.stats().max_served_staleness_ns,
            config.staleness_bound.nanos());
}

TEST(StorageLayerTest, WriteBackFlushesWithinDirtyAge) {
  StorageConfig config = ModeConfig(CoherenceMode::kWriteBack);
  config.max_dirty_age = SimTime::FromMillis(50);
  LayerRig rig(config);
  rig.cache.Put("w0", "w0___o", kObj);
  rig.layer.OnWrite("w0", "w0", "w0___o", kObj, std::nullopt, {},
                    rig.sim.Now());
  EXPECT_EQ(rig.layer.stats().writes_durable, 0u);
  EXPECT_EQ(rig.layer.total_dirty_bytes(), kObj);

  bool checked = false;
  // Just past the dirty-age bound the flush timer must have fired.
  rig.sim.At(SimTime::FromMillis(51), [&rig, &checked] {
    EXPECT_EQ(rig.layer.stats().writes_durable, 1u);
    EXPECT_EQ(rig.layer.stats().flushes, 1u);
    EXPECT_EQ(rig.layer.stats().dirty_bytes_flushed, kObj);
    EXPECT_EQ(rig.layer.total_dirty_bytes(), 0u);
    checked = true;
  });
  rig.sim.Run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(rig.layer.stats().WriteBooksClose());
}

TEST(StorageLayerTest, WriteBackCrashLosesDirtyDataInTheBooks) {
  StorageConfig config = ModeConfig(CoherenceMode::kWriteBack);
  config.max_dirty_age = SimTime::FromSeconds(1);
  LayerRig rig(config);
  rig.cache.Put("w0", "w0___a", kObj);
  rig.cache.Put("w0", "w0___b", kObj);
  rig.layer.OnWrite("w0", "w0", "w0___a", kObj, std::nullopt, {},
                    rig.sim.Now());
  rig.layer.OnWrite("w0", "w0", "w0___b", kObj, std::nullopt, {},
                    rig.sim.Now());

  // Crash inside the dirty window: both buffered writes die with the owner
  // — surfaced in the books, never silent.
  rig.layer.OnInstanceLeave("w0", /*crashed=*/true);
  rig.sim.Run();
  EXPECT_EQ(rig.layer.stats().writes_lost, 2u);
  EXPECT_EQ(rig.layer.stats().dirty_bytes_lost, 2 * kObj);
  EXPECT_EQ(rig.layer.stats().writes_durable, 0u);
  EXPECT_TRUE(rig.layer.stats().WriteBooksClose());
}

TEST(StorageLayerTest, GracefulLeaveFlushesDirtyDataFirst) {
  StorageConfig config = ModeConfig(CoherenceMode::kWriteBack);
  config.max_dirty_age = SimTime::FromSeconds(1);
  LayerRig rig(config);
  rig.cache.Put("w0", "w0___o", kObj);
  rig.layer.OnWrite("w0", "w0", "w0___o", kObj, std::nullopt, {},
                    rig.sim.Now());
  rig.layer.OnInstanceLeave("w0", /*crashed=*/false);
  rig.sim.Run();
  EXPECT_EQ(rig.layer.stats().writes_lost, 0u);
  EXPECT_EQ(rig.layer.stats().writes_durable, 1u);
  EXPECT_EQ(rig.layer.stats().dirty_bytes_flushed, kObj);
  EXPECT_TRUE(rig.layer.stats().WriteBooksClose());
}

// DirtyBytesOwnedBy and FlushKeyOwned walk only the names that can carry
// hashing key `key` ("key" itself and "key___*"). Neighbours in name order
// must stay out: "c10___o0" shares the "c1" text prefix, and "c1__x" (two
// underscores) hashes by its whole name.
TEST(StorageLayerTest, KeyRangeWalkStopsAtPrefixBoundaries) {
  StorageConfig config = ModeConfig(CoherenceMode::kWriteBack);
  config.max_dirty_age = SimTime::FromSeconds(1);
  LayerRig rig(config);
  TraceRecorder trace;
  rig.layer.set_trace_recorder(&trace);
  struct Dirty {
    const char* name;
    const char* owner;
    Bytes size;
  };
  const std::vector<Dirty> writes = {
      {"c1___o1", "w0", 1},  {"c10___o0", "w0", 2}, {"c1", "w0", 4},
      {"c1__x", "w0", 8},    {"c1___o0", "w0", 16}, {"c1____y", "w0", 32},
      {"c1___o2", "w1", 64}, {"c0___o0", "w0", 128}};
  for (const Dirty& w : writes) {
    rig.cache.PutLocal(w.owner, w.name, w.size);
    rig.layer.OnWrite(w.owner, w.owner, w.name, w.size, std::nullopt, {},
                      rig.sim.Now());
  }

  // The old full scan, as a reference: every written name in name order,
  // kept when w0 owns it and its hashing key is exactly "c1".
  std::vector<std::string> expected;
  Bytes expected_bytes = 0;
  std::vector<Dirty> by_name = writes;
  std::sort(by_name.begin(), by_name.end(), [](const Dirty& a, const Dirty& b) {
    return std::string(a.name) < std::string(b.name);
  });
  for (const Dirty& w : by_name) {
    if (std::string(w.owner) == "w0" && FaastCache::HashKeyOf(w.name) == "c1") {
      expected.push_back(w.name);
      expected_bytes += w.size;
    }
  }
  ASSERT_EQ(expected,
            (std::vector<std::string>{"c1", "c1____y", "c1___o0", "c1___o1"}));
  EXPECT_EQ(expected_bytes, 4u + 32u + 16u + 1u);
  const InstanceId w0 = InternInstance("w0");
  const InstanceId w1 = InternInstance("w1");
  EXPECT_EQ(rig.layer.DirtyBytesOwnedBy(w0, "c1"), expected_bytes);
  EXPECT_EQ(rig.layer.DirtyBytesOwnedBy(w1, "c1"), 64u);
  EXPECT_EQ(rig.layer.DirtyBytesOwnedBy(w0, "c10"), 2u);
  EXPECT_EQ(rig.layer.DirtyBytesOwnedBy(w0, "c1__x"), 8u);
  // A key containing the token is nobody's hashing key, even though an
  // object carries exactly that name.
  EXPECT_EQ(rig.layer.DirtyBytesOwnedBy(w0, "c1___o0"), 0u);

  rig.layer.FlushKeyOwned("w0", "c1");
  std::vector<std::string> flushed;
  for (const StorageTrace& op : trace.storage_ops()) {
    if (op.op == StorageOp::kFlush) {
      EXPECT_EQ(op.instance, "w0");
      flushed.push_back(op.object);
    }
  }
  EXPECT_EQ(flushed, expected);
  EXPECT_EQ(rig.layer.DirtyBytesOwnedBy(w0, "c1"), 0u);
  EXPECT_EQ(rig.layer.DirtyBytesOwnedBy(w1, "c1"), 64u);
  EXPECT_EQ(rig.layer.total_dirty_bytes(), 64u + 2u + 8u + 128u);
}

TEST(StorageLayerTest, AntiEntropyReplayAfterRestartReachesLatestSeq) {
  StorageConfig config = ModeConfig(CoherenceMode::kWriteThrough);
  config.ae_lag = SimTime::FromMillis(10);
  LayerRig rig(config);
  for (int i = 0; i < 5; ++i) {
    const std::string name = StrFormat("w0___o%d", i);
    rig.cache.Put("w0", name, kObj);
    rig.layer.OnWrite("w0", "w0", name, kObj, std::nullopt, {},
                      rig.sim.Now());
  }
  EXPECT_EQ(rig.layer.latest_seq(), 5u);

  // w1 crashes and restarts: its cursor resets to zero and the whole log
  // replays for it after the lag — exactly once, from seq 1.
  rig.layer.OnInstanceLeave("w1", /*crashed=*/true);
  rig.layer.OnInstanceJoin("w1");
  EXPECT_EQ(rig.layer.AppliedSeqOf("w1"), 0u);
  rig.sim.Run();
  EXPECT_EQ(rig.layer.AppliedSeqOf("w1"), rig.layer.latest_seq());
  // The writer's own cursor never moves: every record it would apply names
  // it as the source, and sources skip their own records.
  EXPECT_EQ(rig.layer.AppliedSeqOf("w0"), 0u);
  EXPECT_TRUE(rig.layer.stats().ae_applied > 0u);
  EXPECT_TRUE(rig.layer.stats().WriteBooksClose());
}

// The dirty-key index lets DirtyBytesOwnedBy and FlushKeyOwned return at
// once for a key with no dirty object. Under seeded random writes in every
// coherence mode, flush timers, key flushes, crash and graceful leaves,
// rejoins and migration ownership changes, DirtyBytesOwnedBy must equal a
// brute-force sum over the directory after every event.
TEST(StorageLayerTest, DirtyKeyIndexMatchesBruteForceUnderRandomOps) {
  StorageConfig config;
  config.mode = CoherenceMode::kWriteBack;
  config.max_dirty_age = SimTime::FromMillis(3);
  config.ae_lag = SimTime::FromMillis(1);
  Simulator sim;
  Network network(&sim, NetworkConfig{});
  FaastCache cache;
  StorageLayer layer(&sim, &network, &cache, config, "store");
  network.AddNode("store");
  const std::vector<std::string> instances = {"w0", "w1", "w2", "w3"};
  std::vector<bool> live(instances.size(), true);
  for (const std::string& w : instances) {
    network.AddNode(w);
    cache.AddInstance(w);
    layer.OnInstanceJoin(w);
  }
  // Name-order neighbours sharing text prefixes: "c10" and "c1__x" are
  // keys of their own, "c1____y" hashes by "c1", and "c1___o0" is nobody's
  // key.
  const std::vector<std::string> names = {"c1",       "c1___o0", "c1___o1",
                                          "c1____y",  "c10___o0", "c1__x",
                                          "c2___o0",  "c0"};
  const std::vector<std::string> keys = {"c1", "c10", "c1__x",  "c1___o0",
                                         "c2", "c0",  "c",      "absent"};
  const std::vector<std::optional<CoherenceMode>> modes = {
      std::nullopt, CoherenceMode::kNone, CoherenceMode::kWriteThrough,
      CoherenceMode::kWriteBack, CoherenceMode::kCausal};

  Rng rng(20261021);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.NextBelow(n));
  };
  const auto pick_live = [&]() -> std::optional<std::size_t> {
    std::vector<std::size_t> up;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i]) {
        up.push_back(i);
      }
    }
    if (up.empty()) {
      return std::nullopt;
    }
    return up[pick(up.size())];
  };
  std::uint64_t flushed_keys = 0;
  std::uint64_t crashes = 0;
  const auto random_op = [&]() {
    const std::optional<std::size_t> w = pick_live();
    const std::string& name = names[pick(names.size())];
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4: {
        if (!w.has_value()) {
          return;
        }
        const std::string& home = instances[*w];
        const Bytes size = 1 + rng.NextBelow(64);
        cache.PutLocal(home, name, size);
        layer.OnWrite(home, home, name, size, modes[pick(modes.size())],
                      {}, sim.Now());
        return;
      }
      case 5:
        layer.FlushKeyOwned(instances[pick(instances.size())],
                            keys[pick(keys.size())]);
        ++flushed_keys;
        return;
      case 6: {
        // Keep at least one instance up.
        const std::size_t up = static_cast<std::size_t>(
            std::count(live.begin(), live.end(), true));
        if (!w.has_value() || up < 2) {
          return;
        }
        const bool crashed = rng.NextBelow(2) == 0;
        crashes += crashed ? 1 : 0;
        layer.OnInstanceLeave(instances[*w], crashed);
        cache.RemoveInstance(instances[*w]);
        live[*w] = false;
        return;
      }
      case 7: {
        const std::size_t i = pick(instances.size());
        if (!live[i]) {
          cache.AddInstance(instances[i]);
          layer.OnInstanceJoin(instances[i]);
          live[i] = true;
        }
        return;
      }
      case 8:
        // Migration source side: the owner's copy leaves.
        if (w.has_value()) {
          cache.EraseLocal(instances[*w], name);
          layer.NoteErase(instances[*w], name);
        }
        return;
      default:
        // Migration landing: an ownerless object gets a new owner.
        if (w.has_value()) {
          cache.PutLocal(instances[*w], name, 8);
          layer.NoteLanded(instances[*w], name);
        }
        return;
    }
  };
  for (int tick = 0; tick < 4000; ++tick) {
    sim.At(SimTime::FromMicros(250 * tick), [&random_op]() { random_op(); });
  }

  std::uint64_t step = 0;
  std::uint64_t dirty_probes = 0;
  const auto check = [&]() {
    Bytes total = 0;
    for (const std::string& name : names) {
      total += layer.DirtyBytesOf(name);
    }
    ASSERT_EQ(layer.total_dirty_bytes(), total) << "step " << step;
    for (const std::string& instance : instances) {
      for (const std::string& key : keys) {
        Bytes expected = 0;
        for (const std::string& name : names) {
          if (FaastCache::HashKeyOf(name) == key &&
              layer.OwnerOf(name) == instance) {
            expected += layer.DirtyBytesOf(name);
          }
        }
        dirty_probes += expected > 0 ? 1 : 0;
        ASSERT_EQ(layer.DirtyBytesOwnedBy(InternInstance(instance), key),
                  expected)
            << "step " << step << " " << instance << " " << key;
      }
    }
  };
  while (sim.Step()) {
    check();
    if (HasFatalFailure()) {
      return;
    }
    ++step;
  }
  // The walk was exercised both ways: dirty keys, flushes, crash losses.
  EXPECT_GT(dirty_probes, 1000u);
  EXPECT_GT(layer.stats().flushes, 100u);
  EXPECT_GT(layer.stats().writes_lost, 0u);
  EXPECT_GT(flushed_keys, 100u);
  EXPECT_GT(crashes, 10u);
}

// One direct rig for the anti-entropy reference test: its own cache,
// network and layer, on a simulator shared with the other rig.
struct AeRig {
  AeRig(Simulator* sim, StorageConfig config,
        const std::vector<std::string>& universe)
      : network(sim, NetworkConfig{}),
        layer(sim, &network, &cache, config, "store") {
    network.AddNode("store");
    for (const std::string& w : universe) {
      network.AddNode(w);
    }
    layer.set_trace_recorder(&trace);
  }
  void Join(const std::string& w) {
    cache.AddInstance(w);
    layer.OnInstanceJoin(w);
  }
  void Leave(const std::string& w, bool crashed) {
    layer.OnInstanceLeave(w, crashed);
    cache.RemoveInstance(w);
  }

  Network network;
  FaastCache cache;
  StorageLayer layer;
  TraceRecorder trace;
};

// Each write schedules one replay event that walks its peers; it must do
// exactly what one replay event per peer did. The reference rig keeps the
// per-peer schedule here, in the test: before each write (and each join's
// catch-up) it schedules ApplyLogAt for every peer live at write time, in
// name order, minus the home and the write's fresh replicas, so its own
// replay events find nothing left to apply (checked). Membership churns
// inside the ae_lag window: leaves, leaves then rejoins, fresh joins.
// Under both invalidate and refresh (refresh books network transfers, so
// the order shows in its completion times), the two rigs must agree after
// every timestamp on cursors, AE counters, cache residency and the
// storage trace.
TEST(StorageLayerTest, OneReplayEventPerWriteMatchesPerPeerReference) {
  for (const AntiEntropyAction action :
       {AntiEntropyAction::kInvalidate, AntiEntropyAction::kRefresh}) {
    SCOPED_TRACE(action == AntiEntropyAction::kInvalidate ? "invalidate"
                                                          : "refresh");
    StorageConfig config;
    config.mode = CoherenceMode::kWriteThrough;
    config.ae_action = action;
    config.ae_lag = SimTime::FromMillis(2);
    config.max_dirty_age = SimTime::FromMillis(3);
    // Every event lands on the 500 us grid: ticks, replays, flush timers.
    const auto tick = [](int t) { return SimTime::FromMicros(500.0 * t); };
    constexpr int kTicks = 3000;
    // w4 and w5 start outside the cluster: their first join is fresh.
    const std::vector<std::string> universe = {"w0", "w1", "w2",
                                               "w3", "w4", "w5"};
    const std::vector<std::string> names = {"c1___o0", "c1___o1", "c2___o0",
                                            "c3"};
    Simulator sim;
    AeRig rig(&sim, config, universe);
    AeRig ref(&sim, config, universe);
    std::set<std::string> live;
    std::uint64_t ref_applied = 0;  // AE work done by reference replays

    const auto ref_replay = [&](const std::string& peer) {
      sim.At(SaturatingAdd(sim.Now(), config.ae_lag),
             [&ref, &ref_applied, id = InternInstance(peer)]() {
               const std::uint64_t before = ref.layer.stats().ae_applied;
               ref.layer.ApplyLogAt(id);
               ref_applied += ref.layer.stats().ae_applied - before;
             });
    };
    const auto join = [&](const std::string& w) {
      if (ref.layer.latest_seq() > 0) {
        ref_replay(w);  // the join's catch-up
      }
      rig.Join(w);
      ref.Join(w);
      live.insert(w);
    };
    for (int i = 0; i < 4; ++i) {
      join(universe[static_cast<std::size_t>(i)]);
    }

    Rng rng(action == AntiEntropyAction::kInvalidate ? 77 : 78);
    const auto pick = [&rng](const auto& from) {
      auto it = from.begin();
      std::advance(it, rng.NextBelow(from.size()));
      return *it;
    };
    std::uint64_t fresh_writes = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t fresh_joins = 0;
    std::set<std::string> ever_joined(live);
    const auto random_op = [&]() {
      const std::string w = pick(live);
      const std::string name = pick(names);
      const std::uint64_t op = rng.NextBelow(20);
      if (op < 9) {
        // A write at `w`, with up to two fresh replicas drawn from the
        // whole universe (the home and dead instances included).
        std::vector<std::string> fresh;
        for (std::uint64_t n = rng.NextBelow(3); n > 0; --n) {
          fresh.push_back(pick(universe));
        }
        fresh_writes += fresh.empty() ? 0 : 1;
        const Bytes size = 1 + rng.NextBelow(4 * kMiB);
        for (AeRig* r : {&rig, &ref}) {
          r->cache.PutLocal(w, name, size);
          for (const std::string& replica : fresh) {
            if (live.contains(replica)) {
              r->cache.PutLocal(replica, name, size);
            }
          }
        }
        rig.layer.OnWrite(w, w, name, size, std::nullopt, fresh, sim.Now());
        for (const std::string& peer : live) {
          if (peer != w && std::find(fresh.begin(), fresh.end(), peer) ==
                               fresh.end()) {
            ref_replay(peer);
          }
        }
        ref.layer.OnWrite(w, w, name, size, std::nullopt, fresh, sim.Now());
      } else if (op < 15) {
        // A miss fill: a peer copy for anti-entropy to reconcile.
        const Bytes size = 1 + rng.NextBelow(4 * kMiB);
        for (AeRig* r : {&rig, &ref}) {
          if (!r->cache.ContainsLocal(w, name)) {
            r->cache.PutLocal(w, name, size);
            r->layer.NoteCopy(w, name);
          }
        }
      } else if (op < 17) {
        if (live.size() > 2) {
          const bool crashed = rng.NextBelow(2) == 0;
          rig.Leave(w, crashed);
          ref.Leave(w, crashed);
          live.erase(w);
        }
      } else {
        const std::string joiner = pick(universe);
        if (!live.contains(joiner)) {
          (ever_joined.contains(joiner) ? rejoins : fresh_joins) += 1;
          ever_joined.insert(joiner);
          join(joiner);
        }
      }
    };
    for (int t = 0; t < kTicks; ++t) {
      sim.At(tick(t), [&random_op]() { random_op(); });
    }

    const auto compare = [&]() {
      const StorageStats& a = rig.layer.stats();
      const StorageStats& b = ref.layer.stats();
      // The reference rig's own replay events applied nothing.
      ASSERT_EQ(b.ae_applied, ref_applied);
      ASSERT_EQ(a.ae_applied, b.ae_applied);
      ASSERT_EQ(a.ae_invalidations, b.ae_invalidations);
      ASSERT_EQ(a.ae_refreshes, b.ae_refreshes);
      ASSERT_EQ(a.ae_refresh_bytes, b.ae_refresh_bytes);
      ASSERT_EQ(a.coherence_bytes, b.coherence_bytes);
      for (const std::string& w : universe) {
        ASSERT_EQ(rig.layer.AppliedSeqOf(w), ref.layer.AppliedSeqOf(w)) << w;
        for (const std::string& name : names) {
          ASSERT_EQ(rig.cache.ContainsLocal(w, name),
                    ref.cache.ContainsLocal(w, name))
              << w << " " << name;
        }
      }
      const std::vector<StorageTrace>& x = rig.trace.storage_ops();
      const std::vector<StorageTrace>& y = ref.trace.storage_ops();
      ASSERT_EQ(x.size(), y.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(x[i].object, y[i].object) << i;
        ASSERT_EQ(x[i].instance, y[i].instance) << i;
        ASSERT_EQ(x[i].op, y[i].op) << i;
        ASSERT_EQ(x[i].bytes, y[i].bytes) << i;
        ASSERT_EQ(x[i].start, y[i].start) << i;
        ASSERT_EQ(x[i].end, y[i].end) << i;
      }
    };
    // A checkpoint just after each grid point, once every event at that
    // point (both rigs' replays included) has run.
    int checked = 0;
    for (int t = 0; t < kTicks + 16; ++t) {
      sim.At(tick(t) + SimTime::FromNanos(1), [&]() {
        compare();
        ++checked;
      });
    }
    while (sim.Step()) {
      if (HasFatalFailure()) {
        FAIL() << "checkpoint " << checked;
      }
    }
    EXPECT_EQ(checked, kTicks + 16);
    EXPECT_GT(fresh_writes, 100u);
    EXPECT_GT(rejoins, 10u);
    EXPECT_EQ(fresh_joins, 2u);
    EXPECT_GT(rig.layer.stats().ae_applied, 1000u);
    if (action == AntiEntropyAction::kInvalidate) {
      EXPECT_GT(rig.layer.stats().ae_invalidations, 100u);
    } else {
      EXPECT_GT(rig.layer.stats().ae_refreshes, 100u);
    }
  }
}

TEST(TieredStoreTest, PromotesAfterThresholdAndDemotesLru) {
  Simulator sim;
  Network network(&sim, NetworkConfig{});
  network.AddNode("store");
  network.AddNode("w0");
  StorageStats stats;
  StorageTierConfig config;
  config.two_tier = true;
  config.fast_capacity = 2 * kObj;  // room for exactly two objects
  config.promote_after = 2;
  TieredStore store(&sim, &network, config, "store", &stats);

  // Two slow reads promote "a"; one read is not enough for "b" yet.
  store.Read("w0", "a", kObj);
  EXPECT_FALSE(store.InFastTier("a"));
  store.Read("w0", "a", kObj);
  EXPECT_TRUE(store.InFastTier("a"));
  EXPECT_EQ(stats.tier_promotions, 1u);
  EXPECT_EQ(stats.tier_promoted_bytes, kObj);

  // Promote "b", then "c": the fast tier only fits two, so the least-
  // recently-used resident ("a") demotes back to the slow tier.
  store.Read("w0", "b", kObj);
  store.Read("w0", "b", kObj);
  ASSERT_TRUE(store.InFastTier("b"));
  store.Read("w0", "c", kObj);
  store.Read("w0", "c", kObj);
  EXPECT_TRUE(store.InFastTier("c"));
  EXPECT_FALSE(store.InFastTier("a"));
  EXPECT_TRUE(store.InFastTier("b"));
  EXPECT_EQ(stats.tier_demotions, 1u);
  EXPECT_EQ(stats.tier_demoted_bytes, kObj);
  EXPECT_LE(store.fast_used_bytes(), config.fast_capacity);
}

TEST(TieredStoreTest, SingleTierNeverPromotes) {
  Simulator sim;
  Network network(&sim, NetworkConfig{});
  network.AddNode("store");
  network.AddNode("w0");
  StorageStats stats;
  TieredStore store(&sim, &network, StorageTierConfig{}, "store", &stats);
  for (int i = 0; i < 10; ++i) {
    store.Read("w0", "a", kObj);
  }
  EXPECT_FALSE(store.InFastTier("a"));
  EXPECT_EQ(stats.tier_promotions, 0u);
  EXPECT_EQ(stats.tier_fast_reads, 0u);
}

// ---- platform-level -----------------------------------------------------

InvocationSpec ColoredWrite(const std::string& color,
                            const std::string& output) {
  InvocationSpec spec;
  spec.function = "f";
  spec.color = Color(color);
  spec.cpu_ops = 1e6;
  spec.outputs.push_back(ObjectRef{output, kObj});
  return spec;
}

TEST(PlatformStorageTest, ColoredOutputHomesAtRoutedInstanceUnderItsName) {
  Simulator sim;
  PlatformConfig config;
  config.storage.mode = CoherenceMode::kWriteThrough;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  bool done = false;
  platform.Invoke(ColoredWrite("c", "c___obj"),
                  [&](const InvocationResult& r) {
                    done = true;
                    EXPECT_EQ(r.instance, "w0");
                  });
  sim.Run();
  ASSERT_TRUE(done);
  // The object homes exactly where its color ran, and storage versions it
  // under the same name.
  EXPECT_EQ(platform.ColorHome("c"), InternInstance("w0"));
  EXPECT_TRUE(platform.cache().ContainsLocal("w0", "c___obj"));
  EXPECT_EQ(platform.storage_layer()->VersionOf("c___obj"), 1u);
  EXPECT_EQ(platform.storage_layer()->VersionOf("w0___obj"), 0u);
}

TEST(PlatformStorageTest, TranslationOffKeepsRawNames) {
  Simulator sim;
  PlatformConfig config;
  config.storage.mode = CoherenceMode::kWriteThrough;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorker("w0");
  bool done = false;
  platform.Invoke(ColoredWrite("c", "c___obj"),
                  [&](const InvocationResult&) { done = true; });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(platform.cache().ContainsLocal("w0", "c___obj"));
  EXPECT_FALSE(platform.cache().ContainsLocal("w0", "w0___obj"));
}

TEST(PlatformStorageTest, WriteThroughBooksCloseAcrossInvocations) {
  Simulator sim;
  PlatformConfig config;
  config.storage.mode = CoherenceMode::kWriteThrough;
  FaasPlatform platform(&sim, PolicyKind::kLeastAssigned, 1, config);
  platform.AddWorkers(4);
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    platform.Invoke(
        ColoredWrite(StrFormat("c%d", i % 4), StrFormat("c%d___o", i % 4)),
        [&](const InvocationResult&) { ++completed; });
  }
  sim.Run();
  EXPECT_EQ(completed, 12);
  const StorageStats& stats = platform.storage_layer()->stats();
  EXPECT_EQ(stats.writes_total, 12u);
  EXPECT_EQ(stats.writes_durable, 12u);
  EXPECT_EQ(stats.stale_reads, 0u);
  EXPECT_TRUE(stats.WriteBooksClose());
}

// ---- harness-level ------------------------------------------------------

PlatformConfig StoragePlatform(CoherenceMode mode) {
  PlatformConfig config = DefaultWorkloadPlatformConfig();
  config.storage.mode = mode;
  config.storage.max_dirty_age = SimTime::FromMillis(200);
  config.storage.staleness_bound = SimTime::FromMillis(100);
  return config;
}

TEST(StorageWorkloadTest, WriteBackCrashKeepsBooksClosed) {
  RouterTierConfig tier;
  tier.routers = 1;
  FaultSchedule faults;
  faults.Add(FaultEvent{SimTime::FromMillis(1500), FaultKind::kCrash, "w1"});
  const WorkloadRunResult run = RunRouterWorkload(
      WriteHeavySpec(7), PolicyKind::kLeastAssigned, 4, tier, SloConfig{},
      StoragePlatform(CoherenceMode::kWriteBack), &faults);
  EXPECT_GT(run.storage.writes_total, 0u);
  EXPECT_TRUE(run.storage.WriteBooksClose());
  EXPECT_EQ(run.platform_submitted,
            run.platform_completed + run.platform_dropped +
                run.platform_abandoned);
}

TEST(StorageWorkloadTest, CausalBoundHeldUnderRouterChurn) {
  RouterTierConfig tier;
  tier.routers = 2;
  tier.sync_lag = SimTime::FromMillis(50);
  FaultSchedule faults;
  faults.Add(
      FaultEvent{SimTime::FromMillis(1000), FaultKind::kRouterCrash, "r0"});
  const PlatformConfig config = StoragePlatform(CoherenceMode::kCausal);
  const WorkloadRunResult run =
      RunRouterWorkload(WriteHeavySpec(11), PolicyKind::kLeastAssigned, 4,
                        tier, SloConfig{}, config, &faults);
  EXPECT_GT(run.storage.writes_total, 0u);
  EXPECT_TRUE(run.storage.WriteBooksClose());
  // Bounded staleness holds even while routers churn the view: a stale
  // copy is never served past the bound.
  EXPECT_LE(run.storage.max_served_staleness_ns,
            config.storage.staleness_bound.nanos());
}

TEST(StorageWorkloadTest, WriteHeavyRunIsSeedReproducible) {
  RouterTierConfig tier;
  tier.routers = 1;
  const PlatformConfig config = StoragePlatform(CoherenceMode::kWriteBack);
  const WorkloadRunResult a =
      RunRouterWorkload(WriteHeavySpec(23), PolicyKind::kLeastAssigned, 4,
                        tier, SloConfig{}, config);
  const WorkloadRunResult b =
      RunRouterWorkload(WriteHeavySpec(23), PolicyKind::kLeastAssigned, 4,
                        tier, SloConfig{}, config);
  EXPECT_EQ(a.samples_digest, b.samples_digest);
  EXPECT_EQ(a.storage.writes_total, b.storage.writes_total);
  EXPECT_EQ(a.storage.writes_durable, b.storage.writes_durable);
  EXPECT_EQ(a.storage.write_bytes, b.storage.write_bytes);
  EXPECT_EQ(a.storage.coherence_bytes, b.storage.coherence_bytes);
  EXPECT_EQ(a.storage.ae_records, b.storage.ae_records);
  EXPECT_EQ(a.storage.flushes, b.storage.flushes);
}

TEST(StorageWorkloadTest, ShardedDigestsAndStorageBooksMatchAcrossShards) {
  ShardedWorkloadConfig base;
  base.groups = 2;
  base.routers_per_group = 1;
  PlatformConfig platform = StoragePlatform(CoherenceMode::kCausal);
  platform.storage.tiers.two_tier = true;
  const WorkloadSpec spec = WriteHeavySpec(31);

  ShardedRunResult first;
  bool have_first = false;
  for (const int shards : {1, 4}) {
    ShardedWorkloadConfig config = base;
    config.shards = shards;
    const ShardedRunResult run = RunShardedWorkload(
        spec, PolicyKind::kLeastAssigned, 8, config, SloConfig{}, platform);
    ASSERT_TRUE(run.books_close);
    ASSERT_GT(run.storage.writes_total, 0u);
    ASSERT_TRUE(run.storage.WriteBooksClose());
    if (!have_first) {
      first = run;
      have_first = true;
      continue;
    }
    // Bit-identical across engine shard counts: samples, events, and every
    // storage counter.
    EXPECT_EQ(run.samples_digest, first.samples_digest);
    EXPECT_EQ(run.engine_digest, first.engine_digest);
    EXPECT_EQ(run.storage.writes_total, first.storage.writes_total);
    EXPECT_EQ(run.storage.writes_durable, first.storage.writes_durable);
    EXPECT_EQ(run.storage.write_bytes, first.storage.write_bytes);
    EXPECT_EQ(run.storage.coherence_bytes, first.storage.coherence_bytes);
    EXPECT_EQ(run.storage.stale_reads, first.storage.stale_reads);
    EXPECT_EQ(run.storage.max_served_staleness_ns,
              first.storage.max_served_staleness_ns);
    EXPECT_EQ(run.storage.ae_records, first.storage.ae_records);
    EXPECT_EQ(run.storage.ae_applied, first.storage.ae_applied);
    EXPECT_EQ(run.storage.tier_promotions, first.storage.tier_promotions);
    EXPECT_EQ(run.storage.tier_demotions, first.storage.tier_demotions);
  }
}

}  // namespace
}  // namespace palette
