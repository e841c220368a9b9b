// Extension experiment — write coherence under locality-aware routing
// (docs/STORAGE.md).
//
// The paper's prototype keeps "a single active instance per color at any
// time" (§5 Scaling). This bench quantifies a payoff of that choice the
// paper doesn't measure: coherence traffic. Under sticky colored routing,
// reads and writes of a color meet at one instance, so a write invalidates
// almost no foreign copies — coherence bytes (forced re-syncs of stale
// copies plus anti-entropy refresh payloads) stay near zero. Spraying the
// same workload across an 8-router tier scatters copies of every hot
// object across the cluster; each write then strands those copies stale
// and the storage layer has to haul the fresh bytes back out.
//
// The sweep runs the open-loop MMPP harness at write_fraction 0.1 over
//   coherence mode x routing:   {write-through, write-back, causal}
//                             x {sticky1 (color partition), spray8},
// then a fault sweep (worker crash, crash + restart, per mode) and a
// sharded-engine determinism cell on a write-heavy MMPP run.
//
// Asserted invariants (exit 1 on violation):
//   * sticky coherence bytes <= 10% of spray's in every mode (and spray's
//     are nonzero — the comparison is not vacuous);
//   * write-through serves zero stale reads, everywhere, faults included;
//   * causal never serves a read staler than the configured bound;
//   * the write books close in every cell — writes_total ==
//     writes_durable + writes_lost — and the crash cell actually loses
//     dirty write-back data (the loss is surfaced, never silent);
//   * the platform books close in every cell, faults included;
//   * the write-back cell is bit-identical when re-run with the same seed;
//   * on the sharded engine, digests and every storage counter are
//     identical across --shards 1 and 4.
// Writes BENCH_coherence.json (no wall-clock fields; byte-stable per seed).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/table_printer.h"
#include "src/router/router_tier.h"
#include "src/storage/storage_types.h"
#include "src/workload/fault_schedule.h"
#include "src/workload/sharded_run.h"
#include "src/workload/spec.h"

namespace palette {
namespace {

constexpr int kWorkers = 8;
constexpr double kOfferedRps = 400;
constexpr double kWriteFraction = 0.1;

WorkloadSpec WriteHeavySpec() {
  WorkloadSpec spec;
  spec.arrival.kind = ArrivalKind::kMmpp;
  spec.arrival.rate_per_sec = kOfferedRps;
  spec.mix.color_count = 64;
  spec.mix.zipf_theta = 0.9;
  spec.mix.objects_per_color = 4;
  spec.mix.inputs_per_invocation = 1;
  spec.mix.write_fraction = kWriteFraction;
  spec.mix.functions[0].cpu_ops = 2e6;  // ~2 ms compute per invocation
  spec.driver.duration = SimTime::FromSeconds(12);
  spec.seed = 17;
  return spec;
}

StorageConfig StorageFor(CoherenceMode mode) {
  StorageConfig storage;
  storage.mode = mode;
  // Wide dirty window so a mid-run crash reliably catches buffered
  // write-back data (the loss-accounting cell depends on it).
  storage.max_dirty_age = SimTime::FromMillis(500);
  storage.staleness_bound = SimTime::FromMillis(100);
  // Wider than the default 10ms: the anti-entropy window is where stale
  // copies are visible, so it sets the size of the coherence traffic the
  // cells contrast (forced syncs for write-through/back, counted stale
  // serves for causal).
  storage.ae_lag = SimTime::FromMillis(25);
  return storage;
}

struct Cell {
  std::string label;
  CoherenceMode mode = CoherenceMode::kNone;
  WorkloadRunResult run;
  bool books_close = false;
};

Cell RunCell(const std::string& label, CoherenceMode mode, int routers,
             DispatchMode dispatch, const FaultSchedule* faults) {
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(250);
  slo.warmup = SimTime::FromSeconds(2);
  RouterTierConfig tier_config;
  tier_config.routers = routers;
  tier_config.dispatch = dispatch;
  PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  platform_config.storage = StorageFor(mode);
  // Remote hits leave a local copy behind — under spray that plants the
  // foreign replicas every write then has to reconcile; under sticky
  // routing reads are already local, so nothing replicates.
  platform_config.cache.replicate_on_remote_hit = true;
  Cell cell;
  cell.label = label;
  cell.mode = mode;
  cell.run = RunRouterWorkload(WriteHeavySpec(), PolicyKind::kLeastAssigned,
                               kWorkers, tier_config, slo, platform_config,
                               faults);
  cell.books_close =
      cell.run.platform_submitted == cell.run.platform_completed +
                                         cell.run.platform_dropped +
                                         cell.run.platform_abandoned;
  return cell;
}

void AppendStorageJson(const StorageStats& s, JsonWriter* json) {
  json->BeginObject();
  json->Key("writes_total");
  json->UInt(s.writes_total);
  json->Key("writes_durable");
  json->UInt(s.writes_durable);
  json->Key("writes_lost");
  json->UInt(s.writes_lost);
  json->Key("flushes");
  json->UInt(s.flushes);
  json->Key("dirty_bytes_lost");
  json->UInt(s.dirty_bytes_lost);
  json->Key("coherence_syncs");
  json->UInt(s.coherence_syncs);
  json->Key("coherence_bytes");
  json->UInt(s.coherence_bytes);
  json->Key("stale_reads");
  json->UInt(s.stale_reads);
  json->Key("max_served_staleness_ns");
  json->Int(s.max_served_staleness_ns);
  json->Key("ae_records");
  json->UInt(s.ae_records);
  json->Key("ae_applied");
  json->UInt(s.ae_applied);
  json->Key("write_books_close");
  json->Bool(s.WriteBooksClose());
  json->EndObject();
}

void AppendCellJson(const Cell& cell, JsonWriter* json) {
  json->BeginObject();
  json->Key("cell");
  json->String(cell.label);
  json->Key("coherence");
  json->String(CoherenceModeId(cell.mode));
  json->Key("local_hit_ratio");
  json->Double(cell.run.report.local_hit_ratio);
  json->Key("p99_ms");
  json->Double(cell.run.report.p99_ms);
  json->Key("goodput_rps");
  json->Double(cell.run.report.goodput_rps);
  json->Key("books_close");
  json->Bool(cell.books_close);
  json->Key("samples_digest");
  json->UInt(cell.run.samples_digest);
  json->Key("storage");
  AppendStorageJson(cell.run.storage, json);
  json->EndObject();
}

// Books for a cell: both the platform identity and the write identity.
bool CellBooksClose(const Cell& cell) {
  return cell.books_close && cell.run.storage.WriteBooksClose();
}

void AddTableRow(TablePrinter* table, const Cell& cell) {
  const StorageStats& s = cell.run.storage;
  table->AddRow(
      {cell.label, std::string(CoherenceModeId(cell.mode)),
       StrFormat("%.4f", cell.run.report.local_hit_ratio),
       StrFormat("%llu", (unsigned long long)s.writes_total),
       StrFormat("%llu", (unsigned long long)s.writes_lost),
       FormatBytes(s.coherence_bytes),
       StrFormat("%llu", (unsigned long long)s.stale_reads),
       StrFormat("%.2f", static_cast<double>(s.max_served_staleness_ns) / 1e6),
       CellBooksClose(cell) ? "close" : "VIOLATED"});
}

// Sharded-engine determinism cell: a write-heavy MMPP run under causal
// coherence must produce identical digests and storage books for every
// shard count.
bool RunShardedCell(JsonWriter* json) {
  ShardedWorkloadConfig config;
  config.groups = 4;
  config.routers_per_group = 2;
  SloConfig slo;
  slo.deadline = SimTime::FromMillis(250);
  slo.warmup = SimTime::FromSeconds(2);
  PlatformConfig platform_config = DefaultWorkloadPlatformConfig();
  platform_config.storage = StorageFor(CoherenceMode::kCausal);
  platform_config.cache.replicate_on_remote_hit = true;
  const WorkloadSpec spec = WriteHeavySpec();

  json->Key("sharded_cells");
  json->BeginArray();
  bool ok = true;
  std::uint64_t first_samples = 0, first_engine = 0;
  StorageStats first_storage;
  for (const int shards : {1, 4}) {
    config.shards = shards;
    const ShardedRunResult run =
        RunShardedWorkload(spec, PolicyKind::kLeastAssigned, kWorkers,
                           config, slo, platform_config);
    const StorageStats& s = run.storage;
    if (shards == 1) {
      first_samples = run.samples_digest;
      first_engine = run.engine_digest;
      first_storage = s;
    } else if (run.samples_digest != first_samples ||
               run.engine_digest != first_engine ||
               s.writes_total != first_storage.writes_total ||
               s.writes_durable != first_storage.writes_durable ||
               s.writes_lost != first_storage.writes_lost ||
               s.coherence_syncs != first_storage.coherence_syncs ||
               s.coherence_bytes != first_storage.coherence_bytes ||
               s.stale_reads != first_storage.stale_reads ||
               s.max_served_staleness_ns !=
                   first_storage.max_served_staleness_ns ||
               s.ae_records != first_storage.ae_records ||
               s.ae_applied != first_storage.ae_applied) {
      std::fprintf(stderr,
                   "FAIL: sharded write-heavy run diverged at --shards=%d\n",
                   shards);
      ok = false;
    }
    if (!run.books_close || !s.WriteBooksClose()) {
      std::fprintf(stderr, "FAIL: sharded books do not close (shards=%d)\n",
                   shards);
      ok = false;
    }
    if (s.writes_total == 0) {
      std::fprintf(stderr, "FAIL: sharded cell wrote nothing\n");
      ok = false;
    }
    json->BeginObject();
    json->Key("shards");
    json->Int(shards);
    json->Key("samples_digest");
    json->UInt(run.samples_digest);
    json->Key("engine_digest");
    json->UInt(run.engine_digest);
    json->Key("storage");
    AppendStorageJson(s, json);
    json->EndObject();
  }
  json->EndArray();
  return ok;
}

void Run() {
  std::printf("== Extension: write coherence — sticky vs sprayed routing "
              "across coherence modes ==\n");
  std::printf("(open-loop MMPP %.0f rps, %d workers, write fraction %.2f; "
              "sticky keeps\n writes at the copies, spray strands copies "
              "stale)\n\n",
              kOfferedRps, kWorkers, kWriteFraction);

  JsonWriter json;
  json.BeginObject();
  json.Key("schema");
  json.String("palette-bench-v1");
  json.Key("bench");
  json.String("ext_write_coherence");
  json.Key("workers");
  json.Int(kWorkers);
  json.Key("offered_rps");
  json.Double(kOfferedRps);
  json.Key("write_fraction");
  json.Double(kWriteFraction);
  json.Key("cells");
  json.BeginArray();

  TablePrinter table;
  table.AddRow({"cell", "mode", "hit_ratio", "writes", "lost", "coh_bytes",
                "stale", "max_stale_ms", "books"});

  const SimTime staleness_bound = StorageFor(CoherenceMode::kCausal)
                                      .staleness_bound;
  bool ok = true;
  Cell wb_sticky;  // kept for the seed-reproducibility re-run
  for (const CoherenceMode mode :
       {CoherenceMode::kWriteThrough, CoherenceMode::kWriteBack,
        CoherenceMode::kCausal}) {
    const std::string mode_id(CoherenceModeId(mode));
    const Cell sticky = RunCell("sticky1_" + mode_id, mode, 1,
                                DispatchMode::kColorPartition, nullptr);
    const Cell spray =
        RunCell("spray8_" + mode_id, mode, 8, DispatchMode::kSpray, nullptr);
    if (mode == CoherenceMode::kWriteBack) {
      wb_sticky = sticky;
    }

    for (const Cell* cell : {&sticky, &spray}) {
      AddTableRow(&table, *cell);
      AppendCellJson(*cell, &json);
      if (!CellBooksClose(*cell)) {
        std::fprintf(stderr, "FAIL: books do not close (%s)\n",
                     cell->label.c_str());
        ok = false;
      }
      if (mode == CoherenceMode::kWriteThrough &&
          (cell->run.storage.stale_reads != 0 ||
           cell->run.storage.max_served_staleness_ns != 0)) {
        std::fprintf(stderr,
                     "FAIL: write-through served %llu stale reads (%s)\n",
                     (unsigned long long)cell->run.storage.stale_reads,
                     cell->label.c_str());
        ok = false;
      }
      if (mode == CoherenceMode::kCausal &&
          cell->run.storage.max_served_staleness_ns >
              staleness_bound.nanos()) {
        std::fprintf(stderr,
                     "FAIL: causal served %.3f ms staleness, bound %.3f ms "
                     "(%s)\n",
                     static_cast<double>(
                         cell->run.storage.max_served_staleness_ns) / 1e6,
                     staleness_bound.millis(), cell->label.c_str());
        ok = false;
      }
    }

    // The headline claim: colored routing makes write coherence nearly
    // free. Spray must pay real coherence traffic (else the comparison is
    // vacuous) and sticky at most a tenth of it.
    const Bytes sticky_bytes = sticky.run.storage.coherence_bytes;
    const Bytes spray_bytes = spray.run.storage.coherence_bytes;
    if (spray_bytes == 0) {
      std::fprintf(stderr,
                   "FAIL: %s spray paid no coherence bytes — the experiment "
                   "is vacuous\n",
                   mode_id.c_str());
      ok = false;
    } else if (static_cast<double>(sticky_bytes) >
               0.10 * static_cast<double>(spray_bytes)) {
      std::fprintf(stderr,
                   "FAIL: %s sticky coherence bytes %llu > 10%% of spray's "
                   "%llu\n",
                   mode_id.c_str(), (unsigned long long)sticky_bytes,
                   (unsigned long long)spray_bytes);
      ok = false;
    }
    // Causal must actually exercise the bounded-staleness path — the
    // bound assert is meaningless if nothing was ever served stale. Spray
    // scatters copies, so its causal cell is where stale serves happen.
    if (mode == CoherenceMode::kCausal &&
        spray.run.storage.stale_reads == 0) {
      std::fprintf(stderr,
                   "FAIL: causal spray served no bounded-stale reads — the "
                   "bound assert is vacuous\n");
      ok = false;
    }
  }

  // Fault sweep: one worker crash mid-run plus a crash + restart, per
  // mode. Write-back must surface real dirty loss under the plain crash;
  // every cell's books — platform and write — must still close.
  for (const CoherenceMode mode :
       {CoherenceMode::kWriteThrough, CoherenceMode::kWriteBack,
        CoherenceMode::kCausal}) {
    const std::string mode_id(CoherenceModeId(mode));
    FaultSchedule crash;
    crash.Add(FaultEvent{SimTime::FromSeconds(5), FaultKind::kCrash, "w1"});
    const Cell crashed = RunCell("crash_" + mode_id, mode, 1,
                                 DispatchMode::kColorPartition, &crash);
    FaultSchedule cycle;
    cycle.Add(FaultEvent{SimTime::FromSeconds(4), FaultKind::kCrash, "w1"});
    cycle.Add(FaultEvent{SimTime::FromSeconds(6), FaultKind::kRestart, "w1"});
    const Cell cycled = RunCell("crash_restart_" + mode_id, mode, 1,
                                DispatchMode::kColorPartition, &cycle);
    for (const Cell* cell : {&crashed, &cycled}) {
      AddTableRow(&table, *cell);
      AppendCellJson(*cell, &json);
      if (!CellBooksClose(*cell)) {
        std::fprintf(stderr, "FAIL: books do not close under faults (%s)\n",
                     cell->label.c_str());
        ok = false;
      }
      if (cell->run.report.completed == 0) {
        std::fprintf(stderr, "FAIL: fault cell completed nothing (%s)\n",
                     cell->label.c_str());
        ok = false;
      }
      if (mode == CoherenceMode::kWriteThrough &&
          cell->run.storage.stale_reads != 0) {
        std::fprintf(stderr,
                     "FAIL: write-through served stale under faults (%s)\n",
                     cell->label.c_str());
        ok = false;
      }
      if (mode == CoherenceMode::kCausal &&
          cell->run.storage.max_served_staleness_ns >
              staleness_bound.nanos()) {
        std::fprintf(stderr,
                     "FAIL: causal bound exceeded under faults (%s)\n",
                     cell->label.c_str());
        ok = false;
      }
    }
    // Synchronously-durable modes lose nothing; write-back's crash cell
    // must lose something — the loss-accounting path has to be exercised,
    // and surfaced in the books rather than silently dropped.
    if (mode == CoherenceMode::kWriteBack) {
      if (crashed.run.storage.writes_lost == 0) {
        std::fprintf(stderr,
                     "FAIL: write-back crash cell lost no dirty writes — "
                     "loss accounting unexercised\n");
        ok = false;
      }
    } else if (crashed.run.storage.writes_lost != 0 ||
               cycled.run.storage.writes_lost != 0) {
      std::fprintf(stderr,
                   "FAIL: %s lost writes despite synchronous durability\n",
                   mode_id.c_str());
      ok = false;
    }
    // The restart cell must replay the anti-entropy log into the rejoined
    // instance (cursor catch-up happens even against an empty shard).
    if (cycled.run.storage.ae_applied == 0) {
      std::fprintf(stderr, "FAIL: restart cell applied no AE records (%s)\n",
                   mode_id.c_str());
      ok = false;
    }
  }

  // Seed reproducibility: the write-back sticky cell re-run with the same
  // seed must reproduce its digest and its entire storage book.
  {
    const Cell again = RunCell(wb_sticky.label, CoherenceMode::kWriteBack, 1,
                               DispatchMode::kColorPartition, nullptr);
    const StorageStats& a = again.run.storage;
    const StorageStats& b = wb_sticky.run.storage;
    if (again.run.samples_digest != wb_sticky.run.samples_digest ||
        a.writes_total != b.writes_total || a.flushes != b.flushes ||
        a.coherence_bytes != b.coherence_bytes ||
        a.ae_applied != b.ae_applied) {
      std::fprintf(stderr,
                   "FAIL: write-back cell not reproducible per seed\n");
      ok = false;
    }
  }
  json.EndArray();

  const bool sharded_ok = RunShardedCell(&json);
  ok = ok && sharded_ok;
  json.Key("ok");
  json.Bool(ok);
  json.EndObject();

  table.Print();
  std::printf(
      "\nSticky colored routing keeps reads, writes, and cached copies of "
      "a\ncolor together, so writes strand almost nothing stale; spraying "
      "the\nsame traffic scatters copies and every write turns into "
      "coherence\ntraffic hauling fresh bytes back out.\n");
  if (!ok) {
    std::fprintf(stderr, "FAIL: ext_write_coherence invariants violated\n");
    std::exit(1);
  }
  std::printf("\nall invariants hold: sticky pays <= 10%% of spray's "
              "coherence bytes,\nwrite-through never serves stale, causal "
              "stays inside its bound, the\nwrite books close in every "
              "fault cell, and digests are stable per seed\nand across "
              "engine shard counts\n");
  if (!WriteTextFile("BENCH_coherence.json", json.str())) {
    std::exit(1);
  }
  std::printf("wrote BENCH_coherence.json\n");
}

}  // namespace
}  // namespace palette

int main() {
  palette::Run();
  return 0;
}
