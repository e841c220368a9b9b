// palette_perfbench — one run of one benchmark workload (README.md in this
// directory). perfbench/run.py starts it once per measured run, so each run
// has a process, and so a peak RSS, of its own.
//
// Usage:
//   palette_perfbench --workload=<name> --seed=<n> [--traced=1]
//                     [--spans_out=<path>]
//
// Prints one JSON object on stdout: the end-to-end figures, the books
// checks, the samples digest and, with --traced=1, the per-layer metrics.
// Exits 1 on bad arguments and 3 when a check fails.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/assembly.h"
#include "harness/workloads.h"
#include "src/common/flags.h"
#include "src/common/json_writer.h"
#include "src/common/table_printer.h"

namespace palette::perfbench {
namespace {

// Set-up is timed this many times per process; the median is reported.
constexpr int kSetupReps = 25;

struct Check {
  const char* name;
  bool ok;
};

std::vector<Check> RunChecks(const RunOutcome& r) {
  const Books& b = r.books;
  std::vector<Check> checks;
  bool books = b.platform_submitted ==
               b.platform_completed + b.platform_dropped + b.platform_abandoned;
  if (b.has_sharded_books) {
    books = books && b.sharded_books_close;
  }
  checks.push_back({"invocation_books", books});
  checks.push_back({"samples_scored", r.report.scored > 0});
  if (b.has_storage) {
    checks.push_back({"write_books", b.storage.WriteBooksClose() &&
                                         b.storage.writes_total > 0});
  }
  if (b.has_router) {
    checks.push_back({"router_hop_audit",
                      b.router_routes == b.platform_submitted + b.retries});
  }
  return checks;
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const bool traced = flags.GetBool("traced", false);
  const std::string spans_out = flags.GetString("spans_out", "");
  for (const std::string& unknown : flags.UnqueriedFlags()) {
    std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
    return 1;
  }
  BenchWorkload w;
  if (!MakeWorkload(name, seed, 1.0, &w)) {
    std::fprintf(stderr, "bad --workload (%s)\n", name.c_str());
    return 1;
  }

  SpanRecorder spans;
  const RunOutcome r = RunBenchWorkload(w, kSetupReps,
                                        traced ? &spans : nullptr);
  const double peak_rss_mb = PeakRssMb();
  if (traced && !spans_out.empty() && !spans.WriteTsv(spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
    return 1;
  }

  const std::vector<Check> checks = RunChecks(r);
  bool all_ok = true;
  JsonWriter json;
  json.BeginObject();
  json.Key("workload");
  json.String(w.name);
  json.Key("seed");
  json.UInt(seed);
  json.Key("traced");
  json.Bool(traced);
  json.Key("setup_s");
  json.Double(r.setup_s);
  json.Key("window_s");
  json.Double(r.window_s);
  json.Key("peak_rss_mb");
  json.Double(peak_rss_mb);
  json.Key("submitted");
  json.UInt(r.books.driver_submitted);
  json.Key("failed");
  json.UInt(r.books.driver_rejected + r.books.platform_dropped +
            r.books.platform_abandoned);
  json.Key("sim_scored");
  json.UInt(r.report.scored);
  json.Key("sim_p50_ms");
  json.Double(r.report.p50_ms);
  json.Key("sim_p99_ms");
  json.Double(r.report.p99_ms);
  json.Key("sim_local_hit_ratio");
  json.Double(r.report.local_hit_ratio);
  json.Key("sim_events");
  json.UInt(r.sim_events);
  json.Key("samples_digest");
  json.String(StrFormat(
      "%016llx", static_cast<unsigned long long>(r.samples_digest)));
  json.Key("checks");
  json.BeginObject();
  for (const Check& c : checks) {
    json.Key(c.name);
    json.Bool(c.ok);
    all_ok = all_ok && c.ok;
  }
  json.EndObject();
  if (traced) {
    json.Key("layers");
    json.BeginObject();
    for (const auto& [metric, value] : r.layers) {
      json.Key(metric);
      json.Double(value);
    }
    json.EndObject();
  }
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return all_ok ? 0 : 3;
}

}  // namespace
}  // namespace palette::perfbench

int main(int argc, char** argv) {
  return palette::perfbench::Main(argc, argv);
}
