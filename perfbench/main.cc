// sweepbench: the sweepmv benchmark program.
//
//   sweepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for about --seconds of measurement, checks its
// outputs, prints one gate line per check and a host line, and ends with
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1, the
// per-layer ones from a separate traced run. Exits 0 only when every gate
// passed.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// Per-layer metric names and units, in BENCHMARK.json order. A workload
// reports 0 for a layer it does not exercise.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.busy_s", "s"},
      {"core.msgs", "count"},
      {"core.compensations", "count"},
      {"source.query_busy_s", "s"},
      {"source.queries", "count"},
      {"source.commit_busy_s", "s"},
      {"storage.index_probes", "count"},
      {"storage.index_matches", "count"},
      {"storage.scan_fallbacks", "count"},
      {"shard.router_busy_s", "s"},
      {"shard.batch_busy_s", "s"},
      {"shard.foreign_discards", "count"},
      {"shard.batches_flushed", "count"},
      {"sim.residual_s", "s"},
      {"sim.events", "count"},
      {"sim.msgs", "count"},
      {"sim.payload_tuples", "count"},
      {"trace.overhead_frac", "frac"},
      {"workload.gen_s", "s"},
      {"relational.eval_full_s", "s"},
      {"verify.schedules", "count"},
      {"verify.executions", "count"},
      {"verify.sleep_pruned", "count"},
      {"verify.decision_points", "count"},
      {"verify.us_per_schedule", "us"},
      {"verify.walk_us", "us"},
      {"consistency.check_us", "us"},
      {"consistency.share", "frac"},
  };
  return kMetrics;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sweepbench --workload <ingest_per_update|"
               "ingest_batched_sharded|explore_exhaustive> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || args.size() != 4 || !args.count("--workload") ||
      !args.count("--seed") || !args.count("--seconds") ||
      !args.count("--trace")) {
    return Usage();
  }
  options.workload = args["--workload"];
  options.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  options.seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  options.trace = args["--trace"] == "1";
  if (options.seconds <= 0.0) return Usage();

  Report report;
  if (options.workload == "ingest_per_update") {
    report = RunIngestPerUpdate(options);
  } else if (options.workload == "ingest_batched_sharded") {
    report = RunIngestBatchedSharded(options);
  } else if (options.workload == "explore_exhaustive") {
    report = RunExploreExhaustive(options);
  } else {
    return Usage();
  }

  if (options.trace) {
    // Every per-layer metric appears on every workload; a layer the
    // workload does not exercise reports 0.
    std::vector<Metric> all;
    for (const auto& [name, unit] : PerLayerMetrics()) {
      Metric m{name, 0.0, unit};
      for (const Metric& got : report.metrics) {
        if (got.name == name) m = got;
      }
      all.push_back(m);
    }
    report.metrics = all;
  }

  for (const std::string& note : report.notes) {
    std::printf("gate: %s\n", note.c_str());
  }
  std::printf(
      "{\"host\": {\"cores\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\"}, \"workload\": \"%s\", \"seed\": %llu, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), JsonEscape(__VERSION__).c_str(),
      SWEEPBENCH_BUILD_TYPE, options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0);

  std::string metrics;
  for (const Metric& m : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += "\"" + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), metrics.c_str());
  return 0;
}
