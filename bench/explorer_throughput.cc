// Schedule-space explorer throughput (src/verify/).
//
// Exhaustively enumerates every FIFO-respecting interleaving of the
// paper's Section 5.2 worked example — with sleep-set partial-order
// reduction and naively — under the explorer's execution engines:
//
//   replay    stateless baseline: every schedule re-executes its whole
//             choice prefix from a fresh system (share_prefixes=false)
//   snapshot  prefix-sharing DFS backtracking by a full SaveState copy
//             at every branch node
//   dedup     snapshot engine plus the visited-state table: branches
//             reaching an already-classified state merge its cached
//             summary instead of re-exploring (dedup_states=true)
//   xN        the dedup engine with the subtree frontier split across N
//             work-stealing threads
//
// plus a batch of seeded random walks, and the engine ladder on a
// generated multi-view fault-injected stress scenario (two warehouses,
// two crash choice points, millions of naive interleavings). Reports
// wall clock, the replay-redundancy factor (executions / schedules) and
// the dedup hit rate, machine-readably. The bench aborts if any two
// engines disagree on schedule counts or verdicts: the speedup rows are
// only meaningful because every engine answers the identical question.
// A speedup is printed only between two rows that exhausted the same
// space; rows cut by the schedule budget cover engine-dependent slices
// and get no ratio. The parallel rows' executions and dedup hits depend
// on thread timing (which task reaches a shared state first), so they
// are labelled as such and never compared.
//
//   $ ./explorer_throughput [--algo=SWEEP] [--budget=500000]
//                           [--walks=500] [--large-updates=1]
//                           [--large-budget=10000000]
//                           [--out=BENCH_explorer.json]
//
// Acceptance bars: POR prunes >= 2x schedules vs. naive enumeration;
// replay redundancy <= 1.5 on the POR config; dedup >= 5x sequential
// wall clock over the snapshot engine on the exhausted stress scenario;
// zero violations for SWEEP throughout. Parallel rows report wall clock
// against the "cores" field the JSON records — on a single-core host
// they measure pool overhead, not speedup.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/str.h"
#include "common/table.h"
#include "verify/explorer.h"
#include "verify/scenarios.h"

using namespace sweepmv;

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct EngineOpts {
  bool share_prefixes = true;
  int threads = 1;
  bool dedup = false;
  // Refined independence: consult this effect index on top of the site
  // rule (verify/effects.h). Null = site rule only.
  const EffectsIndex* effects = nullptr;
};

struct Timed {
  std::string mode;
  bool sleep_sets = true;
  int threads = 1;
  ExploreResult result;
  int64_t wall_ms = 0;
  double SchedulesPerSec() const {
    return wall_ms > 0 ? 1000.0 * static_cast<double>(result.schedules) /
                             static_cast<double>(wall_ms)
                       : 0.0;
  }
  double Redundancy() const {
    return result.schedules > 0
               ? static_cast<double>(result.executions) /
                     static_cast<double>(result.schedules)
               : 0.0;
  }
  // Fraction of hashable node visits answered from the visited table.
  double DedupHitRate() const {
    const int64_t lookups = result.dedup_hits + result.dedup_inserts;
    return lookups > 0 ? static_cast<double>(result.dedup_hits) /
                             static_cast<double>(lookups)
                       : 0.0;
  }
};

Timed RunExhaustive(const ControlledScenario& scenario,
                    ConsistencyLevel required, bool sleep_sets,
                    int64_t budget, const EngineOpts& engine,
                    std::string mode) {
  ExplorerConfig config{scenario, required, sleep_sets, budget,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/false};
  config.share_prefixes = engine.share_prefixes;
  config.threads = engine.threads;
  config.dedup_states = engine.dedup;
  config.effects = engine.effects;
  Timed timed;
  timed.mode = std::move(mode);
  timed.sleep_sets = sleep_sets;
  timed.threads = engine.threads;
  int64_t start = NowMs();
  timed.result = ExploreExhaustive(config);
  timed.wall_ms = NowMs() - start;
  return timed;
}

// The refined relation explores a *smaller* representative set per
// trace class, so schedule counts legitimately differ from the
// site-rule baseline; the verdict fields must not.
void RequireSameOutcome(const Timed& baseline, const Timed& refined) {
  if (baseline.result.violations == refined.result.violations &&
      baseline.result.exhausted == refined.result.exhausted &&
      baseline.result.worst == refined.result.worst) {
    return;
  }
  std::fprintf(stderr,
               "refined independence changed the verdict: %s "
               "(%lld violations, worst %s) vs %s (%lld violations, "
               "worst %s)\n",
               baseline.mode.c_str(),
               static_cast<long long>(baseline.result.violations),
               ConsistencyLevelName(baseline.result.worst),
               refined.mode.c_str(),
               static_cast<long long>(refined.result.violations),
               ConsistencyLevelName(refined.result.worst));
  std::exit(1);
}

// All engines must agree on everything schedule-determined before any
// speedup row is worth printing.
void RequireSameVerdicts(const Timed& baseline, const Timed& other) {
  if (baseline.result.schedules == other.result.schedules &&
      baseline.result.violations == other.result.violations &&
      baseline.result.exhausted == other.result.exhausted &&
      baseline.result.worst == other.result.worst) {
    return;
  }
  std::fprintf(stderr,
               "engine disagreement: %s (%lld schedules, %lld violations) "
               "vs %s (%lld schedules, %lld violations)\n",
               baseline.mode.c_str(),
               static_cast<long long>(baseline.result.schedules),
               static_cast<long long>(baseline.result.violations),
               other.mode.c_str(),
               static_cast<long long>(other.result.schedules),
               static_cast<long long>(other.result.violations));
  std::exit(1);
}

// Wall-clock ratio, or nullopt unless both runs exhausted the same space:
// a budget-capped run covers an engine-dependent slice, so its time is
// not comparable work.
std::optional<double> Speedup(const Timed& baseline, const Timed& fast) {
  if (!baseline.result.exhausted || !fast.result.exhausted ||
      baseline.result.schedules != fast.result.schedules) {
    return std::nullopt;
  }
  // Sub-millisecond runs clamp to 1ms so ratios stay finite (and
  // conservative: the real speedup is at least what we report).
  double base = static_cast<double>(baseline.wall_ms > 0 ? baseline.wall_ms : 1);
  double ms = static_cast<double>(fast.wall_ms > 0 ? fast.wall_ms : 1);
  return base / ms;
}

std::string RatioText(std::optional<double> x) {
  return x.has_value() ? StrFormat("%.1fx", *x) : "n/a (unequal work)";
}

std::string RatioJson(std::optional<double> x) {
  return x.has_value() ? StrFormat("%.2f", *x) : "null";
}

Algorithm ParseAlgo(const std::string& name) {
  for (Algorithm a : AllAlgorithmVariants()) {
    if (name == AlgorithmName(a)) return a;
  }
  std::fprintf(stderr, "unknown algorithm: %s\n", name.c_str());
  std::exit(2);
}

std::string RowJson(const Timed& t) {
  return StrFormat(
      "{\"schedules\": %lld, \"executions\": %lld, "
      "\"replay_redundancy\": %.2f, \"threads\": %d, \"exhausted\": %s, "
      "\"violations\": %lld, \"sleep_pruned\": %lld, "
      "\"dedup_hits\": %lld, \"dedup_hit_rate\": %.3f, "
      "\"refined_grants\": %lld, \"parallel_fallback\": %s, "
      "\"wall_ms\": %lld, \"schedules_per_sec\": %.1f}",
      static_cast<long long>(t.result.schedules),
      static_cast<long long>(t.result.executions), t.Redundancy(),
      t.threads, t.result.exhausted ? "true" : "false",
      static_cast<long long>(t.result.violations),
      static_cast<long long>(t.result.sleep_pruned),
      static_cast<long long>(t.result.dedup_hits), t.DedupHitRate(),
      static_cast<long long>(t.result.refined_grants),
      t.result.parallel_fallback ? "true" : "false",
      static_cast<long long>(t.wall_ms), t.SchedulesPerSec());
}

// A parallel row's fields. Its executions and dedup hits depend on which
// subtree task reaches a shared state first, i.e. on thread timing; the
// row says so, and only its schedules and verdicts are compared.
std::string ParallelJson(const Timed& t, std::optional<double> speedup) {
  return StrFormat(
      "\"threads\": %d, \"schedules\": %lld, \"exhausted\": %s, "
      "\"executions\": %lld, \"dedup_hits\": %lld, "
      "\"timing_dependent\": [\"executions\", \"dedup_hits\"], "
      "\"parallel_fallback\": %s, \"wall_ms\": %lld, "
      "\"schedules_per_sec\": %.1f, \"speedup_x\": %s}",
      t.threads, static_cast<long long>(t.result.schedules),
      t.result.exhausted ? "true" : "false",
      static_cast<long long>(t.result.executions),
      static_cast<long long>(t.result.dedup_hits),
      t.result.parallel_fallback ? "true" : "false",
      static_cast<long long>(t.wall_ms), t.SchedulesPerSec(),
      RatioJson(speedup).c_str());
}

const std::vector<std::string> kEngineColumns = {
    "mode",       "threads",    "schedules", "executions", "redundancy",
    "dedup hits", "violations", "wall ms",   "schedules/s"};

constexpr const char* kTimingNote =
    "(t) timing-dependent: parallel executions, redundancy and dedup hits "
    "vary with thread timing";

// One table row; a parallel row's timing-dependent cells carry "(t)".
std::vector<std::string> EngineRow(const Timed& t) {
  const char* mark = t.threads > 1 ? " (t)" : "";
  return {t.mode,
          StrFormat("%d", t.threads),
          StrFormat("%lld", static_cast<long long>(t.result.schedules)),
          StrFormat("%lld%s", static_cast<long long>(t.result.executions),
                    mark),
          StrFormat("%.2f%s", t.Redundancy(), mark),
          StrFormat("%lld%s", static_cast<long long>(t.result.dedup_hits),
                    mark),
          StrFormat("%lld", static_cast<long long>(t.result.violations)),
          StrFormat("%lld", static_cast<long long>(t.wall_ms)),
          StrFormat("%.0f", t.SchedulesPerSec())};
}

}  // namespace

int main(int argc, char** argv) {
  Algorithm algo = Algorithm::kSweep;
  int64_t budget = 500'000;
  int64_t walks = 500;
  int large_updates = 1;
  int64_t large_budget = 10'000'000;
  std::string out_path = "BENCH_explorer.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--algo=", 0) == 0) {
      algo = ParseAlgo(arg.substr(7));
    } else if (arg.rfind("--budget=", 0) == 0) {
      budget = std::atoll(arg.substr(9).c_str());
    } else if (arg.rfind("--walks=", 0) == 0) {
      walks = std::atoll(arg.substr(8).c_str());
    } else if (arg.rfind("--large-updates=", 0) == 0) {
      large_updates = std::atoi(arg.substr(16).c_str());
    } else if (arg.rfind("--large-budget=", 0) == 0) {
      large_budget = std::atoll(arg.substr(15).c_str());
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  ControlledScenario scenario = PaperExampleScenario(algo);
  ConsistencyLevel required = PromisedConsistency(algo);
  std::printf(
      "Schedule-space exploration of the Section 5.2 example under %s "
      "(required: %s).\n\n",
      AlgorithmName(algo), ConsistencyLevelName(required));

  const EngineOpts kReplay{/*share_prefixes=*/false, 1, false};
  const EngineOpts kSnapshot{true, 1, false};
  const EngineOpts kDedup{true, 1, /*dedup=*/true};
  auto parallel_opts = [](int threads) {
    return EngineOpts{true, threads, /*dedup=*/true};
  };

  auto run = [&](bool sleep_sets, const EngineOpts& engine,
                 std::string mode) {
    return RunExhaustive(scenario, required, sleep_sets, budget, engine,
                         std::move(mode));
  };

  // Stateless replay baselines (the pre-prefix-sharing engine).
  Timed por_replay = run(true, kReplay, "POR replay");
  Timed naive_replay = run(false, kReplay, "naive replay");

  // Prefix-sharing engines: snapshot, and snapshot plus dedup.
  Timed por = run(true, kSnapshot, "POR snapshot");
  Timed naive = run(false, kSnapshot, "naive snapshot");
  Timed por_dedup = run(true, kDedup, "POR dedup");
  Timed naive_dedup = run(false, kDedup, "naive dedup");

  // Refined independence on the fault-free example: the effect table has
  // nothing to add (every pair the site rule declares dependent shares a
  // FIFO channel), so this row documents the zero-gain case — identical
  // tree, zero grants — rather than a speedup.
  EffectsIndex paper_effects = EffectsIndex::ForScenario(scenario);
  EngineOpts refined_engine = kSnapshot;
  refined_engine.effects = &paper_effects;
  Timed por_refined = run(true, refined_engine, "POR refined");

  std::vector<Timed> parallel;
  for (int threads : {2, 4, 8}) {
    parallel.push_back(run(true, parallel_opts(threads),
                           StrFormat("POR x%d", threads)));
    parallel.push_back(run(false, parallel_opts(threads),
                           StrFormat("naive x%d", threads)));
  }

  RequireSameVerdicts(por_replay, por);
  RequireSameVerdicts(por_replay, por_dedup);
  // Zero gain here means byte-identical counts, not just verdicts.
  RequireSameVerdicts(por_replay, por_refined);
  RequireSameVerdicts(naive_replay, naive);
  RequireSameVerdicts(naive_replay, naive_dedup);
  for (const Timed& t : parallel) {
    RequireSameVerdicts(t.sleep_sets ? por : naive, t);
  }

  ExplorerConfig random_config{scenario, required, /*sleep_sets=*/true,
                               budget, /*max_steps_per_run=*/10'000,
                               /*stop_at_first_violation=*/false,
                               /*minimize=*/false};
  int64_t random_start = NowMs();
  ExploreResult random =
      ExploreRandom(random_config, walks, /*seed=*/12345);
  int64_t random_ms = NowMs() - random_start;

  TablePrinter table(kEngineColumns);
  for (const Timed* t : {&por_replay, &naive_replay, &por, &naive,
                         &por_dedup, &naive_dedup, &por_refined}) {
    table.AddRow(EngineRow(*t));
  }
  for (const Timed& t : parallel) table.AddRow(EngineRow(t));
  table.AddRow({"random walks", "1",
                StrFormat("%lld", static_cast<long long>(random.schedules)),
                StrFormat("%lld", static_cast<long long>(random.executions)),
                "-", "-",
                StrFormat("%lld", static_cast<long long>(random.violations)),
                StrFormat("%lld", static_cast<long long>(random_ms)), "-"});
  std::printf("%s\n", table.Render().c_str());

  double reduction =
      por.result.schedules > 0
          ? static_cast<double>(naive.result.schedules) /
                static_cast<double>(por.result.schedules)
          : 0.0;
  const std::optional<double> sharing_speedup = Speedup(naive_replay, naive);
  std::printf("%s\n", kTimingNote);
  std::printf("POR reduction: %.2fx (%lld pruned branches)\n", reduction,
              static_cast<long long>(por.result.sleep_pruned));
  std::printf(
      "prefix sharing: naive redundancy %.2f -> %.2f, %s faster "
      "sequential; dedup hit rate %.1f%% (POR) / %.1f%% (naive)\n",
      naive_replay.Redundancy(), naive.Redundancy(),
      RatioText(sharing_speedup).c_str(), 100.0 * por_dedup.DedupHitRate(),
      100.0 * naive_dedup.DedupHitRate());
  for (const Timed& t : parallel) {
    std::printf("%s: %s over sequential dedup\n", t.mode.c_str(),
                RatioText(Speedup(t.sleep_sets ? por_dedup : naive_dedup, t))
                    .c_str());
  }
  std::printf(
      "refined independence: %lld grants on the fault-free example "
      "(zero by construction: every site-dependent pair shares a "
      "channel)\n",
      static_cast<long long>(por_refined.result.refined_grants));

  // --- Refined independence on the crash-hardened example --------------
  // The site rule marks internal events (site -2) dependent on
  // everything, so every placement of the controlled crash against the
  // source transactions is enumerated. The effect table proves the crash
  // footprint (warehouse state + recovery counters) disjoint from a
  // source txn's, and the sleep-set search prunes those interleavings:
  // strictly fewer representative schedules, identical verdicts.
  std::printf(
      "\nRefined independence on the crash-hardened example (one "
      "warehouse crash in the schedule space).\n\n");
  ControlledScenario faulty_scenario = FaultyPaperExampleScenario(algo);
  EffectsIndex faulty_effects = EffectsIndex::ForScenario(faulty_scenario);
  EngineOpts faulty_refined_engine = kSnapshot;
  faulty_refined_engine.effects = &faulty_effects;
  Timed faulty_site = RunExhaustive(faulty_scenario, required,
                                    /*sleep_sets=*/true, budget, kSnapshot,
                                    "faulty POR");
  Timed faulty_refined =
      RunExhaustive(faulty_scenario, required, /*sleep_sets=*/true, budget,
                    faulty_refined_engine, "faulty POR refined");
  RequireSameOutcome(faulty_site, faulty_refined);
  double refined_prune_gain = 0.0;
  if (faulty_site.result.exhausted && faulty_refined.result.exhausted) {
    if (faulty_refined.result.schedules >= faulty_site.result.schedules ||
        faulty_refined.result.refined_grants <= 0) {
      std::fprintf(stderr,
                   "refined independence bought nothing on the crash "
                   "scenario: %lld -> %lld schedules, %lld grants\n",
                   static_cast<long long>(faulty_site.result.schedules),
                   static_cast<long long>(faulty_refined.result.schedules),
                   static_cast<long long>(
                       faulty_refined.result.refined_grants));
      std::exit(1);
    }
    refined_prune_gain =
        static_cast<double>(faulty_site.result.schedules) /
        static_cast<double>(faulty_refined.result.schedules);
  } else {
    std::fprintf(stderr,
                 "warning: crash-scenario runs hit the schedule budget; "
                 "refined_prune_gain not measured\n");
  }
  TablePrinter refined_table({"mode", "schedules", "executions",
                              "sleep pruned", "refined grants",
                              "violations", "wall ms"});
  auto add_refined = [&](const Timed& t) {
    refined_table.AddRow(
        {t.mode, StrFormat("%lld", static_cast<long long>(t.result.schedules)),
         StrFormat("%lld", static_cast<long long>(t.result.executions)),
         StrFormat("%lld", static_cast<long long>(t.result.sleep_pruned)),
         StrFormat("%lld", static_cast<long long>(t.result.refined_grants)),
         StrFormat("%lld", static_cast<long long>(t.result.violations)),
         StrFormat("%lld", static_cast<long long>(t.wall_ms))});
  };
  add_refined(faulty_site);
  add_refined(faulty_refined);
  std::printf("%s\n", refined_table.Render().c_str());
  std::printf(
      "refined prune gain: %.2fx fewer schedules than the site rule "
      "(%lld grants), verdicts identical\n",
      refined_prune_gain,
      static_cast<long long>(faulty_refined.result.refined_grants));

  // --- Generated multi-view fault-injected stress scenario -------------
  // Two warehouses over the same sources plus two crash choice points:
  // the space where the visited table earns its keep.
  // Measured without sleep sets: POR removes the *syntactic* diamonds
  // (commuting independent events) and flattens this scenario to a few
  // thousand schedules, while the crash placements create *semantic*
  // confluence — different interleavings reaching identical
  // post-recovery states — that only the visited table can collapse.
  // The two reductions are orthogonal; the paper-example section above
  // measures their composition. The snapshot row is the sequential
  // baseline the speedup bars are measured against.
  std::printf(
      "\nGenerated multi-view stress scenario: SWEEP + NESTED warehouses, "
      "%d update(s), 2 crashes.\n\n",
      large_updates);
  ControlledScenario large_scenario = GeneratedMultiViewScenario(
      Algorithm::kSweep, Algorithm::kNestedSweep, large_updates,
      /*crash=*/true);
  // Crash recovery parks SWEEP at strong consistency, not completeness;
  // certify convergence (shared with NESTED, whose promise is the same).
  ConsistencyLevel large_required = ConsistencyLevel::kStrong;
  auto run_large = [&](const EngineOpts& engine, std::string mode) {
    return RunExhaustive(large_scenario, large_required,
                         /*sleep_sets=*/false, large_budget, engine,
                         std::move(mode));
  };
  Timed large_snapshot = run_large(kSnapshot, "stress snapshot");
  Timed large_dedup = run_large(kDedup, "stress dedup");
  // Sleep-set rows, site rule vs. refined: the two crash choice points
  // against every source transaction are exactly the pairs the effect
  // table can prove independent, so this is where the refined relation
  // earns real pruning on top of POR.
  EffectsIndex large_effects = EffectsIndex::ForScenario(large_scenario);
  EngineOpts large_refined_engine = kSnapshot;
  large_refined_engine.effects = &large_effects;
  Timed large_por = RunExhaustive(large_scenario, large_required,
                                  /*sleep_sets=*/true, large_budget,
                                  kSnapshot, "stress POR");
  Timed large_refined =
      RunExhaustive(large_scenario, large_required, /*sleep_sets=*/true,
                    large_budget, large_refined_engine,
                    "stress POR refined");
  std::vector<Timed> large_parallel;
  for (int threads : {2, 4, 8}) {
    large_parallel.push_back(
        run_large(parallel_opts(threads), StrFormat("stress x%d", threads)));
  }
  // Budget-capped runs cover engine-dependent slices of the space, so
  // cross-engine equality is only meaningful when both sides exhausted.
  auto require_if_exhausted = [&](const Timed& a, const Timed& b) {
    if (a.result.exhausted && b.result.exhausted) RequireSameVerdicts(a, b);
  };
  if (!large_snapshot.result.exhausted) {
    std::fprintf(stderr,
                 "warning: stress baseline hit the schedule budget "
                 "(%lld); cross-engine equality not checked\n",
                 static_cast<long long>(large_budget));
  }
  require_if_exhausted(large_snapshot, large_dedup);
  for (const Timed& t : large_parallel) {
    require_if_exhausted(large_snapshot, t);
  }
  RequireSameOutcome(large_por, large_refined);
  double stress_prune_gain = 0.0;
  if (large_por.result.exhausted && large_refined.result.exhausted) {
    if (large_refined.result.schedules >= large_por.result.schedules ||
        large_refined.result.refined_grants <= 0) {
      std::fprintf(stderr,
                   "refined independence bought nothing on the stress "
                   "scenario: %lld -> %lld schedules, %lld grants\n",
                   static_cast<long long>(large_por.result.schedules),
                   static_cast<long long>(large_refined.result.schedules),
                   static_cast<long long>(
                       large_refined.result.refined_grants));
      std::exit(1);
    }
    stress_prune_gain = static_cast<double>(large_por.result.schedules) /
                        static_cast<double>(large_refined.result.schedules);
  }

  TablePrinter large_table(kEngineColumns);
  for (const Timed* t : {&large_snapshot, &large_dedup, &large_por,
                         &large_refined}) {
    large_table.AddRow(EngineRow(*t));
  }
  for (const Timed& t : large_parallel) large_table.AddRow(EngineRow(t));
  std::printf("%s\n", large_table.Render().c_str());
  std::printf("%s\n", kTimingNote);
  std::printf(
      "stress refined independence: %.2fx fewer schedules than the "
      "site-rule POR (%lld grants)\n",
      stress_prune_gain,
      static_cast<long long>(large_refined.result.refined_grants));

  const std::optional<double> dedup_speedup =
      Speedup(large_snapshot, large_dedup);
  std::printf(
      "stress: dedup %s over snapshot sequential; dedup hit rate %.1f%%\n",
      RatioText(dedup_speedup).c_str(), 100.0 * large_dedup.DedupHitRate());
  for (const Timed& t : large_parallel) {
    std::printf("%s: %s over sequential dedup (fallback: %s)\n",
                t.mode.c_str(), RatioText(Speedup(large_dedup, t)).c_str(),
                t.result.parallel_fallback ? "yes" : "no");
  }

  std::string parallel_json;
  for (size_t i = 0; i < parallel.size(); ++i) {
    const Timed& t = parallel[i];
    parallel_json += StrFormat(
        "    {\"config\": \"%s\", %s%s\n", t.sleep_sets ? "por" : "naive",
        ParallelJson(t, Speedup(t.sleep_sets ? por_dedup : naive_dedup, t))
            .c_str(),
        i + 1 < parallel.size() ? "," : "");
  }
  std::string large_parallel_json;
  for (size_t i = 0; i < large_parallel.size(); ++i) {
    const Timed& t = large_parallel[i];
    large_parallel_json +=
        StrFormat("      {%s%s\n",
                  ParallelJson(t, Speedup(large_dedup, t)).c_str(),
                  i + 1 < large_parallel.size() ? "," : "");
  }

  std::string json = StrFormat(
      "{\n"
      "  \"bench\": \"explorer_throughput\",\n"
      "  \"cores\": %u,\n"
      "  \"algorithm\": \"%s\",\n"
      "  \"required_level\": \"%s\",\n"
      "  \"por\": %s,\n"
      "  \"naive\": %s,\n"
      "  \"por_replay\": %s,\n"
      "  \"naive_replay\": %s,\n"
      "  \"por_dedup\": %s,\n"
      "  \"naive_dedup\": %s,\n"
      "  \"por_refined\": %s,\n"
      "  \"refined\": {\n"
      "    \"faulty_site\": %s,\n"
      "    \"faulty_refined\": %s,\n"
      "    \"stress_site\": %s,\n"
      "    \"stress_refined\": %s,\n"
      "    \"refined_prune_gain\": %.2f,\n"
      "    \"stress_prune_gain\": %.2f\n"
      "  },\n"
      "  \"parallel\": [\n%s  ],\n"
      "  \"reduction_x\": %.2f,\n"
      "  \"prefix_sharing_speedup_x\": %s,\n"
      "  \"large\": {\n"
      "    \"updates\": %d,\n"
      "    \"snapshot\": %s,\n"
      "    \"dedup\": %s,\n"
      "    \"parallel\": [\n%s    ],\n"
      "    \"dedup_speedup_x\": %s\n"
      "  },\n"
      "  \"random\": {\"walks\": %lld, \"violations\": %lld, "
      "\"wall_ms\": %lld}\n"
      "}\n",
      std::thread::hardware_concurrency(), AlgorithmName(algo),
      ConsistencyLevelName(required),
      RowJson(por).c_str(), RowJson(naive).c_str(),
      RowJson(por_replay).c_str(), RowJson(naive_replay).c_str(),
      RowJson(por_dedup).c_str(), RowJson(naive_dedup).c_str(),
      RowJson(por_refined).c_str(), RowJson(faulty_site).c_str(),
      RowJson(faulty_refined).c_str(), RowJson(large_por).c_str(),
      RowJson(large_refined).c_str(), refined_prune_gain,
      stress_prune_gain,
      parallel_json.c_str(), reduction, RatioJson(sharing_speedup).c_str(),
      large_updates, RowJson(large_snapshot).c_str(),
      RowJson(large_dedup).c_str(), large_parallel_json.c_str(),
      RatioJson(dedup_speedup).c_str(),
      static_cast<long long>(random.schedules),
      static_cast<long long>(random.violations),
      static_cast<long long>(random_ms));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
