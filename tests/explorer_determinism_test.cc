// Determinism of the explorer's execution engines (src/verify/).
//
// The explorer has three ways to cover the same schedule space: the
// stateless replay engine, the prefix-sharing snapshot engine, and the
// parallel frontier split over the work-stealing pool. All three must
// agree bit-for-bit on everything schedule-determined — schedule counts,
// verdicts, sleep-set pruning statistics, and the minimized
// counterexample — for any thread count and any steal interleaving.
// These comparisons are what makes the throughput bench's speedup claims
// meaningful: the fast engines answer the same question as the slow one.
// The visited-state table rests on the state fingerprint, which must be a
// pure function of the logical state, never of the schedule or the
// process that computed it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "verify/controlled_run.h"
#include "verify/explorer.h"
#include "verify/scenarios.h"

namespace sweepmv {
namespace {

ExplorerConfig BaseConfig(ControlledScenario scenario,
                          ConsistencyLevel required, bool sleep_sets) {
  ExplorerConfig config{std::move(scenario), required, sleep_sets,
                        /*max_schedules=*/200'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/true};
  return config;
}

// Everything schedule-determined must match; `executions` legitimately
// differs (it counts engine work, not coverage) and is deliberately
// excluded.
void ExpectSameVerdicts(const ExploreResult& a, const ExploreResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.schedules, b.schedules) << what;
  EXPECT_EQ(a.violations, b.violations) << what;
  EXPECT_EQ(a.worst, b.worst) << what;
  EXPECT_EQ(a.sleep_pruned, b.sleep_pruned) << what;
  EXPECT_EQ(a.sleep_blocked, b.sleep_blocked) << what;
  EXPECT_EQ(a.decision_points, b.decision_points) << what;
  EXPECT_EQ(a.max_ready, b.max_ready) << what;
  EXPECT_EQ(a.exhausted, b.exhausted) << what;
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value())
      << what;
  if (a.counterexample.has_value()) {
    EXPECT_EQ(a.counterexample->choices, b.counterexample->choices) << what;
    EXPECT_EQ(a.counterexample->trace.ToString(),
              b.counterexample->trace.ToString())
        << what;
    EXPECT_EQ(a.counterexample->report.level, b.counterexample->report.level)
        << what;
  }
}

TEST(ExplorerDeterminismTest, PrefixSharingMatchesStatelessBaseline) {
  for (bool sleep_sets : {true, false}) {
    ExplorerConfig shared = BaseConfig(EcaAnomalyScenario(false),
                                       ConsistencyLevel::kConvergent,
                                       sleep_sets);
    ExplorerConfig replay = shared;
    replay.share_prefixes = false;
    ExpectSameVerdicts(ExploreExhaustive(replay),
                       ExploreExhaustive(shared),
                       sleep_sets ? "eca POR" : "eca naive");
  }
}

TEST(ExplorerDeterminismTest, SweepVerdictsAreEngineInvariant) {
  ExplorerConfig shared = BaseConfig(PaperExampleScenario(Algorithm::kSweep),
                                     ConsistencyLevel::kComplete,
                                     /*sleep_sets=*/true);
  ExplorerConfig replay = shared;
  replay.share_prefixes = false;
  ExploreResult a = ExploreExhaustive(replay);
  ExploreResult b = ExploreExhaustive(shared);
  EXPECT_TRUE(a.exhausted);
  EXPECT_EQ(a.violations, 0);
  ExpectSameVerdicts(a, b, "sweep POR");
}

TEST(ExplorerDeterminismTest, ThreadCountNeverChangesTheAnswer) {
  for (bool sleep_sets : {true, false}) {
    ExplorerConfig sequential = BaseConfig(EcaAnomalyScenario(false),
                                           ConsistencyLevel::kConvergent,
                                           sleep_sets);
    ExploreResult baseline = ExploreExhaustive(sequential);
    ASSERT_GT(baseline.violations, 0);
    ASSERT_TRUE(baseline.counterexample.has_value());
    for (int threads : {2, 4, 8}) {
      ExplorerConfig parallel = sequential;
      parallel.threads = threads;
      ExpectSameVerdicts(
          baseline, ExploreExhaustive(parallel),
          std::string(sleep_sets ? "POR" : "naive") + " threads=" +
              std::to_string(threads));
    }
  }
}

TEST(ExplorerDeterminismTest, ParallelSweepExplorationIsExhaustive) {
  ExplorerConfig sequential = BaseConfig(
      PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete,
      /*sleep_sets=*/true);
  ExploreResult baseline = ExploreExhaustive(sequential);
  ASSERT_TRUE(baseline.exhausted);
  for (int threads : {2, 4, 8}) {
    ExplorerConfig parallel = sequential;
    parallel.threads = threads;
    ExploreResult result = ExploreExhaustive(parallel);
    EXPECT_TRUE(result.exhausted) << threads;
    ExpectSameVerdicts(baseline, result,
                       "sweep threads=" + std::to_string(threads));
  }
}

TEST(ExplorerDeterminismTest, ParallelRunsAreRepeatable) {
  // Two parallel runs with the same config — different steal orders at
  // the OS's whim — must agree with each other, counterexample included.
  ExplorerConfig config = BaseConfig(EcaAnomalyScenario(false),
                                     ConsistencyLevel::kConvergent,
                                     /*sleep_sets=*/true);
  config.threads = 4;
  ExploreResult first = ExploreExhaustive(config);
  ExploreResult second = ExploreExhaustive(config);
  ExpectSameVerdicts(first, second, "repeat threads=4");
  // Executions are also deterministic run-to-run for a fixed config: the
  // frontier split and per-task work don't depend on scheduling.
  EXPECT_EQ(first.executions, second.executions);
}

// --- Fingerprint determinism ----------------------------------------------

TEST(FingerprintTest, IndependentOfProcessHistory) {
  // Two separately constructed systems driven through the same schedule
  // must agree on the fingerprint at every step — nothing address- or
  // allocation-order-dependent may leak into the hash.
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kStrobe);
  ReplayScheduler sched_a(std::vector<size_t>{1});
  ReplayScheduler sched_b(std::vector<size_t>{1});
  ControlledSystem a(scenario, &sched_a);
  ControlledSystem b(scenario, &sched_b);
  for (int step = 0; step < 12; ++step) {
    Fp128 fa, fb;
    ASSERT_EQ(a.HashState(&fa), b.HashState(&fb)) << step;
    EXPECT_EQ(fa, fb) << step;
    EXPECT_EQ(a.CanonicalDebugDump(), b.CanonicalDebugDump()) << step;
    if (a.Drained()) break;
    ASSERT_EQ(a.Run(1), 1);
    ASSERT_EQ(b.Run(1), 1);
  }
}

TEST(FingerprintTest, ConvergingInterleavingsCollide) {
  // Dedup only ever fires when two different schedules hash to the same
  // fingerprint, and verify_on_hit re-explores every hit subtree and
  // asserts (SWEEP_CHECK) the recomputed summary matches the cached one.
  // A run with hits > 0 therefore certifies both that interleaving
  // diamonds really collide and that colliding states really are
  // equivalent.
  ExplorerConfig config{PaperExampleScenario(Algorithm::kSweep),
                        ConsistencyLevel::kComplete,
                        /*sleep_sets=*/false,
                        /*max_schedules=*/200'000,
                        /*max_steps_per_run=*/10'000,
                        /*stop_at_first_violation=*/false,
                        /*minimize=*/true};
  config.dedup_states = true;
  config.verify_on_hit = true;
  ExploreResult result = ExploreExhaustive(config);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.violations, 0);
  EXPECT_GT(result.dedup_hits, 0);
}

// --- Engine invariance ----------------------------------------------------

TEST(EngineInvarianceTest, DedupAndThreadCountNeverChangeTheAnswer) {
  // The violation hunt (ECA without compensation) and the clean
  // certification (SWEEP) both produce identical counts, verdicts and
  // counterexample for every engine: dedup on/off x 1/2/4/8 threads.
  struct Case {
    ControlledScenario scenario;
    ConsistencyLevel required;
    bool sleep_sets;
    const char* name;
  };
  Case cases[] = {
      {EcaAnomalyScenario(false), ConsistencyLevel::kConvergent, true,
       "eca"},
      {PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete,
       true, "sweep"},
      // Naive enumeration is where the visited table actually fires (POR
      // already removes the syntactic diamonds of a space this small);
      // the merged cached summaries must still reproduce the dedup-off
      // totals exactly.
      {PaperExampleScenario(Algorithm::kSweep), ConsistencyLevel::kComplete,
       false, "sweep-naive"},
  };
  for (const Case& c : cases) {
    ExplorerConfig base = BaseConfig(c.scenario, c.required, c.sleep_sets);
    ExploreResult baseline = ExploreExhaustive(base);
    ASSERT_TRUE(baseline.exhausted) << c.name;
    for (int threads : {1, 2, 4, 8}) {
      ExplorerConfig dedup = base;
      dedup.dedup_states = true;
      dedup.threads = threads;
      ExploreResult result = ExploreExhaustive(dedup);
      ExpectSameVerdicts(baseline, result,
                         std::string(c.name) +
                             " dedup threads=" + std::to_string(threads));
      if (!c.sleep_sets && threads == 1) {
        EXPECT_GT(result.dedup_hits, 0) << c.name;
      }
    }
  }
}

TEST(EngineInvarianceTest, TinyFrontierFallsBackToSequential) {
  // One transaction, one relation: the frontier split cannot fan out, so
  // a parallel request degrades to the sequential engine and says so.
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);
  scenario.txns.resize(1);
  ExplorerConfig config = BaseConfig(scenario, ConsistencyLevel::kComplete,
                                     /*sleep_sets=*/true);
  ExploreResult sequential = ExploreExhaustive(config);
  config.threads = 8;
  ExploreResult parallel = ExploreExhaustive(config);
  EXPECT_TRUE(parallel.parallel_fallback);
  ExpectSameVerdicts(sequential, parallel, "fallback");
  EXPECT_FALSE(sequential.parallel_fallback);
}

}  // namespace
}  // namespace sweepmv
