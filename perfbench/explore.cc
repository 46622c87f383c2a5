// Explore workload: exhaustive verdicts on three fault-injected scenarios,
// plus seeded random walks of the same scenarios.
//
// The timed region is ExploreExhaustive on all three scenarios with sleep
// sets on and no schedule cap; the engine fields stay at the library's
// defaults. The walks run outside it, through the public
// ControlledSystem(scenario, &RandomScheduler) constructor, Run() and
// Check(): they sample the same schedule space, price one build-run-check
// on a fresh system, and give the staleness and message figures of a random
// schedule.

#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "harness/stats.h"
#include "sim/message.h"
#include "verify/controlled_run.h"
#include "verify/explorer.h"
#include "verify/scenarios.h"

namespace perfbench {
namespace {

using namespace sweepmv;

constexpr int64_t kMaxStepsPerRun = 100'000;
constexpr int kWalksPerScenario = 5000;
constexpr int kSetupRepeats = 64;

// The three questions: each scenario with the level its algorithm
// promises under crash recovery.
std::vector<ExplorerConfig> MakeQuestions() {
  std::vector<ExplorerConfig> questions;
  const auto add = [&](ControlledScenario scenario,
                       ConsistencyLevel required) {
    questions.push_back(ExplorerConfig{
        .scenario = std::move(scenario),
        .required = required,
        .sleep_sets = true,
        .max_schedules = std::numeric_limits<int64_t>::max(),
        .max_steps_per_run = kMaxStepsPerRun,
        .stop_at_first_violation = false,
        .minimize = false,
    });
  };
  add(FaultyPaperExampleScenario(Algorithm::kSweep),
      ConsistencyLevel::kComplete);
  add(FaultyPaperExampleScenario(Algorithm::kNestedSweep),
      ConsistencyLevel::kStrong);
  add(GeneratedMultiViewScenario(Algorithm::kSweep, Algorithm::kNestedSweep,
                                 /*updates=*/1, /*crash=*/true),
      ConsistencyLevel::kStrong);
  return questions;
}

// The output gate for one verdict. The self-check feeds it wrong verdicts
// to prove it rejects them.
bool VerdictOk(const ExploreResult& r, ConsistencyLevel required) {
  return r.exhausted && r.violations == 0 && r.schedules > 0 &&
         static_cast<int>(r.worst) >= static_cast<int>(required);
}

bool GateRejectsWrongVerdicts(const ExploreResult& good,
                              ConsistencyLevel required) {
  ExploreResult violating = good;
  violating.violations = 1;
  ExploreResult unfinished = good;
  unfinished.exhausted = false;
  ExploreResult weak = good;
  weak.worst = static_cast<ConsistencyLevel>(static_cast<int>(required) - 1);
  return VerdictOk(good, required) && !VerdictOk(violating, required) &&
         !VerdictOk(unfinished, required) && !VerdictOk(weak, required);
}

// Figures pooled over every random walk of every scenario.
struct Walks {
  int64_t walks = 0;
  int64_t failed = 0;
  std::vector<double> delays;  // warehouse arrival -> install, ticks
  int64_t update_deliveries = 0;
  int64_t maint_deliveries = 0;  // query + answer deliveries
  std::vector<double> walk_us;   // build + run + check
  std::vector<double> check_us;  // Check() alone
};

void Walk(const ExplorerConfig& q, uint64_t seed, Walks* w) {
  const Clock::time_point start = Clock::now();
  RandomScheduler scheduler(seed);
  ControlledSystem system(q.scenario, &scheduler);
  system.Run(kMaxStepsPerRun);
  const bool finished = system.Drained() && system.WarehouseIdle();
  const Clock::time_point check_start = Clock::now();
  const ConsistencyReport report = system.Check();
  w->check_us.push_back(SecondsSince(check_start) * 1e6);
  w->walk_us.push_back(SecondsSince(start) * 1e6);

  ++w->walks;
  if (!finished || static_cast<int>(report.level) <
                       static_cast<int>(q.required)) {
    ++w->failed;
  }
  for (size_t i = 0; i < system.num_warehouses(); ++i) {
    const Warehouse& wh = system.warehouse(i);
    const std::map<int64_t, SimTime> installed(
        wh.install_time_log().begin(), wh.install_time_log().end());
    for (const auto& [id, at] : wh.arrival_log()) {
      const auto it = installed.find(id);
      if (it != installed.end()) {
        w->delays.push_back(static_cast<double>(it->second - at));
      }
    }
  }
  // Deliveries are labelled with their message class name.
  const auto is = [](const EventLabel& label, MessageClass c) {
    return std::strcmp(label.what, MessageClassName(c)) == 0;
  };
  for (const TraceStep& step : scheduler.trace().steps) {
    if (step.label.kind != EventKind::kDelivery) continue;
    if (is(step.label, MessageClass::kUpdateNotification)) {
      ++w->update_deliveries;
    } else if (is(step.label, MessageClass::kQueryRequest) ||
               is(step.label, MessageClass::kQueryAnswer)) {
      ++w->maint_deliveries;
    }
  }
}

}  // namespace

Report RunExploreExhaustive(const RunOptions& options) {
  Report report;

  std::vector<double> setup;
  std::vector<double> verdict;
  std::vector<ExplorerConfig> questions;
  std::vector<ExploreResult> first;
  bool verdicts_ok = true;
  const Budget budget(options.seconds, 4);
  do {
    // Set-up: build the three scenarios and their questions, several
    // times, so the median is not one noisy sub-millisecond sample.
    for (int i = 0; i < kSetupRepeats; ++i) {
      const Clock::time_point setup_start = Clock::now();
      questions = MakeQuestions();
      setup.push_back(SecondsSince(setup_start));
    }
    std::vector<ExploreResult> results;
    const Clock::time_point start = Clock::now();
    for (const ExplorerConfig& q : questions) {
      results.push_back(ExploreExhaustive(q));
    }
    const double elapsed = SecondsSince(start);
    if (first.empty()) {
      first = results;  // the warm-up pass: checked, but not timed
    } else {
      verdict.push_back(elapsed);
    }
    for (size_t i = 0; i < questions.size(); ++i) {
      const ExploreResult& r = results[i];
      // Same question, same answer: the schedule space is fixed.
      const bool ok = VerdictOk(r, questions[i].required) &&
                      r.schedules == first[i].schedules &&
                      r.executions == first[i].executions;
      verdicts_ok = verdicts_ok && ok;
      report.attempted += r.schedules;
      report.failed += ok ? r.violations : r.schedules;
    }
  } while (budget.More(verdict.size() + 1));

  bool self_check = true;
  for (size_t i = 0; i < questions.size(); ++i) {
    self_check = self_check &&
                 GateRejectsWrongVerdicts(first[i],
                                          questions[i].required);
  }
  report.Gate(verdicts_ok,
              "every scenario exhausted with no violation at its required "
              "level, identically on every pass");
  report.Gate(self_check,
              "self-check: the verdict gate rejects a violating, an "
              "unfinished and a too-weak verdict");

  Walks walks;
  for (size_t i = 0; i < questions.size(); ++i) {
    for (int k = 0; k < kWalksPerScenario; ++k) {
      const uint64_t seed = options.seed * 1000003u + i * 7919u +
                            static_cast<uint64_t>(k);
      Walk(questions[i], seed, &walks);
    }
  }
  report.attempted += walks.walks;
  report.failed += walks.failed;
  report.Gate(walks.failed == 0,
              "every random walk drained at its required level");
  report.Gate(!walks.delays.empty() && walks.update_deliveries > 0,
              "random walks installed updates");

  const double verdict_s = Median(verdict);
  int64_t schedules = 0;
  int64_t txns = 0;
  int64_t executions = 0;
  int64_t sleep_pruned = 0;
  int64_t decision_points = 0;
  for (size_t i = 0; i < questions.size(); ++i) {
    schedules += first[i].schedules;
    txns += first[i].schedules *
            static_cast<int64_t>(questions[i].scenario.txns.size());
    executions += first[i].executions;
    sleep_pruned += first[i].sleep_pruned;
    decision_points += first[i].decision_points;
  }

  if (!options.trace) {
    const StalenessPercentiles tail = PercentilesOf(walks.delays);
    report.Add("setup_s", Median(setup), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("txns_per_s", static_cast<double>(txns) / verdict_s, "1/s");
    report.Add("staleness_p50_ticks", tail.p50, "ticks");
    report.Add("staleness_p99_ticks", tail.p99, "ticks");
    report.Add("maint_msgs_per_update",
               static_cast<double>(walks.maint_deliveries) /
                   static_cast<double>(walks.update_deliveries),
               "count");
    report.Add("verdict_s", verdict_s, "s");
    return report;
  }

  const double check_us = Median(walks.check_us);
  report.Add("verify.schedules", static_cast<double>(schedules), "count");
  report.Add("verify.executions", static_cast<double>(executions), "count");
  report.Add("verify.sleep_pruned", static_cast<double>(sleep_pruned),
             "count");
  report.Add("verify.decision_points", static_cast<double>(decision_points),
             "count");
  report.Add("verify.us_per_schedule",
             verdict_s * 1e6 / static_cast<double>(schedules), "us");
  report.Add("verify.walk_us", Median(walks.walk_us), "us");
  report.Add("consistency.check_us", check_us, "us");
  report.Add("consistency.share",
             static_cast<double>(schedules) * check_us / (verdict_s * 1e6),
             "frac");
  return report;
}

}  // namespace perfbench
