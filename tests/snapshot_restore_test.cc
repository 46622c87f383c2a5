// Snapshot/restore round-trips for the controlled system (src/verify/),
// and the per-member diff derived from the same state declarations
// (src/common/snapshot.h).
//
// The prefix-sharing explorer backtracks by restoring a ControlledSystem
// snapshot instead of replaying the schedule prefix. That is only sound
// if a restored system continues *byte-identically* to one that never
// detoured — for every maintenance algorithm, including the
// algorithm-specific warehouse state each algorithm's VisitState
// declares, and across crash recovery. These tests pin that property
// directly, independent of the explorer built on top of it, against the
// exact-mode CanonicalDebugDump as the oracle.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/snapshot.h"
#include "verify/controlled_run.h"
#include "verify/scenarios.h"

namespace sweepmv {
namespace {

struct Terminal {
  std::string view;
  size_t installs = 0;
  int64_t steps = 0;
  ConsistencyLevel level = ConsistencyLevel::kInconsistent;
};

Terminal Drain(ControlledSystem& system) {
  Terminal t;
  t.steps = system.Run(100'000);
  EXPECT_TRUE(system.Drained());
  EXPECT_TRUE(system.WarehouseIdle());
  t.view = system.warehouse().view().ToDisplayString();
  t.installs = system.warehouse().install_log().size();
  t.level = system.Check().level;
  return t;
}

void ExpectSameTerminal(const Terminal& a, const Terminal& b,
                        const char* what) {
  EXPECT_EQ(a.view, b.view) << what;
  EXPECT_EQ(a.installs, b.installs) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.level, b.level) << what;
}

TEST(SnapshotRestoreTest, MidRunRoundTripIsByteIdenticalPerAlgorithm) {
  for (Algorithm algo : AllAlgorithmVariants()) {
    ControlledScenario scenario = PaperExampleScenario(algo);
    // Empty choice vector = the deterministic default schedule; the
    // scheduler keeps picking index 0 after the restore too, so both
    // continuations follow the same schedule.
    ReplayScheduler scheduler(std::vector<size_t>{});
    ControlledSystem system(scenario, &scheduler);
    int64_t ran = system.Run(5);
    ASSERT_EQ(ran, 5) << AlgorithmName(algo);

    ControlledSystem::SavedState snap = system.SaveState();
    Terminal straight = Drain(system);

    system.RestoreState(snap);
    Terminal resumed = Drain(system);
    ExpectSameTerminal(straight, resumed, AlgorithmName(algo));
  }
}

TEST(SnapshotRestoreTest, SnapshotSurvivesRepeatedRestores) {
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);
  ReplayScheduler scheduler(std::vector<size_t>{});
  ControlledSystem system(scenario, &scheduler);
  ASSERT_EQ(system.Run(3), 3);
  ControlledSystem::SavedState snap = system.SaveState();

  Terminal first = Drain(system);
  // A snapshot is not consumed by restoring: rewind from the terminal
  // state, partially advance, rewind again, then drain — still the same
  // terminal (the explorer restores the same decision point once per
  // remaining sibling).
  system.RestoreState(snap);
  ASSERT_EQ(system.Run(4), 4);
  system.RestoreState(snap);
  Terminal second = Drain(system);
  ExpectSameTerminal(first, second, "repeated restore");
}

TEST(SnapshotRestoreTest, SingleSourceEcaSystemRoundTrips) {
  // EcaAnomalyScenario wires the single multi-relation EcaSource (site 1)
  // instead of one DataSource per relation — the other SaveState branch.
  for (bool compensation : {true, false}) {
    ControlledScenario scenario = EcaAnomalyScenario(compensation);
    ReplayScheduler scheduler(std::vector<size_t>{});
    ControlledSystem system(scenario, &scheduler);
    ASSERT_EQ(system.Run(4), 4);
    ControlledSystem::SavedState snap = system.SaveState();
    Terminal straight = Drain(system);
    system.RestoreState(snap);
    Terminal resumed = Drain(system);
    ExpectSameTerminal(straight, resumed,
                       compensation ? "eca" : "eca-naive");
  }
}

// Choice script that can be rewritten mid-run — what the DFS does with
// SetNext, reduced to its essentials for testing.
class ScriptScheduler : public Scheduler {
 public:
  explicit ScriptScheduler(std::vector<size_t> script)
      : script_(std::move(script)) {}

  size_t Pick(const std::vector<Candidate>& ready) override {
    size_t choice = cursor_ < script_.size() ? script_[cursor_++] : 0;
    if (choice >= ready.size()) choice = ready.size() - 1;
    return choice;
  }

  void Rewind(std::vector<size_t> script, size_t cursor) {
    script_ = std::move(script);
    cursor_ = cursor;
  }

 private:
  std::vector<size_t> script_;
  size_t cursor_ = 0;
};

TEST(SnapshotRestoreTest, RestoredBranchesDoNotLeakIntoEachOther) {
  // Snapshot at a decision point, explore sibling A to the end, restore,
  // explore sibling B — each terminal must equal the terminal of a fresh
  // system that took that branch directly. This is exactly the explorer's
  // backtracking step, so any state missed by Save/RestoreState shows up
  // here as cross-branch leakage.
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);

  auto fresh_terminal = [&](size_t third_choice) {
    ReplayScheduler scheduler({0, 0, third_choice});
    ControlledSystem system(scenario, &scheduler);
    // Match the snapshot run's position so the drained step counts
    // compare like for like.
    EXPECT_EQ(system.Run(2), 2);
    return Drain(system);
  };
  Terminal fresh_a = fresh_terminal(0);
  Terminal fresh_b = fresh_terminal(1);

  ScriptScheduler scheduler({0, 0});
  ControlledSystem system(scenario, &scheduler);
  ASSERT_EQ(system.Run(2), 2);
  ControlledSystem::SavedState snap = system.SaveState();

  scheduler.Rewind({0, 0, 0}, 2);
  Terminal branch_a = Drain(system);
  ExpectSameTerminal(branch_a, fresh_a, "branch A after snapshot");

  system.RestoreState(snap);
  scheduler.Rewind({0, 0, 1}, 2);
  Terminal branch_b = Drain(system);
  ExpectSameTerminal(branch_b, fresh_b, "branch B after restore");
}

// --- Round trip against the exact dump, per algorithm ---------------------

// Saves after `prefix` controlled steps, runs `detour` more, restores, and
// checks the rewound system against the dump taken at the save; then two
// drains from the same save must reach the same terminal.
void ExpectRoundTrip(const ControlledScenario& scenario, int64_t prefix,
                     int64_t detour, const std::string& what) {
  ReplayScheduler scheduler(std::vector<size_t>{});
  ControlledSystem system(scenario, &scheduler);
  ASSERT_EQ(system.Run(prefix), prefix) << what;

  const std::string at_save = system.CanonicalDebugDump();
  ControlledSystem::SavedState snap = system.SaveState();

  // The default schedule may drain before the full detour; any forward
  // progress at all is enough to make the restore meaningful.
  ASSERT_GT(system.Run(detour), 0) << what;
  ASSERT_NE(system.CanonicalDebugDump(), at_save) << what;

  system.RestoreState(snap);
  EXPECT_EQ(system.CanonicalDebugDump(), at_save) << what << " (restore)";

  const int64_t budget = 100'000;
  system.Run(budget);
  ASSERT_TRUE(system.Drained()) << what;
  const std::string terminal = system.CanonicalDebugDump();
  system.RestoreState(snap);
  system.Run(budget);
  ASSERT_TRUE(system.Drained()) << what;
  EXPECT_EQ(system.CanonicalDebugDump(), terminal) << what << " (oracle)";
}

TEST(SnapshotRoundTripTest, EveryAlgorithmSurvivesRollback) {
  for (Algorithm algo : AllAlgorithmVariants()) {
    ExpectRoundTrip(PaperExampleScenario(algo), /*prefix=*/5,
                    /*detour=*/7, AlgorithmName(algo));
  }
}

TEST(SnapshotRoundTripTest, RollbackSpansEveryPrefixDepth) {
  // Slide the save point across the whole default schedule of the sweep
  // scenario so every handler runs on both sides of it.
  ControlledScenario scenario = PaperExampleScenario(Algorithm::kSweep);
  for (int64_t prefix : {0, 1, 3, 8, 13}) {
    ExpectRoundTrip(scenario, prefix, /*detour=*/5,
                    "prefix=" + std::to_string(prefix));
  }
}

TEST(SnapshotRoundTripTest, CrashAndRecoveryRollBackCleanly) {
  // Crash recovery rewrites the durable store (WAL, checkpoint, epoch)
  // and rebuilds the logs from the checkpoint. Pin the restore across
  // save points straddling the crash/recovery epoch boundary.
  ControlledScenario scenario =
      FaultyPaperExampleScenario(Algorithm::kSweep);
  for (int64_t prefix : {2, 4, 6, 10}) {
    ExpectRoundTrip(scenario, prefix, /*detour=*/6,
                    "faulty prefix=" + std::to_string(prefix));
  }
  // The default schedule really does contain the crash: a straight drain
  // completes at least one recovery.
  ReplayScheduler scheduler(std::vector<size_t>{});
  ControlledSystem system(scenario, &scheduler);
  system.Run(100'000);
  ASSERT_TRUE(system.Drained());
  EXPECT_GE(system.warehouse().recoveries(), 1);
}

// --- Per-member diff ------------------------------------------------------

std::string AtomKey(const EffectAtom& atom) {
  return std::string(atom.cls) + "::" + atom.member + "@" +
         std::to_string(atom.site);
}

// Builds the system twice, one copy `early` steps in and one drained, and
// changes one declared member of the early copy at a time to its drained
// value (a restore of that single snapshot slot). Each change must diff
// as exactly that member, and together the changes must reproduce the
// full diff between the two states — so no member diffs under another's
// name and none is missed. Adds the classes seen to `classes`.
void ExpectEachMemberDiffsAlone(const ControlledScenario& scenario,
                                int64_t early,
                                std::set<std::string>* classes,
                                const std::string& what) {
  ReplayScheduler sched_a(std::vector<size_t>{});
  ReplayScheduler sched_b(std::vector<size_t>{});
  ControlledSystem a(scenario, &sched_a);
  ControlledSystem b(scenario, &sched_b);
  ASSERT_EQ(a.Run(early), early) << what;
  b.Run(100'000);
  ASSERT_TRUE(b.Drained()) << what;

  const ControlledSystem::SavedState at_a = a.SaveState();
  const ControlledSystem::SavedState at_b = b.SaveState();
  ASSERT_EQ(at_a.size(), at_b.size()) << what;
  std::set<std::string> expected;
  for (const EffectAtom& atom : a.ChangedSince(at_b)) {
    expected.insert(AtomKey(atom));
  }
  ASSERT_FALSE(expected.empty()) << what;

  std::set<std::string> produced;
  for (size_t slot = 0; slot < at_b.size(); ++slot) {
    StateVisitor one = StateVisitor::Restorer(at_b, slot);
    a.VisitState(one);
    one.Finish();
    const std::vector<EffectAtom> changed = a.ChangedSince(at_a);
    for (const EffectAtom& atom : changed) {
      // A hooked member may diff per part (links_, per sending site),
      // but every atom must name the one member that changed.
      EXPECT_STREQ(atom.cls, changed.front().cls) << what;
      EXPECT_STREQ(atom.member, changed.front().member) << what;
      EXPECT_TRUE(produced.insert(AtomKey(atom)).second)
          << what << ": " << AtomKey(atom) << " diffed for two slots";
      classes->insert(atom.cls);
    }
    a.RestoreState(at_a);
    ASSERT_TRUE(a.ChangedSince(at_a).empty()) << what;
  }
  EXPECT_EQ(produced, expected) << what;
}

TEST(DeclaredStateTest, ChangingOneMemberDiffsAsExactlyThatAtom) {
  std::set<std::string> classes;
  for (Algorithm algo : AllAlgorithmVariants()) {
    ExpectEachMemberDiffsAlone(PaperExampleScenario(algo), /*early=*/3,
                               &classes, AlgorithmName(algo));
  }
  ExpectEachMemberDiffsAlone(FaultyPaperExampleScenario(Algorithm::kSweep),
                             /*early=*/3, &classes, "faulty");
  // Every class with a state declaration took part.
  std::set<std::string> declared = {"Simulator", "Network",
                                    "UpdateIdGenerator", "DataSource",
                                    "EcaSource", "Warehouse"};
  for (Algorithm algo : AllAlgorithmVariants()) {
    declared.insert(AlgorithmClassName(algo));
  }
  EXPECT_EQ(declared.size(), 14u);
  EXPECT_EQ(classes, declared);
}

}  // namespace
}  // namespace sweepmv
