// Schedule-space explorer: the discrete-event simulator as a model
// checker.
//
// Treats one maintenance scenario (view, initial bases, a fixed set of
// source transactions) as a transition system whose nondeterminism is the
// scheduler's pick among ready events, and explores it:
//
//   * ExploreExhaustive — depth-first enumeration of every
//     FIFO-respecting interleaving, optionally pruned by sleep sets
//     (partial-order reduction over the "different affected site" =>
//     independent relation of verify/schedule.h), classified against the
//     paper's consistency lattice by consistency/checker. Sound for trace
//     properties: commuting independent events changes no site-local
//     history, so every Mazurkiewicz trace class is classified by its
//     explored representative.
//
//     Two execution engines share the enumeration logic. The default
//     prefix-sharing engine keeps ONE live system, saves it
//     (ControlledSystem::SaveState, a copy of every declared member) at
//     each branch node and restores that copy before each sibling, so
//     each complete schedule costs roughly one execution —
//     docs/verification.md, "Scaling exploration". Chain nodes (one
//     explorable child) save nothing. share_prefixes=false selects the original
//     stateless engine (every DFS node re-constructs the system and
//     replays its prefix), kept as the honest baseline the throughput
//     bench measures the speedup against. threads>1 splits the DFS
//     frontier into subtree tasks executed on a work-stealing pool
//     (verify/pool.h); results merge in DFS task order, so schedule
//     counts, verdicts, pruning stats and the minimized counterexample
//     are byte-identical for every thread count and steal order.
//
//   * ExploreRandom — seeded uniform random walks for scenarios whose
//     schedule space is too large to enumerate.
//
// A schedule whose run classifies below `required` is a violation; the
// first one found is greedily minimized (trailing defaults trimmed,
// choices lowered while the violation persists) and returned as a
// replayable counterexample — a protocol-level race report.

#ifndef SWEEPMV_VERIFY_EXPLORER_H_
#define SWEEPMV_VERIFY_EXPLORER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "verify/controlled_run.h"
#include "verify/effects.h"

namespace sweepmv {

struct ExplorerConfig {
  ControlledScenario scenario;
  // Minimum acceptable consistency level; classifying below it makes a
  // schedule a violation. Set to the algorithm's PromisedConsistency to
  // check Table 1's promise, or kConvergent to hunt for divergence only.
  ConsistencyLevel required = ConsistencyLevel::kConvergent;
  // Sleep-set partial-order reduction (exhaustive mode). Off = naive
  // enumeration of every interleaving, for measuring the reduction.
  bool sleep_sets = true;
  // Budget of complete schedules; exploration stops (exhausted=false)
  // when exceeded.
  int64_t max_schedules = 1'000'000;
  // Per-run step budget; a run that exceeds it classifies as a violation
  // (runaway schedule).
  int64_t max_steps_per_run = 100'000;
  // Stop at (and minimize) the first violation instead of counting all.
  // With threads > 1 the stop is per subtree task, not global: every task
  // still runs to completion (counts stay deterministic), each stopping
  // at its own first violation.
  bool stop_at_first_violation = true;
  // Greedily minimize the first violating schedule.
  bool minimize = true;
  // Prefix-sharing engine (exhaustive mode): backtrack by state
  // snapshot/restore instead of re-constructing the system and replaying
  // the prefix at every DFS node. False selects the stateless baseline
  // engine; same schedules, verdicts and pruning stats either way.
  bool share_prefixes = true;
  // Worker threads for exhaustive exploration (requires share_prefixes).
  // The frontier is split into subtree tasks ahead of time and merged in
  // DFS order, so every thread count produces identical results.
  int threads = 1;
  // State-space deduplication: fingerprint the system at every DFS node
  // and prune branches reaching an already-classified state, merging the
  // cached subtree's counts so totals match a dedup-off search. Composes
  // with sleep sets (the sleep set is part of the lookup key). Requires
  // share_prefixes.
  bool dedup_states = false;
  // Debug mode: on a dedup hit, explore the subtree anyway and assert the
  // recomputed summary matches the cached one (collision detector).
  bool verify_on_hit = false;
  // Refined independence (verify/effects.h): when set, the sleep-set
  // search consults the statically inferred effect table on top of the
  // site rule — the extra grants (e.g. a controlled warehouse crash
  // commuting with a source transaction) prune schedules the site rule
  // must enumerate. Null = site rule only. The pointer must outlive the
  // exploration and the index must be built for this config's scenario.
  const EffectsIndex* effects = nullptr;
  // Debug soundness oracle: save the system before every executed step,
  // diff every declared member against that save afterwards, and assert
  // the set of members that actually changed is contained in the static
  // effect table's write footprint for that handler. Catches an
  // under-approximated table on the first schedule that exercises the
  // missing effect. Requires `effects` and the prefix-sharing engine.
  bool effects_oracle = false;
  // Parallel exploration falls back to the sequential engine when the
  // initial frontier split yields fewer runnable subtree tasks than this
  // (the split exhausted a tiny schedule space, or could not fan out);
  // the result records parallel_fallback. 0 disables the fallback.
  int64_t sequential_fallback_threshold = 2;
};

struct Counterexample {
  // Choice vector replaying the violation (RunWithChoices).
  std::vector<size_t> choices;
  // Full trace of the (minimized) violating run.
  ScheduleTrace trace;
  ConsistencyReport report;

  std::string Summary() const;
};

struct ExploreResult {
  // Complete schedules executed and classified.
  int64_t schedules = 0;
  // Controlled executions charged: one per complete schedule, plus every
  // fresh construct-and-replay (each interior DFS node in the stateless
  // engine, each frontier expansion in parallel mode) and every
  // minimization probe. executions / schedules is the replay-redundancy
  // factor the throughput bench reports — ~1 with prefix sharing, ~the
  // mean tree depth without.
  int64_t executions = 0;
  // Branches skipped because their event was in the sleep set, and
  // executions abandoned with every ready event sleeping. Zero with
  // sleep_sets off.
  int64_t sleep_pruned = 0;
  int64_t sleep_blocked = 0;
  // Independence queries the effect table granted where the site rule
  // alone said dependent (config.effects set). Like `executions` it
  // counts work actually performed, so a dedup hit — which skips the
  // queries — does not replay it; totals are engine-dependent.
  int64_t refined_grants = 0;
  // Interior decision points (ready set > 1) encountered.
  int64_t decision_points = 0;
  int64_t max_ready = 0;
  // The whole space was covered within the schedule budget (exhaustive
  // mode; random mode always reports false).
  bool exhausted = false;
  int64_t violations = 0;
  // Weakest level any schedule reached (kComplete when nothing ran).
  ConsistencyLevel worst = ConsistencyLevel::kComplete;
  std::optional<Counterexample> counterexample;
  // --- State-space dedup (dedup_states) ---
  // Subtrees pruned by a visited-state hit, completed subtrees inserted,
  // and nodes skipped because a pending event had no content digest
  // (conservatively treated as unique).
  int64_t dedup_hits = 0;
  int64_t dedup_inserts = 0;
  int64_t dedup_unhashable = 0;
  // Parallel exploration fell back to the sequential engine because the
  // frontier split produced too few subtree tasks (see
  // sequential_fallback_threshold).
  bool parallel_fallback = false;
};

ExploreResult ExploreExhaustive(const ExplorerConfig& config);

ExploreResult ExploreRandom(const ExplorerConfig& config, int64_t walks,
                            uint64_t seed);

// Greedy minimization of a violating choice vector: trim trailing
// defaults, then try lowering every choice toward 0, keeping each change
// that still violates `required`. Returns the minimized vector;
// `executions`, if given, accumulates the probe-run count.
std::vector<size_t> MinimizeViolation(const ControlledScenario& scenario,
                                      ConsistencyLevel required,
                                      std::vector<size_t> choices,
                                      int64_t max_steps_per_run,
                                      int64_t* executions = nullptr);

}  // namespace sweepmv

#endif  // SWEEPMV_VERIFY_EXPLORER_H_
