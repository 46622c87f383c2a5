#include "verify/explorer.h"

#include <algorithm>
#include <array>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/fingerprint.h"
#include "common/str.h"
#include "verify/pool.h"

namespace sweepmv {

namespace {

// Stable identity of a ready candidate: its channel plus how many events
// of that channel the prefix already executed.
EventId IdOf(const EventLabel& label, const ScheduleTrace& prefix_trace) {
  EventId id;
  id.channel = ChannelOf(label);
  for (const TraceStep& step : prefix_trace.steps) {
    if (ChannelOf(step.label) == id.channel) ++id.index;
  }
  return id;
}

bool Contains(const std::vector<EventId>& set, const EventId& id) {
  return std::find(set.begin(), set.end(), id) != set.end();
}

// The independence relation only needs each event's affected site, which
// its channel determines; reconstruct a label from the id.
EventLabel LabelOfChannelHead(const EventId& id) {
  EventLabel label;
  label.kind = id.channel.kind;
  label.from = id.channel.from;
  label.to = id.channel.to;
  return label;
}

// Full label of a sleep-set entry, for the refined independence check:
// a slept event stays enabled (its channel head is untouched by the
// independent steps that kept it asleep), so it is normally present in
// the node's ready set — match it there to recover the complete label
// (kind, sites, `what` tag). The channel-head fallback loses the tag,
// which makes internal events unresolvable and degrades them to the
// site rule's always-dependent verdict — sound, never unsound.
EventLabel ResolveSleepLabel(const EventId& z,
                             const std::vector<EventId>& ids,
                             const std::vector<Scheduler::Candidate>& ready) {
  for (size_t j = 0; j < ids.size(); ++j) {
    if (ids[j] == z) return ready[j].label;
  }
  return LabelOfChannelHead(z);
}

struct ChannelLess {
  bool operator()(const ChannelId& a, const ChannelId& b) const {
    return std::tie(a.kind, a.from, a.to) < std::tie(b.kind, b.from, b.to);
  }
};
// Events executed so far per channel — the incremental engine's O(1)
// replacement for scanning the prefix trace (IdOf) at every node.
using ExecutedCounts = std::map<ChannelId, int64_t, ChannelLess>;

// Classification logic shared by both engines and the parallel frontier:
// counts a complete schedule, tracks the worst level, and captures the
// first violation. With `defer_minimize` (parallel subtree tasks) the
// counterexample keeps only the raw choice vector; minimization and the
// final replay happen once, after the DFS-ordered merge picks the
// globally first violation — which is exactly the one the sequential
// search would minimize, keeping the output thread-count-invariant.
struct SearchCore {
  const ExplorerConfig& config;
  bool defer_minimize = false;
  ExploreResult result;
  bool stop = false;
  // Full choice vector of every recorded violation, in DFS order. The
  // visited table stores a completed subtree's first violation as a
  // suffix relative to the subtree root, so a later hit at a different
  // prefix can reconstruct exactly the counterexample a dedup-off search
  // would have reported there. Only populated when dedup is on.
  std::vector<std::vector<size_t>> violation_paths = {};

  void Classify(const ControlledOutcome& outcome,
                const std::vector<size_t>& choices) {
    ++result.schedules;
    result.worst = std::min(result.worst, outcome.report.level);
    if (outcome.report.level >= config.required) return;
    ++result.violations;
    if (config.dedup_states) violation_paths.push_back(choices);
    if (!result.counterexample.has_value()) {
      Counterexample cx;
      if (defer_minimize) {
        cx.choices = choices;
        cx.report = outcome.report;
      } else {
        std::vector<size_t> minimized = choices;
        if (config.minimize) {
          minimized = MinimizeViolation(config.scenario, config.required,
                                        std::move(minimized),
                                        config.max_steps_per_run,
                                        &result.executions);
        }
        const ControlledOutcome final_run = RunWithChoices(
            config.scenario, minimized, config.max_steps_per_run);
        ++result.executions;
        cx.choices = std::move(minimized);
        cx.trace = final_run.trace;
        cx.report = final_run.report;
      }
      result.counterexample = std::move(cx);
    }
    if (config.stop_at_first_violation) stop = true;
  }
};

// ---------------------------------------------------------------------
// Visited-state table (dedup_states): turns the DFS tree into a DAG.
//
// Key: the canonical 128-bit state fingerprint, plus a context digest of
// the node's depth and sleep set. Depth matters because the remaining
// step budget — and therefore the subtree's classification — depends on
// it; the sleep set matters because it prunes different children (two
// visits of one state under different sleep sets explore different
// subtrees). Value: the complete, deterministic summary of the subtree
// explored below that key. A later visit of the same key merges the
// cached summary instead of re-exploring, so dedup-on totals equal
// dedup-off totals exactly — whichever schedule, thread, or steal order
// populated the entry first.
// ---------------------------------------------------------------------

struct VisitedKey {
  Fp128 fp;
  uint64_t ctx = 0;

  bool operator==(const VisitedKey& other) const {
    return fp == other.fp && ctx == other.ctx;
  }
};

struct VisitedKeyHash {
  size_t operator()(const VisitedKey& key) const {
    return static_cast<size_t>(key.fp.lo ^ (key.fp.hi * 31) ^ key.ctx);
  }
};

// Everything deterministic the merge needs. `executions` is deliberately
// absent: it counts real work done, and a hit does none.
struct SubtreeSummary {
  int64_t schedules = 0;
  int64_t violations = 0;
  int64_t sleep_pruned = 0;
  int64_t sleep_blocked = 0;
  int64_t decision_points = 0;
  int64_t max_ready = 0;
  ConsistencyLevel worst = ConsistencyLevel::kComplete;
  // First violation below the subtree root, as choices relative to it
  // (empty and has_violation=false when the subtree is clean).
  bool has_violation = false;
  std::vector<size_t> violation_suffix;

  bool operator==(const SubtreeSummary& other) const {
    return schedules == other.schedules &&
           violations == other.violations &&
           sleep_pruned == other.sleep_pruned &&
           sleep_blocked == other.sleep_blocked &&
           decision_points == other.decision_points &&
           max_ready == other.max_ready && worst == other.worst &&
           has_violation == other.has_violation &&
           violation_suffix == other.violation_suffix;
  }
};

// Shared across the work-stealing pool: only fully-completed subtrees are
// inserted, and a summary is a pure function of its key, so concurrent
// explorations of the same state race only on who inserts the identical
// value first. Sharded by key hash so eight threads doing a lookup per
// branch node contend on different locks, not one global one.
class VisitedTable {
 public:
  std::optional<SubtreeSummary> Lookup(const VisitedKey& key) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return std::nullopt;
    return it->second;
  }

  void Insert(const VisitedKey& key, SubtreeSummary summary) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.emplace(key, std::move(summary));
  }

 private:
  static constexpr size_t kShards = 64;

  struct Shard {
    std::mutex mu;
    std::unordered_map<VisitedKey, SubtreeSummary, VisitedKeyHash> map;
  };

  Shard& ShardOf(const VisitedKey& key) {
    return shards_[VisitedKeyHash{}(key) % kShards];
  }

  std::array<Shard, kShards> shards_;
};

VisitedKey MakeVisitedKey(const Fp128& fp, size_t depth,
                          const std::vector<EventId>& sleep) {
  StateHasher h;
  h.U64("node.depth", depth);
  std::vector<EventId> sorted = sleep;
  std::sort(sorted.begin(), sorted.end(),
            [](const EventId& a, const EventId& b) {
              return std::tie(a.channel.kind, a.channel.from, a.channel.to,
                              a.index) < std::tie(b.channel.kind,
                                                  b.channel.from,
                                                  b.channel.to, b.index);
            });
  h.U64("sleep.size", sorted.size());
  for (const EventId& id : sorted) {
    h.I64("sleep.kind", static_cast<int64_t>(id.channel.kind));
    h.I64("sleep.from", id.channel.from);
    h.I64("sleep.to", id.channel.to);
    h.I64("sleep.index", id.index);
  }
  const Fp128 ctx = h.Digest();
  return VisitedKey{fp, ctx.lo ^ ctx.hi};
}

// ---------------------------------------------------------------------
// Stateless engine (share_prefixes = false): every DFS node constructs a
// fresh system and replays its prefix — the original engine, kept as the
// baseline the throughput bench measures prefix sharing against.
// ---------------------------------------------------------------------

struct ReplayDfs {
  SearchCore core;

  // Visits the node reached by `prefix`; `sleep` holds events provably
  // redundant to explore here (their interleavings are covered by
  // already-explored sibling branches).
  void Visit(std::vector<size_t>& prefix, std::vector<EventId> sleep) {
    const ExplorerConfig& config = core.config;
    ExploreResult& result = core.result;
    if (core.stop) return;
    if (result.schedules >= config.max_schedules) {
      core.stop = true;
      result.exhausted = false;
      return;
    }

    ReplayScheduler scheduler(prefix);
    ControlledSystem system(config.scenario, &scheduler);
    ++result.executions;
    const int64_t ran = system.Run(static_cast<int64_t>(prefix.size()));
    SWEEP_CHECK_MSG(ran == static_cast<int64_t>(prefix.size()),
                    "schedule prefix drained early");

    const std::vector<Scheduler::Candidate> ready = system.Ready();
    if (ready.empty()) {
      // Terminal: this execution is one complete schedule.
      ControlledOutcome outcome;
      outcome.steps = ran;
      outcome.completed = system.WarehouseIdle();
      if (outcome.completed) {
        outcome.report = system.Check();
      } else {
        outcome.report.level = ConsistencyLevel::kInconsistent;
        outcome.report.detail = "run drained with the warehouse busy";
      }
      core.Classify(outcome, prefix);
      return;
    }
    if (static_cast<int64_t>(prefix.size()) >= config.max_steps_per_run) {
      ControlledOutcome outcome;
      outcome.steps = ran;
      outcome.report.level = ConsistencyLevel::kInconsistent;
      outcome.report.detail = "schedule exceeded the step budget";
      core.Classify(outcome, prefix);
      return;
    }

    result.max_ready =
        std::max(result.max_ready, static_cast<int64_t>(ready.size()));
    if (ready.size() > 1) ++result.decision_points;

    std::vector<EventId> ids;
    ids.reserve(ready.size());
    for (const Scheduler::Candidate& c : ready) {
      ids.push_back(IdOf(c.label, scheduler.trace()));
    }

    bool any_explorable = false;
    std::vector<EventId> done;
    for (size_t i = 0; i < ready.size(); ++i) {
      if (config.sleep_sets && Contains(sleep, ids[i])) {
        ++result.sleep_pruned;
        continue;
      }
      any_explorable = true;
      // Child sleep set: everything slept here or explored in an earlier
      // sibling stays asleep below, provided it commutes with the step
      // taken (Godefroid's sleep-set rule).
      std::vector<EventId> child_sleep;
      if (config.sleep_sets) {
        for (const EventId& z : sleep) {
          if (IndependentUnder(config.effects,
                               ResolveSleepLabel(z, ids, ready),
                               ready[i].label, &result.refined_grants)) {
            child_sleep.push_back(z);
          }
        }
        for (const EventId& z : done) {
          if (IndependentUnder(config.effects,
                               ResolveSleepLabel(z, ids, ready),
                               ready[i].label, &result.refined_grants)) {
            child_sleep.push_back(z);
          }
        }
      }
      prefix.push_back(i);
      Visit(prefix, std::move(child_sleep));
      prefix.pop_back();
      if (core.stop) return;
      done.push_back(ids[i]);
    }
    if (!any_explorable) ++result.sleep_blocked;
  }
};

// ---------------------------------------------------------------------
// Prefix-sharing engine (share_prefixes = true): ONE live system; the
// DFS steps it forward one event at a time and backtracks by restoring a
// snapshot taken at the parent decision point, so each complete schedule
// costs about one execution instead of one per tree node.
// ---------------------------------------------------------------------

// Replays a fixed task prefix, then forwards whatever choice the DFS set
// last. Unlike ReplayScheduler it records no trace — the incremental
// engine tracks choices (path) and channel counts (ExecutedCounts)
// itself, which keeps the per-step cost O(1). During the prefix replay
// it does tally per-channel counts, so a subtree task can seed its
// EventId indices to the absolute values its inherited sleep set (built
// from the root during frontier expansion) is expressed in.
class SteppingScheduler : public Scheduler {
 public:
  explicit SteppingScheduler(std::vector<size_t> prefix)
      : prefix_(std::move(prefix)) {}

  size_t Pick(const std::vector<Candidate>& ready) override {
    SWEEP_CHECK(!ready.empty());
    const bool replaying = cursor_ < prefix_.size();
    size_t choice = replaying ? prefix_[cursor_++] : next_;
    if (choice >= ready.size()) choice = ready.size() - 1;
    if (replaying) ++replay_counts_[ChannelOf(ready[choice].label)];
    return choice;
  }

  void SetNext(size_t choice) { next_ = choice; }

  // Per-channel event counts of the replayed prefix.
  const ExecutedCounts& replay_counts() const { return replay_counts_; }

 private:
  std::vector<size_t> prefix_;
  size_t cursor_ = 0;
  size_t next_ = 0;
  ExecutedCounts replay_counts_;
};

struct IncrementalDfs {
  SearchCore core;
  VisitedTable* visited = nullptr;
  std::optional<SteppingScheduler> scheduler = std::nullopt;
  std::optional<ControlledSystem> system = std::nullopt;
  ExecutedCounts executed = {};
  std::vector<size_t> path = {};  // root-to-current choice vector

  // Everything Visit must rewind to re-enter a decision point: the
  // system's full state, the channel counts, nothing else (path is
  // maintained push/pop-wise by the DFS itself).
  struct Snapshot {
    ControlledSystem::SavedState sys;
    ExecutedCounts executed;
  };

  // Counter baseline at subtree entry; the delta on completion is the
  // subtree's deterministic summary (what the visited table stores). The
  // monotone accumulators (worst, max_ready) are not additive, so an
  // insertable node scopes them: it parks the entry values here, resets
  // the live ones to their identities, and recombines on every exit —
  // the live values then read as the subtree's own, a pure function of
  // the visited key, which the verify_on_hit equality check requires.
  struct Baseline {
    int64_t schedules = 0;
    int64_t violations = 0;
    int64_t sleep_pruned = 0;
    int64_t sleep_blocked = 0;
    int64_t decision_points = 0;
    size_t first_violation = 0;  // index into core.violation_paths
    bool scoped = false;
    ConsistencyLevel entry_worst = ConsistencyLevel::kComplete;
    int64_t entry_max_ready = 0;
  };

  Baseline TakeBaseline(bool scope_monotone) {
    Baseline base;
    base.schedules = core.result.schedules;
    base.violations = core.result.violations;
    base.sleep_pruned = core.result.sleep_pruned;
    base.sleep_blocked = core.result.sleep_blocked;
    base.decision_points = core.result.decision_points;
    base.first_violation = core.violation_paths.size();
    if (scope_monotone) {
      base.scoped = true;
      base.entry_worst = core.result.worst;
      base.entry_max_ready = core.result.max_ready;
      core.result.worst = ConsistencyLevel::kComplete;
      core.result.max_ready = 0;
    }
    return base;
  }

  // Folds the parked entry values back into the live accumulators. Must
  // run exactly once on every exit path of a scoped node, including the
  // early stop unwind.
  void CloseScope(const Baseline& base) {
    if (!base.scoped) return;
    core.result.worst = std::min(core.result.worst, base.entry_worst);
    core.result.max_ready =
        std::max(core.result.max_ready, base.entry_max_ready);
  }

  SubtreeSummary DiffFrom(const Baseline& base) const {
    SubtreeSummary s;
    s.schedules = core.result.schedules - base.schedules;
    s.violations = core.result.violations - base.violations;
    s.sleep_pruned = core.result.sleep_pruned - base.sleep_pruned;
    s.sleep_blocked = core.result.sleep_blocked - base.sleep_blocked;
    s.decision_points = core.result.decision_points - base.decision_points;
    // With the scope open, the live monotone values are subtree-pure.
    s.max_ready = core.result.max_ready;
    s.worst = core.result.worst;
    if (core.violation_paths.size() > base.first_violation) {
      const std::vector<size_t>& full =
          core.violation_paths[base.first_violation];
      SWEEP_CHECK(full.size() >= path.size());
      s.has_violation = true;
      s.violation_suffix.assign(full.begin() +
                                    static_cast<ptrdiff_t>(path.size()),
                                full.end());
    }
    return s;
  }

  // Merges a cached subtree exactly as exploring it would have.
  void MergeSummary(const SubtreeSummary& s) {
    ExploreResult& result = core.result;
    result.schedules += s.schedules;
    result.violations += s.violations;
    result.sleep_pruned += s.sleep_pruned;
    result.sleep_blocked += s.sleep_blocked;
    result.decision_points += s.decision_points;
    result.max_ready = std::max(result.max_ready, s.max_ready);
    result.worst = std::min(result.worst, s.worst);
    if (s.has_violation) {
      std::vector<size_t> full = path;
      full.insert(full.end(), s.violation_suffix.begin(),
                  s.violation_suffix.end());
      if (core.config.dedup_states) core.violation_paths.push_back(full);
      if (!result.counterexample.has_value()) {
        // The cached subtree's first violation, re-rooted at this prefix
        // — the schedule a dedup-off search reaching this node first
        // would have found. Deferred finalization (or the caller's
        // minimize+replay) fills trace and report.
        Counterexample cx;
        cx.choices = std::move(full);
        result.counterexample = std::move(cx);
        SWEEP_CHECK_MSG(core.defer_minimize,
                        "a sequential search explores before it can hit");
      }
      if (core.config.stop_at_first_violation) core.stop = true;
    }
  }

  // Builds the system, replays `prefix` (the subtree task's root), then
  // explores the subtree under it.
  void RunFromPrefix(const std::vector<size_t>& prefix,
                     std::vector<EventId> sleep) {
    core.result.exhausted = true;
    scheduler.emplace(prefix);
    system.emplace(core.config.scenario, &*scheduler);
    if (!prefix.empty()) ++core.result.executions;
    const int64_t ran = system->Run(static_cast<int64_t>(prefix.size()));
    SWEEP_CHECK_MSG(ran == static_cast<int64_t>(prefix.size()),
                    "schedule prefix drained early");
    path = prefix;
    executed = scheduler->replay_counts();
    Visit(std::move(sleep));
  }

  void Visit(std::vector<EventId> sleep) {
    const ExplorerConfig& config = core.config;
    ExploreResult& result = core.result;
    if (core.stop) return;
    if (result.schedules >= config.max_schedules) {
      core.stop = true;
      result.exhausted = false;
      return;
    }

    const std::vector<Scheduler::Candidate> ready = system->Ready();
    if (ready.empty()) {
      ControlledOutcome outcome;
      outcome.steps = static_cast<int64_t>(path.size());
      outcome.completed = system->WarehouseIdle();
      if (outcome.completed) {
        outcome.report = system->Check();
      } else {
        outcome.report.level = ConsistencyLevel::kInconsistent;
        outcome.report.detail = "run drained with the warehouse busy";
      }
      ++result.executions;
      core.Classify(outcome, path);
      return;
    }
    if (static_cast<int64_t>(path.size()) >= config.max_steps_per_run) {
      ControlledOutcome outcome;
      outcome.steps = static_cast<int64_t>(path.size());
      outcome.report.level = ConsistencyLevel::kInconsistent;
      outcome.report.detail = "schedule exceeded the step budget";
      ++result.executions;
      core.Classify(outcome, path);
      return;
    }

    result.max_ready =
        std::max(result.max_ready, static_cast<int64_t>(ready.size()));
    if (ready.size() > 1) ++result.decision_points;

    std::vector<EventId> ids;
    ids.reserve(ready.size());
    std::vector<size_t> explorable;
    for (size_t i = 0; i < ready.size(); ++i) {
      EventId id;
      id.channel = ChannelOf(ready[i].label);
      const auto it = executed.find(id.channel);
      id.index = it == executed.end() ? 0 : it->second;
      ids.push_back(id);
      if (config.sleep_sets && Contains(sleep, id)) {
        ++result.sleep_pruned;
        continue;
      }
      explorable.push_back(i);
    }
    if (explorable.empty()) {
      ++result.sleep_blocked;
      return;
    }

    // Only branching nodes pay for backtrack state (a full snapshot);
    // chains just step forward.
    const bool branch = explorable.size() > 1;

    // Visited-state lookup, branch nodes only: same fingerprint + same
    // depth + same sleep set => same subtree; merge the cached summary
    // instead of exploring. Chain nodes (one explorable child) are never
    // keyed — they outnumber branches an order of magnitude and a
    // confluent chain is caught at its next branch anyway, so hashing
    // them buys almost nothing at full O(state) cost per node. A node's
    // own max_ready / decision_points / sleep_pruned are bumped above,
    // before the baseline: the hit-time node re-derives them identically
    // from the identical state, so merged totals still equal a dedup-off
    // search exactly.
    bool insertable = false;
    VisitedKey key;
    std::optional<SubtreeSummary> cached;
    if (branch && config.dedup_states && visited != nullptr) {
      Fp128 fp;
      if (system->HashState(&fp)) {
        insertable = true;
        key = MakeVisitedKey(fp, path.size(), sleep);
        cached = visited->Lookup(key);
        if (cached.has_value()) {
          ++result.dedup_hits;
          if (!config.verify_on_hit) {
            MergeSummary(*cached);
            return;
          }
        }
      } else {
        ++result.dedup_unhashable;
      }
    }
    const Baseline base = TakeBaseline(/*scope_monotone=*/insertable);

    std::optional<Snapshot> snap;
    if (branch) snap.emplace(Snapshot{system->SaveState(), executed});

    std::vector<EventId> done;
    bool first = true;
    for (size_t i : explorable) {
      if (!first) {
        system->RestoreState(snap->sys);
        executed = snap->executed;
      }
      first = false;
      std::vector<EventId> child_sleep;
      if (config.sleep_sets) {
        for (const EventId& z : sleep) {
          if (IndependentUnder(config.effects,
                               ResolveSleepLabel(z, ids, ready),
                               ready[i].label, &result.refined_grants)) {
            child_sleep.push_back(z);
          }
        }
        for (const EventId& z : done) {
          if (IndependentUnder(config.effects,
                               ResolveSleepLabel(z, ids, ready),
                               ready[i].label, &result.refined_grants)) {
            child_sleep.push_back(z);
          }
        }
      }
      // The oracle diffs every declared member against a save taken just
      // before the step, so it observes exactly this step's writes.
      std::optional<ControlledSystem::SavedState> before;
      if (config.effects_oracle) before.emplace(system->SaveState());
      scheduler->SetNext(i);
      const int64_t ran = system->Run(1);
      SWEEP_CHECK_MSG(ran == 1, "ready event failed to execute");
      if (config.effects_oracle) {
        std::string err;
        SWEEP_CHECK_MSG(config.effects->CheckObserved(
                            ready[i].label, system->ChangedSince(*before),
                            &err),
                        err.c_str());
      }
      ++executed[ids[i].channel];
      path.push_back(i);
      Visit(std::move(child_sleep));
      path.pop_back();
      if (core.stop) {
        CloseScope(base);
        return;
      }
      done.push_back(ids[i]);
    }
    FinishSubtree(insertable, key, base, cached);
  }

  // Subtree fully classified (no early stop): record it in the visited
  // table, or — verify_on_hit after a hit — check the re-exploration
  // reproduced the cached summary bit for bit.
  void FinishSubtree(bool insertable, const VisitedKey& key,
                     const Baseline& base,
                     const std::optional<SubtreeSummary>& cached) {
    if (core.stop) {
      CloseScope(base);
      return;
    }
    if (!insertable) return;
    SubtreeSummary summary = DiffFrom(base);
    CloseScope(base);
    if (cached.has_value()) {
      SWEEP_CHECK_MSG(summary == *cached,
                      "visited-state hit disagreed with re-exploration "
                      "(fingerprint collision or nondeterministic step)");
      return;
    }
    visited->Insert(key, std::move(summary));
    ++core.result.dedup_inserts;
  }
};

// ---------------------------------------------------------------------
// Parallel exploration: split the DFS frontier into subtree tasks, run
// them on the work-stealing pool, merge in DFS task order.
// ---------------------------------------------------------------------

// One leaf of the frontier split: either a schedule already classified
// during expansion (terminal), or a pending subtree task for the pool.
struct FrontierSlot {
  std::vector<size_t> prefix;
  std::vector<EventId> sleep;
  bool runnable = false;
  ExploreResult partial;
};

// Expands the frontier breadth-first (shallowest slot first) until at
// least `target` runnable subtree tasks exist, mirroring the DFS's
// sleep-set bookkeeping exactly so the union of the subtrees is the same
// node set the sequential search visits. Runs single-threaded; its
// per-node replays are charged to `expand_stats.executions`.
void SplitFrontier(const ExplorerConfig& config, size_t target,
                   std::list<FrontierSlot>& slots,
                   ExploreResult& expand_stats) {
  slots.push_back(FrontierSlot{{}, {}, true, ExploreResult{}});
  for (;;) {
    size_t runnable = 0;
    auto expand_it = slots.end();
    for (auto it = slots.begin(); it != slots.end(); ++it) {
      if (!it->runnable) continue;
      ++runnable;
      if (expand_it == slots.end() ||
          it->prefix.size() < expand_it->prefix.size()) {
        expand_it = it;
      }
    }
    if (runnable >= target || expand_it == slots.end()) return;

    FrontierSlot slot = std::move(*expand_it);
    ReplayScheduler scheduler(slot.prefix);
    ControlledSystem system(config.scenario, &scheduler);
    ++expand_stats.executions;
    const int64_t ran = system.Run(static_cast<int64_t>(slot.prefix.size()));
    SWEEP_CHECK_MSG(ran == static_cast<int64_t>(slot.prefix.size()),
                    "schedule prefix drained early");

    const std::vector<Scheduler::Candidate> ready = system.Ready();
    const bool over_budget =
        !ready.empty() &&
        static_cast<int64_t>(slot.prefix.size()) >= config.max_steps_per_run;
    if (ready.empty() || over_budget) {
      // The expanded node is itself a complete schedule; classify it in
      // place so the slot keeps its DFS position in the merge order.
      ControlledOutcome outcome;
      outcome.steps = ran;
      if (over_budget) {
        outcome.report.level = ConsistencyLevel::kInconsistent;
        outcome.report.detail = "schedule exceeded the step budget";
      } else {
        outcome.completed = system.WarehouseIdle();
        if (outcome.completed) {
          outcome.report = system.Check();
        } else {
          outcome.report.level = ConsistencyLevel::kInconsistent;
          outcome.report.detail = "run drained with the warehouse busy";
        }
      }
      SearchCore terminal{config, /*defer_minimize=*/true, ExploreResult{},
                          false};
      terminal.result.exhausted = true;
      ++terminal.result.executions;
      terminal.Classify(outcome, slot.prefix);
      slot.runnable = false;
      slot.partial = std::move(terminal.result);
      *expand_it = std::move(slot);
      continue;
    }

    expand_stats.max_ready = std::max(
        expand_stats.max_ready, static_cast<int64_t>(ready.size()));
    if (ready.size() > 1) ++expand_stats.decision_points;

    std::vector<EventId> ids;
    ids.reserve(ready.size());
    for (const Scheduler::Candidate& c : ready) {
      ids.push_back(IdOf(c.label, scheduler.trace()));
    }

    std::list<FrontierSlot> children;
    std::vector<EventId> done;
    for (size_t i = 0; i < ready.size(); ++i) {
      if (config.sleep_sets && Contains(slot.sleep, ids[i])) {
        ++expand_stats.sleep_pruned;
        continue;
      }
      std::vector<EventId> child_sleep;
      if (config.sleep_sets) {
        for (const EventId& z : slot.sleep) {
          if (IndependentUnder(config.effects,
                               ResolveSleepLabel(z, ids, ready),
                               ready[i].label,
                               &expand_stats.refined_grants)) {
            child_sleep.push_back(z);
          }
        }
        for (const EventId& z : done) {
          if (IndependentUnder(config.effects,
                               ResolveSleepLabel(z, ids, ready),
                               ready[i].label,
                               &expand_stats.refined_grants)) {
            child_sleep.push_back(z);
          }
        }
      }
      std::vector<size_t> child_prefix = slot.prefix;
      child_prefix.push_back(i);
      children.push_back(FrontierSlot{std::move(child_prefix),
                                      std::move(child_sleep), true,
                                      ExploreResult{}});
      done.push_back(ids[i]);
    }
    if (children.empty()) {
      ++expand_stats.sleep_blocked;
      slots.erase(expand_it);
      continue;
    }
    slots.splice(expand_it, std::move(children));
    slots.erase(expand_it);
  }
}

ExploreResult ExploreParallel(const ExplorerConfig& config) {
  ExploreResult expand_stats;
  expand_stats.exhausted = true;
  std::list<FrontierSlot> slots;
  // Enough tasks per worker that stealing can balance uneven subtrees.
  const size_t target = static_cast<size_t>(config.threads) * 8;
  SplitFrontier(config, target, slots, expand_stats);

  std::vector<FrontierSlot*> tasks;
  for (FrontierSlot& slot : slots) {
    if (slot.runnable) tasks.push_back(&slot);
  }

  // Visited-state table shared by every subtree task (and the fallback):
  // a summary is a pure function of its key, so the totals are identical
  // whichever worker inserts first.
  VisitedTable table;

  // Sequential fallback: a frontier this small means the split already
  // enumerated most of the space, or the scenario cannot fan out — the
  // pool would add synchronization cost without parallel work. Run the
  // plain sequential engine instead (identical totals by construction),
  // charging the split's probe executions as the cost of finding out.
  if (config.sequential_fallback_threshold > 0 &&
      static_cast<int64_t>(tasks.size()) <
          config.sequential_fallback_threshold) {
    IncrementalDfs dfs{SearchCore{config, /*defer_minimize=*/false,
                                  ExploreResult{}, false}};
    dfs.visited = &table;
    dfs.RunFromPrefix({}, {});
    ExploreResult result = std::move(dfs.core.result);
    result.executions += expand_stats.executions;
    result.parallel_fallback = true;
    return result;
  }

  WorkStealingPool pool(config.threads);
  pool.Run(static_cast<int64_t>(tasks.size()), [&](int64_t t) {
    FrontierSlot* slot = tasks[static_cast<size_t>(t)];
    IncrementalDfs dfs{
        SearchCore{config, /*defer_minimize=*/true, ExploreResult{}, false}};
    dfs.visited = &table;
    dfs.RunFromPrefix(slot->prefix, slot->sleep);
    slot->partial = std::move(dfs.core.result);
  });

  // Merge in DFS (slot) order: sums and min/max are order-independent;
  // the counterexample is order-sensitive and takes the first slot's —
  // the same violation the sequential DFS reaches first.
  ExploreResult merged = std::move(expand_stats);
  for (FrontierSlot& slot : slots) {
    const ExploreResult& r = slot.partial;
    merged.schedules += r.schedules;
    merged.executions += r.executions;
    merged.sleep_pruned += r.sleep_pruned;
    merged.sleep_blocked += r.sleep_blocked;
    merged.refined_grants += r.refined_grants;
    merged.decision_points += r.decision_points;
    merged.violations += r.violations;
    merged.max_ready = std::max(merged.max_ready, r.max_ready);
    merged.worst = std::min(merged.worst, r.worst);
    merged.exhausted = merged.exhausted && r.exhausted;
    merged.dedup_hits += r.dedup_hits;
    merged.dedup_inserts += r.dedup_inserts;
    merged.dedup_unhashable += r.dedup_unhashable;
    if (!merged.counterexample.has_value() &&
        r.counterexample.has_value()) {
      merged.counterexample = r.counterexample;
    }
  }

  // Deferred counterexample finalization: minimize the globally first
  // violation and replay it once for the trace and report.
  if (merged.counterexample.has_value()) {
    Counterexample& cx = *merged.counterexample;
    if (config.minimize) {
      cx.choices = MinimizeViolation(config.scenario, config.required,
                                     std::move(cx.choices),
                                     config.max_steps_per_run,
                                     &merged.executions);
    }
    const ControlledOutcome final_run = RunWithChoices(
        config.scenario, cx.choices, config.max_steps_per_run);
    ++merged.executions;
    cx.trace = final_run.trace;
    cx.report = final_run.report;
  }
  return merged;
}

}  // namespace

std::string Counterexample::Summary() const {
  std::string out = StrFormat(
      "violation: level %s (%s)\nchoices:",
      ConsistencyLevelName(report.level), report.detail.c_str());
  for (size_t c : choices) out += StrFormat(" %zu", c);
  out += "\nschedule:\n" + trace.ToString();
  return out;
}

ExploreResult ExploreExhaustive(const ExplorerConfig& config) {
  SWEEP_CHECK_MSG(config.threads >= 1, "threads must be positive");
  SWEEP_CHECK_MSG(config.share_prefixes || config.threads == 1,
                  "parallel exploration requires prefix sharing");
  SWEEP_CHECK_MSG(config.share_prefixes || !config.dedup_states,
                  "state dedup requires the prefix-sharing engine");
  SWEEP_CHECK_MSG(!config.effects_oracle ||
                      (config.effects != nullptr && config.share_prefixes),
                  "the effect oracle needs an effects index and the "
                  "prefix-sharing engine");
  ExploreResult result;
  if (config.threads > 1) {
    result = ExploreParallel(config);
  } else if (config.share_prefixes) {
    VisitedTable table;
    IncrementalDfs dfs{SearchCore{config, /*defer_minimize=*/false,
                                  ExploreResult{}, false}};
    dfs.visited = &table;
    dfs.RunFromPrefix({}, {});
    result = std::move(dfs.core.result);
  } else {
    ReplayDfs dfs{SearchCore{config, /*defer_minimize=*/false,
                             ExploreResult{}, false}};
    dfs.core.result.exhausted = true;
    std::vector<size_t> prefix;
    dfs.Visit(prefix, {});
    result = std::move(dfs.core.result);
  }
  if (result.schedules >= config.max_schedules) result.exhausted = false;
  if (result.violations > 0 && config.stop_at_first_violation) {
    // Stopped early by design; the space was not necessarily covered.
    result.exhausted = false;
  }
  return result;
}

ExploreResult ExploreRandom(const ExplorerConfig& config, int64_t walks,
                            uint64_t seed) {
  ExploreResult result;
  Rng root(seed);
  for (int64_t w = 0; w < walks; ++w) {
    if (result.schedules >= config.max_schedules) break;
    RandomScheduler scheduler(root.Next());
    ControlledSystem system(config.scenario, &scheduler);
    ++result.executions;
    const int64_t ran = system.Run(config.max_steps_per_run);
    ControlledOutcome outcome;
    outcome.steps = ran;
    outcome.completed = system.Drained() && system.WarehouseIdle();
    if (outcome.completed) {
      outcome.report = system.Check();
    } else {
      outcome.report.level = ConsistencyLevel::kInconsistent;
      outcome.report.detail = system.Drained()
                                  ? "run drained with the warehouse busy"
                                  : "run exceeded the step budget";
    }
    ++result.schedules;
    result.worst = std::min(result.worst, outcome.report.level);
    for (const TraceStep& step : scheduler.trace().steps) {
      result.max_ready = std::max(result.max_ready,
                                  static_cast<int64_t>(step.ready.size()));
      if (step.ready.size() > 1) ++result.decision_points;
    }
    if (outcome.report.level >= config.required) continue;
    ++result.violations;
    if (!result.counterexample.has_value()) {
      std::vector<size_t> choices = scheduler.trace().Choices();
      if (config.minimize) {
        choices = MinimizeViolation(config.scenario, config.required,
                                    std::move(choices),
                                    config.max_steps_per_run,
                                    &result.executions);
      }
      const ControlledOutcome final_run =
          RunWithChoices(config.scenario, choices, config.max_steps_per_run);
      ++result.executions;
      Counterexample cx;
      cx.choices = std::move(choices);
      cx.trace = final_run.trace;
      cx.report = final_run.report;
      result.counterexample = std::move(cx);
    }
    if (config.stop_at_first_violation) break;
  }
  return result;
}

std::vector<size_t> MinimizeViolation(const ControlledScenario& scenario,
                                      ConsistencyLevel required,
                                      std::vector<size_t> choices,
                                      int64_t max_steps_per_run,
                                      int64_t* executions) {
  const auto violates = [&](const std::vector<size_t>& candidate) {
    if (executions != nullptr) ++(*executions);
    ControlledOutcome outcome =
        RunWithChoices(scenario, candidate, max_steps_per_run);
    return outcome.report.level < required;
  };
  const auto trim = [](std::vector<size_t>& v) {
    while (!v.empty() && v.back() == 0) v.pop_back();
  };

  trim(choices);
  SWEEP_CHECK_MSG(violates(choices),
                  "MinimizeViolation requires a violating schedule");

  // Shortest violating prefix, defaults beyond it. Violation is not
  // monotone in the prefix length, so scan from the front and take the
  // first prefix that still violates (the full vector always does).
  for (size_t k = 0; k < choices.size(); ++k) {
    const std::vector<size_t> candidate(
        choices.begin(), choices.begin() + static_cast<ptrdiff_t>(k));
    if (violates(candidate)) {
      choices.resize(k);
      break;
    }
  }

  // Lower every choice as far as the violation allows.
  for (size_t i = 0; i < choices.size(); ++i) {
    while (choices[i] > 0) {
      std::vector<size_t> candidate = choices;
      --candidate[i];
      if (!violates(candidate)) break;
      choices = std::move(candidate);
    }
  }
  trim(choices);
  return choices;
}

}  // namespace sweepmv
