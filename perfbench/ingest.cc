// Ingest workloads: per-update SWEEP on the paper's topology, and the
// batched, sharded pipeline with one view group.
//
// Each workload wires its deployment from the library's public classes
// exactly as the library's own harness does (harness/scenario.cc and
// shard/sharded_scenario.cc), so that set-up can be timed apart from the
// run and so that a traced copy can put timing proxies in front of every
// site. Three gates keep the numbers honest:
//   * an oracle independent of the maintenance protocol: every generated
//     op applied to the initial bases, then ViewDef::EvaluateFull;
//   * the library's own entry point (RunExplicitScenario or
//     RunShardedExplicit) must produce the same traffic, staleness and
//     final view as the benchmark's deployment;
//   * in the traced run, the proxied deployment must reproduce the
//     untraced one exactly, and its spans plus the residual must add up
//     to its wall time.

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/factory.h"
#include "core/sweep.h"
#include "harness/scenario.h"
#include "harness/stats.h"
#include "shard/batch.h"
#include "shard/router.h"
#include "shard/routing.h"
#include "shard/sharded_scenario.h"
#include "shard/sharded_view.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "source/data_source.h"
#include "workload/schema_gen.h"
#include "workload/update_gen.h"

namespace perfbench {
namespace {

using namespace sweepmv;

constexpr SimTime kLinkLatency = 1000;
constexpr uint64_t kNetworkSeed = 99;
constexpr int64_t kMaxEvents = 200'000'000;
constexpr int kShards = 4;

// ---------------------------------------------------------------------------
// Spans: self time per layer, measured around calls into the library.

enum Layer { kCore, kSourceQuery, kSourceCommit, kRouter, kBatch, kNumLayers };

class Spans {
 public:
  // Runs `fn` as one span of `layer`. A span's self time excludes the
  // spans nested inside it (a batch flush commits at a source), so self
  // times of all layers never add up to more than the wall time.
  template <class F>
  void Time(Layer layer, F&& fn) {
    const Clock::time_point start = Clock::now();
    open_.push_back(0.0);
    fn();
    const double total = SecondsSince(start);
    const double nested = open_.back();
    open_.pop_back();
    self_[layer] += total - nested;
    ++calls_[layer];
    if (!open_.empty()) open_.back() += total;
  }

  double self(Layer layer) const { return self_[layer]; }
  int64_t calls(Layer layer) const { return calls_[layer]; }
  double total_self() const {
    double sum = 0.0;
    for (double s : self_) sum += s;
    return sum;
  }

 private:
  std::array<double, kNumLayers> self_{};
  std::array<int64_t, kNumLayers> calls_{};
  std::vector<double> open_;
};

// Proxy registered with the network in place of a warehouse or router.
class TimedSite : public Site {
 public:
  TimedSite(Site* inner, Layer layer, Spans* spans)
      : inner_(inner), layer_(layer), spans_(spans) {}

  void OnMessage(int from, Message msg) override {
    spans_->Time(layer_, [&] { inner_->OnMessage(from, std::move(msg)); });
  }

 private:
  Site* inner_;
  Layer layer_;
  Spans* spans_;
};

// Proxy for a source: queries arrive through OnMessage, commits through
// ApplyTxn (from the workload or from a batch pipeline's flush).
class TimedSource : public SourceSite {
 public:
  TimedSource(DataSource* inner, Spans* spans)
      : inner_(inner), spans_(spans) {}

  void OnMessage(int from, Message msg) override {
    spans_->Time(kSourceQuery,
                 [&] { inner_->OnMessage(from, std::move(msg)); });
  }
  int64_t ApplyTxn(int relation_index,
                   const std::vector<UpdateOp>& ops) override {
    int64_t id = -1;
    spans_->Time(kSourceCommit,
                 [&] { id = inner_->ApplyTxn(relation_index, ops); });
    return id;
  }
  const StateLog& LogOf(int relation_index) const override {
    return inner_->LogOf(relation_index);
  }
  const Relation& RelationOf(int relation_index) const override {
    return inner_->RelationOf(relation_index);
  }
  StorageStats storage_stats() const override {
    return inner_->storage_stats();
  }

 private:
  DataSource* inner_;
  Spans* spans_;
};

// ---------------------------------------------------------------------------
// Inputs and the oracle.

struct IngestShape {
  int txns = 0;
  double mean_interarrival = 0.0;
};

struct Inputs {
  ViewDef view;
  std::vector<Relation> bases;
  std::vector<ScheduledTxn> txns;  // sorted by `at`, stable
};

// The paper's chain: three relations, one source site each, hot-key
// churn with one op per client transaction.
Inputs MakeInputs(uint64_t seed, const IngestShape& shape) {
  ChainSpec chain;
  chain.num_relations = 3;
  chain.initial_tuples = 32;
  chain.join_domain = 64;
  chain.seed = seed;
  WorkloadSpec workload;
  workload.total_txns = shape.txns;
  workload.mean_interarrival = shape.mean_interarrival;
  workload.max_ops_per_txn = 1;
  workload.key_skew = 0.8;
  workload.key_domain = 256;
  workload.seed = seed * 2654435761u + 17;
  ViewDef view = MakeChainView(chain);
  std::vector<Relation> bases = MakeInitialBases(view, chain);
  std::vector<ScheduledTxn> txns =
      GenerateWorkload(view, bases, chain, workload);
  std::stable_sort(txns.begin(), txns.end(),
                   [](const ScheduledTxn& a, const ScheduledTxn& b) {
                     return a.at < b.at;
                   });
  return Inputs{std::move(view), std::move(bases), std::move(txns)};
}

std::vector<const Relation*> Pointers(const std::vector<Relation>& rels) {
  std::vector<const Relation*> out;
  for (const Relation& r : rels) out.push_back(&r);
  return out;
}

// The sources' final state, built without the maintenance protocol:
// sources apply every op (nothing crashes here), so the final bases are
// the initial bases plus every op's signed tuple. The oracle view is
// EvaluateFull over these.
std::vector<Relation> FinalBases(const Inputs& in) {
  std::vector<Relation> bases = in.bases;
  for (const ScheduledTxn& txn : in.txns) {
    Relation& base = bases[static_cast<size_t>(txn.relation)];
    for (const UpdateOp& op : txn.ops) {
      base.Add(op.tuple, op.kind == UpdateOp::Kind::kInsert ? 1 : -1);
    }
  }
  return bases;
}

// The output gate. The self-check feeds it a corrupted view to prove it
// rejects one.
bool ViewMatchesOracle(const Relation& got, const Relation& oracle) {
  return got == oracle;
}

Relation Corrupted(const Relation& view) {
  Relation bad = view;
  if (view.Empty()) return bad;  // caller's gate already covers empties
  bad.Add(view.entries().begin()->first, 1);
  return bad;
}

// ---------------------------------------------------------------------------
// Deployment outputs: everything deterministic the gates compare, plus the
// per-layer counters.

struct Outputs {
  bool drained = false;
  NetworkStats net;
  double p50 = 0.0;
  double p99 = 0.0;
  Relation final_view;
  int64_t events = 0;
  int64_t updates = 0;  // updates delivered (per update) or committed
  int64_t compensations = 0;
  int64_t foreign_discards = 0;
  int64_t batches_flushed = 0;
  StorageStats storage;

  double MaintMsgsPerUpdate() const {
    const int64_t maint = net.Of(MessageClass::kQueryRequest).messages +
                          net.Of(MessageClass::kQueryAnswer).messages;
    return updates > 0 ? static_cast<double>(maint) /
                             static_cast<double>(updates)
                       : 0.0;
  }
};

bool SameDeterministicOutputs(const Outputs& a, const Outputs& b) {
  return a.drained == b.drained && a.net == b.net && a.p50 == b.p50 &&
         a.p99 == b.p99 && a.final_view == b.final_view &&
         a.events == b.events && a.updates == b.updates &&
         a.compensations == b.compensations &&
         a.foreign_discards == b.foreign_discards &&
         a.batches_flushed == b.batches_flushed;
}

// Common base: the simulator, network and sources of one deployment. With
// `spans` set, every source sits behind a TimedSource proxy.
class Deployment {
 public:
  virtual ~Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void Run() { events_ = sim_.Run(kMaxEvents); }
  virtual Outputs Collect() const = 0;

 protected:
  Deployment(Inputs inputs, Spans* spans)
      : in_(std::move(inputs)),
        spans_(spans),
        network_(&sim_, LatencyModel::Fixed(kLinkLatency), kNetworkSeed) {}

  // Source for relation r at `site`, answering to `warehouse_site`.
  void AddSource(int r, int site, int warehouse_site) {
    auto source = std::make_unique<DataSource>(
        site, r, in_.bases[static_cast<size_t>(r)], &in_.view, &network_,
        warehouse_site, &ids_);
    SourceSite* front = source.get();
    if (spans_ != nullptr) {
      timed_sources_.push_back(
          std::make_unique<TimedSource>(source.get(), spans_));
      front = timed_sources_.back().get();
    }
    network_.RegisterSite(site, front);
    fronts_.push_back(front);
    sources_.push_back(std::move(source));
  }

  // Registers `site` at `id`, behind a TimedSite proxy when tracing.
  void RegisterTimed(int id, Site* site, Layer layer) {
    if (spans_ == nullptr) {
      network_.RegisterSite(id, site);
      return;
    }
    timed_sites_.push_back(std::make_unique<TimedSite>(site, layer, spans_));
    network_.RegisterSite(id, timed_sites_.back().get());
  }

  void CollectCommon(Outputs* out) const {
    out->net = network_.stats();
    out->events = events_;
    for (const auto& source : sources_) {
      out->storage.MergeFrom(source->storage_stats());
    }
  }

  Inputs in_;
  Spans* spans_;
  Simulator sim_;
  Network network_;
  UpdateIdGenerator ids_;
  std::vector<std::unique_ptr<DataSource>> sources_;
  std::vector<std::unique_ptr<TimedSource>> timed_sources_;
  std::vector<std::unique_ptr<TimedSite>> timed_sites_;
  // Per relation: the site the workload commits through (a proxy when
  // tracing).
  std::vector<SourceSite*> fronts_;
  int64_t events_ = 0;
};

// Per-update SWEEP: warehouse at site 0, relation r's source at site r+1;
// every client transaction commits individually (RunExplicitScenario's
// wiring).
class PerUpdateDeployment : public Deployment {
 public:
  PerUpdateDeployment(Inputs inputs, Spans* spans)
      : Deployment(std::move(inputs), spans) {
    const int n = in_.view.num_relations();
    std::vector<int> source_sites;
    for (int r = 0; r < n; ++r) {
      AddSource(r, r + 1, kWarehouseSite);
      source_sites.push_back(r + 1);
    }
    warehouse_ = MakeWarehouse(Algorithm::kSweep, kWarehouseSite, in_.view,
                               &network_, source_sites, Config().warehouse);
    RegisterTimed(kWarehouseSite, warehouse_.get(), kCore);
    warehouse_->InitializeView(in_.view.EvaluateFull(Pointers(in_.bases)));
    warehouse_->InitializeAuxiliary(in_.bases);
    for (const ScheduledTxn& txn : in_.txns) {
      SourceSite* front = fronts_[static_cast<size_t>(txn.relation)];
      const ScheduledTxn* t = &txn;
      sim_.ScheduleAt(txn.at,
                      [front, t]() { front->ApplyTxn(t->relation, t->ops); });
    }
  }

  // The library configuration this deployment reproduces.
  static ScenarioConfig Config() {
    ScenarioConfig config;
    config.algorithm = Algorithm::kSweep;
    config.latency = LatencyModel::Fixed(kLinkLatency);
    config.network_seed = kNetworkSeed;
    config.warehouse.base.log_installs = false;
    config.check_consistency = false;
    config.max_events = kMaxEvents;
    return config;
  }

  Outputs Collect() const override {
    Outputs out;
    CollectCommon(&out);
    out.drained = events_ < kMaxEvents &&
                  warehouse_->update_queue().empty() && !warehouse_->Busy();
    const StalenessPercentiles tail =
        IncorporationDelayPercentiles(*warehouse_);
    out.p50 = tail.p50;
    out.p99 = tail.p99;
    out.final_view = warehouse_->view();
    out.updates = warehouse_->updates_received();
    if (const auto* sweep =
            dynamic_cast<const SweepWarehouse*>(warehouse_.get())) {
      out.compensations = sweep->compensations();
    }
    return out;
  }

 private:
  static constexpr int kWarehouseSite = 0;
  std::unique_ptr<Warehouse> warehouse_;
};

// One view group, kShards SWEEP shards behind a ShardRouter, client
// transactions through shard-affine BatchPipelines (the wiring of
// RunShardedExplicit: shards at sites 0..S-1, router at S, sources after).
class ShardedDeployment : public Deployment {
 public:
  ShardedDeployment(Inputs inputs, Spans* spans)
      : Deployment(std::move(inputs), spans) {
    const int n = in_.view.num_relations();
    const ShardedScenarioConfig config = Config();
    std::vector<int> shard_sites;
    for (int s = 0; s < kShards; ++s) shard_sites.push_back(s);
    const int router_site = kShards;
    std::vector<int> source_sites;
    for (int r = 0; r < n; ++r) {
      source_sites.push_back(router_site + 1 + r);
      AddSource(r, source_sites.back(), router_site);
    }
    router_ = std::make_unique<ShardRouter>(router_site, &network_,
                                            source_sites, shard_sites);
    RegisterTimed(router_site, router_.get(), kRouter);

    const ViewDef* view = &in_.view;
    for (int s = 0; s < kShards; ++s) {
      Warehouse::Options options = config.base.warehouse.base;
      options.shard_index = s;
      options.shard_of = [view](const Update& update) {
        return OwnerShard(*view, update, kShards);
      };
      options.query_id_origin = s;
      options.query_id_stride = kShards;
      auto shard = std::make_unique<SweepWarehouse>(
          s, in_.view, &network_,
          std::vector<int>(static_cast<size_t>(n), router_site),
          SweepWarehouse::SweepOptions{
              options, config.base.warehouse.sweep_local_compensation});
      RegisterTimed(s, shard.get(), kCore);
      shard->InitializeView(Relation(in_.view.view_schema()));
      shards_.push_back(std::move(shard));
    }
    initial_view_ = in_.view.EvaluateFull(Pointers(in_.bases));

    BatchOptions batch = config.batch;
    batch.route_shards = kShards;
    batch.view = &in_.view;
    for (int r = 0; r < n; ++r) {
      pipelines_.push_back(std::make_unique<BatchPipeline>(
          fronts_[static_cast<size_t>(r)], r, &sim_, batch));
    }
    if (!in_.txns.empty()) {
      sim_.ScheduleAt(in_.txns.front().at, [this]() { Submit(0); });
    }
  }

  static ShardedScenarioConfig Config() {
    ShardedScenarioConfig config;
    config.base = PerUpdateDeployment::Config();
    config.num_shards = kShards;
    config.num_views = 1;
    config.batching = true;
    config.batch.max_batch = 64 * kShards;
    // No delay timer: every flush happens inside a Submit or Flush call
    // the traced run times.
    config.batch.max_delay = 0;
    return config;
  }

  Outputs Collect() const override {
    Outputs out;
    CollectCommon(&out);
    out.drained = events_ < kMaxEvents;
    std::map<int64_t, SimTime> installed_at;
    for (const auto& shard : shards_) {
      out.drained = out.drained && shard->update_queue().empty() &&
                    !shard->Busy();
      out.compensations += shard->compensations();
      out.foreign_discards += shard->foreign_updates_discarded();
      for (const auto& [id, at] : shard->install_time_log()) {
        installed_at.emplace(id, at);
      }
    }
    for (int r = 0; r < in_.view.num_relations(); ++r) {
      out.updates += static_cast<int64_t>(
          sources_[static_cast<size_t>(r)]->LogOf(r).updates().size());
    }
    // Submit -> install staleness, as the library's sharded harness
    // attributes it: a batch is visible once its last update installs.
    std::vector<double> staleness;
    for (const auto& pipeline : pipelines_) {
      out.drained = out.drained && pipeline->buffered() == 0;
      out.batches_flushed += pipeline->stats().batches_flushed;
      for (const BatchPipeline::FlushRecord& flush : pipeline->flush_log()) {
        SimTime done = flush.flushed_at;
        for (int64_t id : flush.update_ids) {
          const auto it = installed_at.find(id);
          done = std::max(done, it == installed_at.end() ? sim_.now()
                                                         : it->second);
        }
        for (SimTime submit : flush.submit_times) {
          staleness.push_back(static_cast<double>(done - submit));
        }
      }
    }
    const StalenessPercentiles tail = PercentilesOf(std::move(staleness));
    out.p50 = tail.p50;
    out.p99 = tail.p99;
    ShardedView merged(initial_view_);
    for (const auto& shard : shards_) merged.AddShard(shard.get());
    out.final_view = merged.Merged();
    return out;
  }

 private:
  // Submits client txn i and chain-schedules txn i+1, as the library's
  // harness does (the event order, and so every output, depends on it).
  void Submit(size_t i) {
    const ScheduledTxn& txn = in_.txns[i];
    BatchPipeline* pipeline =
        pipelines_[static_cast<size_t>(txn.relation)].get();
    Batch([&] { pipeline->Submit(txn.ops); });
    if (i + 1 < in_.txns.size()) {
      sim_.ScheduleAt(in_.txns[i + 1].at, [this, i]() { Submit(i + 1); });
    } else {
      for (auto& p : pipelines_) Batch([&] { p->Flush(); });
    }
  }

  template <class F>
  void Batch(F&& fn) {
    if (spans_ == nullptr) {
      fn();
    } else {
      spans_->Time(kBatch, fn);
    }
  }

  std::unique_ptr<ShardRouter> router_;
  std::vector<std::unique_ptr<SweepWarehouse>> shards_;
  std::vector<std::unique_ptr<BatchPipeline>> pipelines_;
  Relation initial_view_;
};

// The library entry point's traffic, staleness and final view for the
// same inputs (it CHECK-fails on a wedged run).
Outputs LibraryOutputs(const Inputs& in, bool sharded) {
  Outputs out;
  if (sharded) {
    const ShardedRunResult r = RunShardedExplicit(
        ShardedDeployment::Config(), in.view, in.bases, in.txns);
    out.net = r.net;
    out.p50 = r.staleness.p50;
    out.p99 = r.staleness.p99;
    out.final_view = r.final_view;
  } else {
    const RunResult r = RunExplicitScenario(PerUpdateDeployment::Config(),
                                            in.view, in.bases, in.txns);
    out.net = r.net;
    out.p50 = r.staleness_p50;
    out.p99 = r.staleness_p99;
    out.final_view = r.final_view;
  }
  return out;
}

std::unique_ptr<Deployment> Build(Inputs inputs, bool sharded, Spans* spans) {
  if (sharded) {
    return std::make_unique<ShardedDeployment>(std::move(inputs), spans);
  }
  return std::make_unique<PerUpdateDeployment>(std::move(inputs), spans);
}

// One timed pass: set-up (inputs + deployment), run, collected outputs.
struct Pass {
  double gen_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  Outputs out;
  Spans spans;
};

void RunPass(uint64_t seed, const IngestShape& shape, bool sharded,
             bool traced, Pass* pass) {
  const Clock::time_point start = Clock::now();
  Inputs inputs = MakeInputs(seed, shape);
  pass->gen_s = SecondsSince(start);
  std::unique_ptr<Deployment> deployment =
      Build(std::move(inputs), sharded, traced ? &pass->spans : nullptr);
  pass->setup_s = SecondsSince(start);
  const Clock::time_point run_start = Clock::now();
  deployment->Run();
  pass->run_s = SecondsSince(run_start);
  pass->out = deployment->Collect();
}

Report RunIngest(const RunOptions& options, const IngestShape& shape,
                 bool sharded) {
  Report report;

  // Oracle first, outside every timed region.
  const Inputs reference_inputs = MakeInputs(options.seed, shape);
  const std::vector<Relation> final_bases = FinalBases(reference_inputs);
  const Clock::time_point eval_start = Clock::now();
  const Relation oracle =
      reference_inputs.view.EvaluateFull(Pointers(final_bases));
  const double eval_full_s = SecondsSince(eval_start);
  report.Gate(!oracle.Empty(), "oracle view is non-empty");
  report.Gate(!ViewMatchesOracle(Corrupted(oracle), oracle),
              "self-check: the view gate rejects a corrupted view");

  // Untraced passes (and, in the traced run, a traced pass after each).
  // The first pass of each kind warms caches and the heap: its outputs
  // are checked like every other pass, its times are not used.
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  bool outputs_ok = true;
  bool traced_same = true;
  const Budget budget(options.seconds, 4);
  do {
    plain.emplace_back();
    RunPass(options.seed, shape, sharded, false, &plain.back());
    if (options.trace) {
      traced.emplace_back();
      RunPass(options.seed, shape, sharded, true, &traced.back());
      traced_same = traced_same && SameDeterministicOutputs(
                                       traced.back().out, plain.front().out);
    }
    const Outputs& out = plain.back().out;
    const bool pass_ok = out.drained &&
                         ViewMatchesOracle(out.final_view, oracle) &&
                         SameDeterministicOutputs(out, plain.front().out);
    outputs_ok = outputs_ok && pass_ok;
    report.attempted += shape.txns;
    if (!pass_ok) report.failed += shape.txns;
  } while (budget.More(plain.size()));

  const Outputs& out = plain.front().out;
  report.Gate(outputs_ok,
              "every pass drained and its final view equals the oracle");
  const Outputs library = LibraryOutputs(reference_inputs, sharded);
  report.Gate(library.net == out.net && library.p50 == out.p50 &&
                  library.p99 == out.p99 &&
                  library.final_view == out.final_view,
              sharded ? "RunShardedExplicit reproduces the deployment"
                      : "RunExplicitScenario reproduces the deployment");
  report.Gate(out.updates > 0 && out.p50 > 0.0 && out.p99 > 0.0,
              "updates committed and staleness measured");

  std::vector<double> setup;
  std::vector<double> gen;
  std::vector<double> run;
  for (size_t i = 1; i < plain.size(); ++i) {
    setup.push_back(plain[i].setup_s);
    gen.push_back(plain[i].gen_s);
    run.push_back(plain[i].run_s);
  }
  const double run_s = Median(run);

  if (!options.trace) {
    report.Add("setup_s", Median(setup), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("txns_per_s", static_cast<double>(shape.txns) / run_s, "1/s");
    report.Add("staleness_p50_ticks", out.p50, "ticks");
    report.Add("staleness_p99_ticks", out.p99, "ticks");
    report.Add("maint_msgs_per_update", out.MaintMsgsPerUpdate(), "count");
    report.Add("verdict_s", run_s, "s");
    return report;
  }

  report.Gate(traced_same,
              "traced deployment reproduces the untraced outputs exactly");
  // Per-layer figures come from the traced pass with the median wall time,
  // so its spans and residual add up to that wall time exactly.
  std::vector<size_t> order;
  for (size_t i = 1; i < traced.size(); ++i) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return traced[a].run_s < traced[b].run_s;
  });
  const Pass& t = traced[order[order.size() / 2]];
  const Spans& s = t.spans;
  // Self times exclude nested spans, so they can only fit inside the wall
  // time if nothing was counted twice; the residual closes the sum.
  const double residual = t.run_s - s.total_self();
  report.Gate(residual >= 0.0,
              "per-layer self times fit in the traced wall time; with "
              "sim.residual_s they sum to it");
  // Each traced pass runs right after an untraced one, so the ratio within
  // a pair cancels slow drift in the host's speed.
  std::vector<double> overhead;
  for (size_t i : order) {
    overhead.push_back(traced[i].run_s / plain[i].run_s - 1.0);
  }

  const Outputs& to = t.out;
  report.Add("core.busy_s", s.self(kCore), "s");
  report.Add("core.msgs", static_cast<double>(s.calls(kCore)), "count");
  report.Add("core.compensations", static_cast<double>(to.compensations),
             "count");
  report.Add("source.query_busy_s", s.self(kSourceQuery), "s");
  report.Add("source.queries", static_cast<double>(s.calls(kSourceQuery)),
             "count");
  report.Add("source.commit_busy_s", s.self(kSourceCommit), "s");
  report.Add("storage.index_probes",
             static_cast<double>(to.storage.index_probes), "count");
  report.Add("storage.index_matches",
             static_cast<double>(to.storage.index_matches), "count");
  report.Add("storage.scan_fallbacks",
             static_cast<double>(to.storage.scan_fallbacks), "count");
  report.Add("shard.router_busy_s", s.self(kRouter), "s");
  report.Add("shard.batch_busy_s", s.self(kBatch), "s");
  report.Add("shard.foreign_discards",
             static_cast<double>(to.foreign_discards), "count");
  report.Add("shard.batches_flushed",
             static_cast<double>(to.batches_flushed), "count");
  report.Add("sim.residual_s", residual, "s");
  report.Add("sim.events", static_cast<double>(to.events), "count");
  report.Add("sim.msgs", static_cast<double>(to.net.TotalMessages()),
             "count");
  report.Add("sim.payload_tuples", static_cast<double>(to.net.TotalPayload()),
             "count");
  report.Add("trace.overhead_frac", Median(overhead), "frac");
  report.Add("workload.gen_s", Median(gen), "s");
  report.Add("relational.eval_full_s", eval_full_s, "s");
  return report;
}

}  // namespace

Report RunIngestPerUpdate(const RunOptions& options) {
  return RunIngest(options, IngestShape{50'000, 6'000.0}, /*sharded=*/false);
}

Report RunIngestBatchedSharded(const RunOptions& options) {
  return RunIngest(options, IngestShape{150'000, 5'000.0}, /*sharded=*/true);
}

}  // namespace perfbench
