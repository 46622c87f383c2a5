// Experiment M1 — microbenchmarks of the relational substrate: the
// counted-bag operators every maintenance algorithm is built from.
//
//   $ ./relational_ops_bench

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "relational/operators.h"
#include "relational/partial_delta.h"
#include "relational/view_def.h"
#include "workload/schema_gen.h"

namespace sweepmv {
namespace {

Relation RandomRelation(int64_t rows, int64_t join_domain, uint64_t seed) {
  Rng rng(seed);
  Relation r(Schema::AllInts({"K", "A", "B"}));
  for (int64_t i = 0; i < rows; ++i) {
    r.Add(IntTuple({i, rng.Uniform(0, join_domain - 1),
                    rng.Uniform(0, join_domain - 1)}),
          1);
  }
  return r;
}

void BM_RelationAdd(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(1);
  std::vector<Tuple> tuples;
  tuples.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    tuples.push_back(IntTuple({i, rng.Uniform(0, 99), rng.Uniform(0, 99)}));
  }
  for (auto _ : state) {
    Relation r(Schema::AllInts({"K", "A", "B"}));
    for (const Tuple& t : tuples) r.Add(t, 1);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_RelationAdd)->Arg(256)->Arg(4096)->Arg(65536);

void BM_HashJoin(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t domain = state.range(1);
  Relation left = RandomRelation(rows, domain, 1);
  Relation right = RandomRelation(rows, domain, 2);
  for (auto _ : state) {
    Relation out = Join(left, right, {{2, 1}});
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_HashJoin)
    ->Args({256, 16})
    ->Args({4096, 64})
    ->Args({4096, 1024})
    ->Args({16384, 256});

void BM_DeltaJoin(benchmark::State& state) {
  // The sweep-hot shape: a small delta joined against a large base.
  const int64_t base_rows = state.range(0);
  Relation base = RandomRelation(base_rows, 64, 3);
  Relation delta(Schema::AllInts({"K", "A", "B"}));
  Rng rng(4);
  for (int i = 0; i < 4; ++i) {
    delta.Add(IntTuple({1000000 + i, rng.Uniform(0, 63),
                        rng.Uniform(0, 63)}),
              i % 2 == 0 ? 1 : -1);
  }
  for (auto _ : state) {
    Relation out = Join(delta, base, {{2, 1}});
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * base_rows);
}
BENCHMARK(BM_DeltaJoin)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_Project(benchmark::State& state) {
  Relation r = RandomRelation(state.range(0), 32, 5);
  std::vector<int> cols = {1, 2};
  for (auto _ : state) {
    Relation out = Project(r, cols);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Project)->Arg(4096)->Arg(65536);

void BM_Select(benchmark::State& state) {
  Relation r = RandomRelation(state.range(0), 32, 6);
  Predicate pred =
      Predicate::AttrCmpConst(1, CmpOp::kLt, Value(int64_t{16}));
  for (auto _ : state) {
    Relation out = Select(r, pred);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Select)->Arg(4096)->Arg(65536);

void BM_MergeDelta(benchmark::State& state) {
  Relation base = RandomRelation(state.range(0), 32, 7);
  Relation delta = RandomRelation(256, 32, 8);
  for (auto _ : state) {
    Relation v = base;
    v.Merge(delta);
    v.MergeNegated(delta);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_MergeDelta)->Arg(4096)->Arg(65536);

// The install path of the sharded ingest workload: arity-9 full-span
// rows over a 3-relation chain with the identity projection.
ViewDef WideChainView() {
  ChainSpec spec;
  spec.num_relations = 3;
  return MakeChainView(spec);
}

Relation RandomWideRelation(const ViewDef& view, int64_t rows,
                            uint64_t seed) {
  Rng rng(seed);
  Relation r(view.joined_schema());
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> values;
    values.emplace_back(i);
    for (size_t c = 1; c < view.joined_schema().arity(); ++c) {
      values.emplace_back(rng.Uniform(0, 63));
    }
    r.Add(Tuple(values), 1);
  }
  return r;
}

// A signed delta against `view`: half deletes of present rows, half
// inserts of new ones.
Relation SignedDelta(const ViewDef& view_def, const Relation& view,
                     int64_t rows, uint64_t seed) {
  Relation delta(view_def.joined_schema());
  const auto present = view.SortedEntries();
  Relation fresh = RandomWideRelation(view_def, rows, seed);
  int64_t i = 0;
  for (const auto& [t, c] : fresh.SortedEntries()) {
    if (i % 2 == 0 && static_cast<size_t>(i) < present.size()) {
      delta.Add(present[static_cast<size_t>(i)].first, -1);
    } else {
      std::vector<Value> values = t.values();
      values[0] = Value(int64_t{1000000} + i);
      delta.Add(Tuple(values), 1);
    }
    ++i;
  }
  return delta;
}

void BM_SignedDeltaMerge(benchmark::State& state) {
  // Install: merge a signed arity-9 delta into a large view, then its
  // negation, so the view is the same at every iteration.
  const ViewDef view_def = WideChainView();
  Relation view = RandomWideRelation(view_def, state.range(0), 11);
  const Relation delta = SignedDelta(view_def, view, state.range(1), 12);
  for (auto _ : state) {
    view.Merge(delta);
    view.MergeNegated(delta);
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(1));
}
BENCHMARK(BM_SignedDeltaMerge)
    ->Args({50000, 570})
    ->Args({5000, 570})
    ->Args({300, 10});

void BM_FinishFullSpanIdentity(benchmark::State& state) {
  // TRUE selection and identity projection: the span is the view delta.
  // Each iteration copies the span first, as a caller that keeps it would.
  const ViewDef view_def = WideChainView();
  const Relation span = RandomWideRelation(view_def, state.range(0), 13);
  for (auto _ : state) {
    Relation copy = span;
    Relation out = view_def.FinishFullSpan(std::move(copy));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FinishFullSpanIdentity)->Arg(10)->Arg(570)->Arg(50000);

void BM_RelationCopy(benchmark::State& state) {
  // Explorer snapshots and StateLog entries all copy relations; arity 3
  // is a base relation, arity 9 a full-span view.
  const ViewDef view_def = WideChainView();
  const Relation base = RandomRelation(state.range(0), 64, 14);
  const Relation wide = RandomWideRelation(view_def, state.range(0), 15);
  const Relation& r = state.range(1) == 3 ? base : wide;
  for (auto _ : state) {
    Relation copy = r;
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelationCopy)
    ->Args({1, 3})
    ->Args({300, 3})
    ->Args({50000, 3})
    ->Args({300, 9})
    ->Args({50000, 9});

void BM_FullViewEvaluation(benchmark::State& state) {
  // From-scratch SPJ evaluation over a chain — what the recompute
  // baseline pays per refresh and the checker pays per replay step.
  ChainSpec spec;
  spec.num_relations = static_cast<int>(state.range(0));
  spec.initial_tuples = static_cast<int>(state.range(1));
  // Unit expected fan-out: the result scales with the base size rather
  // than exploding geometrically along the chain.
  spec.join_domain = spec.initial_tuples;
  ViewDef view = MakeChainView(spec);
  std::vector<Relation> bases = MakeInitialBases(view, spec);
  std::vector<const Relation*> rels;
  for (const Relation& b : bases) rels.push_back(&b);
  for (auto _ : state) {
    Relation v = view.EvaluateFull(rels);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_FullViewEvaluation)
    ->Args({3, 128})
    ->Args({5, 128})
    ->Args({3, 1024})
    ->Args({5, 1024});

void BM_SweepExtension(benchmark::State& state) {
  // One sweep leg: extend a partial delta by one base relation.
  ChainSpec spec;
  spec.num_relations = 3;
  spec.initial_tuples = static_cast<int>(state.range(0));
  spec.join_domain = 16;
  ViewDef view = MakeChainView(spec);
  std::vector<Relation> bases = MakeInitialBases(view, spec);

  Relation delta(view.rel_schema(1));
  delta.Add(IntTuple({999999, 3, 4}), 1);
  PartialDelta pd = PartialDelta::ForRelation(view, 1, delta);
  for (auto _ : state) {
    PartialDelta left = ExtendLeft(view, bases[0], pd);
    PartialDelta both = ExtendRight(view, left, bases[2]);
    benchmark::DoNotOptimize(both);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SweepExtension)->Arg(128)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace sweepmv
