// Storage-engine unit and property tests: HashIndex row-chain maintenance,
// IndexedRelation invariants I1-I3 (see storage/indexed_relation.h), the
// IndexCatalog key-selection rule, and indexed-vs-scan equality of the
// ExtendLeft/ExtendRight query entry points.

#include "storage/indexed_relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "relational/partial_delta.h"
#include "relational/view_def.h"
#include "storage/index_catalog.h"
#include "storage/indexed_ops.h"
#include "test_util.h"

namespace sweepmv {
namespace {

Schema TwoCols() { return Schema::AllInts({"A", "B"}); }

// Probe results as row numbers, and the same set found by a scan.
std::vector<uint32_t> ProbeRows(const IndexedRelation& store,
                                const HashIndex& index, const Tuple& key) {
  std::vector<uint32_t> rows;
  for (uint32_t row : index.Probe(store.relation(), key)) rows.push_back(row);
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<uint32_t> ScanRows(const IndexedRelation& store,
                               const std::vector<int>& key_positions,
                               const Tuple& key) {
  std::vector<uint32_t> rows;
  const CountTable& table = store.relation().entries();
  for (uint32_t row = 0; row < table.size(); ++row) {
    if (table.TupleAt(row).Project(key_positions) == key) rows.push_back(row);
  }
  return rows;
}

// Recomputes what an index over `key` must contain and compares it key by
// key against the maintained one: every row's key probes to exactly the
// rows a scan finds, so no row is missing and no row number is stale.
void ExpectIndexConsistent(const IndexedRelation& store,
                           const std::vector<int>& key) {
  const HashIndex* index = store.FindIndex(key);
  ASSERT_NE(index, nullptr);
  std::set<Tuple> keys;
  for (const auto& [t, c] : store.relation().entries()) {
    const Tuple k = t.Project(key);
    keys.insert(k);
    EXPECT_EQ(ProbeRows(store, *index, k), ScanRows(store, key, k))
        << "key " << k.ToDisplayString();
  }
  EXPECT_EQ(index->distinct_keys(), keys.size());
}

TEST(HashIndexTest, InsertProbeErase) {
  IndexedRelation store{Relation(TwoCols())};
  store.EnsureIndex({1});
  store.Add(IntTuple({1, 7}));
  store.Add(IntTuple({2, 7}));
  store.Add(IntTuple({3, 8}));

  const HashIndex* index = store.FindIndex({1});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->distinct_keys(), 2u);
  const Relation& rel = store.relation();
  EXPECT_EQ(index->Probe(rel, IntTuple({7})).size(), 2u);
  EXPECT_TRUE(index->Probe(rel, IntTuple({9})).empty());

  // A count bump keeps the row; vanishing unlinks it from its key.
  store.Add(IntTuple({1, 7}));
  EXPECT_EQ(index->Probe(rel, IntTuple({7})).size(), 2u);
  store.Add(IntTuple({1, 7}), -2);
  EXPECT_EQ(index->Probe(rel, IntTuple({7})).size(), 1u);
  store.Add(IntTuple({2, 7}), -1);
  EXPECT_TRUE(index->Probe(rel, IntTuple({7})).empty());
  EXPECT_EQ(index->distinct_keys(), 1u);
}

TEST(IndexedRelationTest, EnsureIndexIsIdempotent) {
  IndexedRelation store{Relation(TwoCols())};
  store.EnsureIndex({1});
  store.EnsureIndex({1});
  EXPECT_EQ(store.num_indexes(), 1u);
  EXPECT_EQ(store.index_builds(), 1);
  store.EnsureIndex({0, 1});
  EXPECT_EQ(store.num_indexes(), 2u);
}

// I1 + I2: a random add/delete stream leaves relation() identical to an
// unindexed Relation fed the same stream, with every index consistent.
TEST(IndexedRelationTest, RandomStreamKeepsIndexesConsistent) {
  Rng rng(1234);
  IndexedRelation store{Relation(TwoCols())};
  store.EnsureIndex({0});
  store.EnsureIndex({1});
  Relation shadow(TwoCols());

  for (int step = 0; step < 2000; ++step) {
    Tuple t = IntTuple({rng.Uniform(0, 20), rng.Uniform(0, 5)});
    int64_t count;
    if (shadow.Contains(t) && rng.Bernoulli(0.5)) {
      // Delete up to the full multiplicity (never below zero, like a
      // base relation under real transactions).
      count = -rng.Uniform(1, shadow.CountOf(t));
    } else {
      count = rng.Uniform(1, 3);
    }
    store.Add(t, count);
    shadow.Add(t, count);
    if (step % 250 == 0) {
      ASSERT_EQ(store.relation(), shadow);
      ExpectIndexConsistent(store, {0});
      ExpectIndexConsistent(store, {1});
    }
  }
  EXPECT_EQ(store.relation(), shadow);
  ExpectIndexConsistent(store, {0});
  ExpectIndexConsistent(store, {1});
}

// I3: rebuilding from the relation (crash recovery) restores the same
// probe results as incremental maintenance produced.
TEST(IndexedRelationTest, RebuildMatchesIncrementalMaintenance) {
  Rng rng(99);
  IndexedRelation store{Relation(TwoCols())};
  store.EnsureIndex({1});
  for (int i = 0; i < 300; ++i) {
    // Signed counts are fine: indexes track every nonzero entry, delta
    // relations included.
    store.Add(IntTuple({rng.Uniform(0, 40), rng.Uniform(0, 6)}),
              rng.Bernoulli(0.3) ? -1 : 1);
  }
  // Snapshot probe results per key value.
  const HashIndex* index = store.FindIndex({1});
  std::vector<size_t> sizes_before;
  for (int64_t k = 0; k < 6; ++k) {
    sizes_before.push_back(
        index->Probe(store.relation(), IntTuple({k})).size());
  }
  const int64_t builds_before = store.index_builds();
  store.RebuildIndexes();
  EXPECT_EQ(store.index_builds(), builds_before + 1);
  index = store.FindIndex({1});
  for (int64_t k = 0; k < 6; ++k) {
    EXPECT_EQ(index->Probe(store.relation(), IntTuple({k})).size(),
              sizes_before[static_cast<size_t>(k)]);
  }
  ExpectIndexConsistent(store, {1});
}

TEST(IndexCatalogTest, ChainKeySelectionRule) {
  // Paper view: R1[A,B] ⋈(B=C) R2[C,D] ⋈(D=E) R3[E,F].
  ViewDef view = testing_util::PaperView();
  IndexCatalog catalog(view);
  // R1 is only ever a left-extension target: key = its side of B=C.
  ASSERT_EQ(catalog.key_sets(0).size(), 1u);
  EXPECT_EQ(catalog.key_sets(0)[0], (std::vector<int>{1}));
  // R2 serves both directions; both conditions land on distinct columns.
  ASSERT_EQ(catalog.key_sets(1).size(), 2u);
  EXPECT_EQ(catalog.key_sets(1)[0], (std::vector<int>{0}));  // right ext
  EXPECT_EQ(catalog.key_sets(1)[1], (std::vector<int>{1}));  // left ext
  // R3 is only ever a right-extension target.
  ASSERT_EQ(catalog.key_sets(2).size(), 1u);
  EXPECT_EQ(catalog.key_sets(2)[0], (std::vector<int>{0}));
}

TEST(IndexCatalogTest, DeduplicatesSharedKeyColumns) {
  // Interior relation whose two chain conditions use the same column.
  ViewDef view = ViewDef::Builder()
                     .AddRelation("R0", Schema::AllInts({"A", "B"}))
                     .AddRelation("R1", Schema::AllInts({"C"}))
                     .AddRelation("R2", Schema::AllInts({"D", "E"}))
                     .JoinOn(0, 1, 0)
                     .JoinOn(1, 0, 0)
                     .Build();
  IndexCatalog catalog(view);
  ASSERT_EQ(catalog.key_sets(1).size(), 1u);
  EXPECT_EQ(catalog.key_sets(1)[0], (std::vector<int>{0}));
}

TEST(IndexCatalogTest, CrossProductLinkYieldsNoKeySet) {
  ViewDef view = ViewDef::Builder()
                     .AddRelation("R0", Schema::AllInts({"A"}))
                     .AddRelation("R1", Schema::AllInts({"B"}))
                     .Build();
  IndexCatalog catalog(view);
  EXPECT_TRUE(catalog.key_sets(0).empty());
  EXPECT_TRUE(catalog.key_sets(1).empty());
}

// Indexed extension operators must be bit-identical to the scan path,
// including over deltas with negative counts.
TEST(IndexedOpsTest, ExtensionsMatchScanJoin) {
  ViewDef view = testing_util::PaperView();
  Rng rng(7);
  Relation r2(view.rel_schema(1));
  for (int i = 0; i < 200; ++i) {
    r2.Add(IntTuple({rng.Uniform(0, 8), rng.Uniform(0, 8)}),
           rng.Uniform(1, 2));
  }
  IndexedRelation store(r2);
  IndexCatalog catalog(view);
  for (const auto& key : catalog.key_sets(1)) store.EnsureIndex(key);

  // A mixed-sign ΔR1 sweeping right into R2.
  Relation delta(view.rel_schema(0));
  for (int i = 0; i < 10; ++i) {
    delta.Add(IntTuple({rng.Uniform(0, 4), rng.Uniform(0, 8)}),
              rng.Bernoulli(0.4) ? -1 : 1);
  }
  PartialDelta pd = PartialDelta::ForRelation(view, 0, delta);
  StorageStats stats;
  PartialDelta indexed = ExtendRightIndexed(view, pd, store, &stats);
  PartialDelta scanned = ExtendRight(view, pd, r2);
  EXPECT_EQ(indexed.rel, scanned.rel);
  EXPECT_EQ(indexed.lo, scanned.lo);
  EXPECT_EQ(indexed.hi, scanned.hi);
  EXPECT_EQ(stats.index_probes, 10);
  EXPECT_EQ(stats.scan_fallbacks, 0);

  // A ΔR3 sweeping left into R2.
  Relation delta3(view.rel_schema(2));
  for (int i = 0; i < 10; ++i) {
    delta3.Add(IntTuple({rng.Uniform(0, 8), rng.Uniform(0, 4)}),
              rng.Bernoulli(0.4) ? -1 : 1);
  }
  PartialDelta pd3 = PartialDelta::ForRelation(view, 2, delta3);
  StorageStats stats3;
  PartialDelta indexed3 = ExtendLeftIndexed(view, store, pd3, &stats3);
  PartialDelta scanned3 = ExtendLeft(view, r2, pd3);
  EXPECT_EQ(indexed3.rel, scanned3.rel);
  EXPECT_EQ(stats3.scan_fallbacks, 0);
  EXPECT_GT(stats3.index_matches + 1, 0);
}

TEST(IndexedOpsTest, MissingIndexFallsBackToScan) {
  ViewDef view = testing_util::PaperView();
  IndexedRelation store{
      Relation::OfInts(view.rel_schema(1), {{3, 7}, {4, 7}})};
  // No EnsureIndex call: the probe must fall back and still be right.
  PartialDelta pd = PartialDelta::ForRelation(
      view, 0, Relation::OfInts(view.rel_schema(0), {{1, 3}}));
  StorageStats stats;
  PartialDelta indexed = ExtendRightIndexed(view, pd, store, &stats);
  EXPECT_EQ(indexed.rel, ExtendRight(view, pd, store.relation()).rel);
  EXPECT_EQ(stats.scan_fallbacks, 1);
  EXPECT_EQ(stats.index_probes, 0);
}

}  // namespace
}  // namespace sweepmv
