// Randomized equivalence of the flat relation substrate (CountTable behind
// Relation, and the row-number HashIndex behind IndexedRelation) against a
// reference model: an ordered std::map from value vectors to counts.
//
// Tuples mix int, double and string columns. Streams grow tables past the
// scan-only size and past several slot doublings, then delete back to
// empty, so every table path runs: scan lookup, slotted lookup, backward-
// shift deletion, the last-row move on erase, and shrinking.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "relational/relation.h"
#include "storage/indexed_relation.h"

namespace sweepmv {
namespace {

using Model = std::map<std::vector<Value>, int64_t>;

Schema Mixed() {
  return Schema({Attribute{"I", ValueType::kInt},
                 Attribute{"D", ValueType::kDouble},
                 Attribute{"S", ValueType::kString}});
}

// Small domains so that the streams revisit tuples. 0.0 and -0.0 are one
// value (they compare equal), as are all copies of one string.
Tuple RandomTuple(Rng& rng, int64_t int_domain) {
  static const double kDoubles[] = {0.0, -0.0, 1.5, -2.25, 1e9};
  static const char* kStrings[] = {"a", "bb", "ccc", "", "dddd"};
  return Tuple({Value(rng.Uniform(0, int_domain - 1)),
                Value(kDoubles[rng.Uniform(0, 4)]),
                Value(kStrings[rng.Uniform(0, 4)])});
}

void ModelAdd(Model& model, const Tuple& t, int64_t count) {
  auto [it, inserted] = model.try_emplace(t.values(), count);
  if (!inserted) {
    it->second += count;
    if (it->second == 0) model.erase(it);
  }
}

// Everything observable about `rel` matches `model`.
void ExpectMatches(const Relation& rel, const Model& model) {
  ASSERT_EQ(rel.DistinctSize(), model.size());
  ASSERT_EQ(rel.Empty(), model.empty());
  int64_t total = 0;
  int64_t absolute = 0;
  bool negative = false;
  for (const auto& [values, count] : model) {
    EXPECT_EQ(rel.CountOf(Tuple(values)), count);
    total += count;
    absolute += count < 0 ? -count : count;
    negative = negative || count < 0;
  }
  EXPECT_EQ(rel.TotalCount(), total);
  EXPECT_EQ(rel.AbsoluteCount(), absolute);
  EXPECT_EQ(rel.HasNegative(), negative);
  // The map iterates in Value order: the canonical order.
  const auto sorted = rel.SortedEntries();
  ASSERT_EQ(sorted.size(), model.size());
  size_t i = 0;
  for (const auto& [values, count] : model) {
    EXPECT_EQ(sorted[i].first.values(), values);
    EXPECT_EQ(sorted[i].second, count);
    ++i;
  }
  // Iteration visits every row once, whatever its order.
  size_t seen = 0;
  for (const auto& [t, c] : rel.entries()) {
    auto it = model.find(t.values());
    ASSERT_NE(it, model.end()) << t.ToDisplayString();
    EXPECT_EQ(it->second, c);
    ++seen;
  }
  EXPECT_EQ(seen, model.size());
}

TEST(CountTableTest, RandomStreamMatchesOrderedMap) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Relation rel(Mixed());
    Model model;
    for (int step = 0; step < 6000; ++step) {
      const Tuple t = RandomTuple(rng, 40);
      int64_t count = rng.Uniform(-3, 3);
      if (count == 0) count = 1;
      rel.Add(t, count);
      ModelAdd(model, t, count);
      if (step % 500 == 0) ExpectMatches(rel, model);
    }
    ExpectMatches(rel, model);
  }
}

TEST(CountTableTest, GrowthThenDeletionBackToEmpty) {
  Rng rng(7);
  Relation rel(Mixed());
  Model model;
  // Distinct ints: thousands of rows, many slot doublings.
  for (int64_t i = 0; i < 5000; ++i) {
    const Tuple t({Value(i), Value(0.5 * static_cast<double>(i % 7)),
                   Value(i % 3 == 0 ? "x" : "y")});
    rel.Add(t, 1 + i % 4);
    ModelAdd(model, t, 1 + i % 4);
  }
  ExpectMatches(rel, model);
  // Delete everything in a shuffled order; check at several sizes,
  // including below the scan-only threshold.
  std::vector<std::pair<std::vector<Value>, int64_t>> all(model.begin(),
                                                          model.end());
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[static_cast<size_t>(rng.Uniform(
                              0, static_cast<int64_t>(i) - 1))]);
  }
  for (size_t i = 0; i < all.size(); ++i) {
    rel.Add(Tuple(all[i].first), -all[i].second);
    ModelAdd(model, Tuple(all[i].first), -all[i].second);
    const size_t left = all.size() - i - 1;
    if (left % 997 == 0 || left < 12) ExpectMatches(rel, model);
  }
  EXPECT_TRUE(rel.Empty());
  EXPECT_EQ(rel, Relation(Mixed()));
}

TEST(CountTableTest, CopyAssignAndEquality) {
  Rng rng(11);
  Relation a(Mixed());
  for (int i = 0; i < 300; ++i) a.Add(RandomTuple(rng, 50), rng.Uniform(1, 3));
  Relation copy = a;
  EXPECT_EQ(copy, a);
  copy.Add(RandomTuple(rng, 50), 1);
  EXPECT_NE(copy, a);

  // Equality ignores insertion order (and therefore row order).
  Relation b(Mixed());
  const auto sorted = a.SortedEntries();
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    b.Add(it->first, it->second);
  }
  EXPECT_EQ(a, b);

  Relation assigned(Mixed());
  assigned.Add(RandomTuple(rng, 50), 5);
  assigned = a;
  EXPECT_EQ(assigned, a);
  assigned = Relation(Mixed());
  EXPECT_TRUE(assigned.Empty());
  EXPECT_NE(assigned, a);

  // A copy is independent of its source.
  Relation source = a;
  Relation snapshot = source;
  for (const auto& [t, c] : a.SortedEntries()) source.Add(t, -c);
  EXPECT_TRUE(source.Empty());
  EXPECT_EQ(snapshot, a);
}

TEST(CountTableTest, NegatedEraseMatchingAndClampMatchModel) {
  Rng rng(13);
  Relation rel(Mixed());
  Model model;
  for (int i = 0; i < 2000; ++i) {
    const Tuple t = RandomTuple(rng, 30);
    const int64_t count = rng.Bernoulli(0.3) ? -2 : 3;
    rel.Add(t, count);
    ModelAdd(model, t, count);
  }

  Model negated;
  for (const auto& [values, count] : model) negated[values] = -count;
  ExpectMatches(rel.Negated(), negated);

  // Key-delete on the int column, then on the (int, string) pair.
  for (int64_t key = 0; key < 30; key += 4) {
    size_t expected = 0;
    for (auto it = model.begin(); it != model.end();) {
      if (it->first[0] == Value(key)) {
        it = model.erase(it);
        ++expected;
      } else {
        ++it;
      }
    }
    EXPECT_EQ(rel.EraseMatching({0}, Tuple({Value(key)})), expected);
    ExpectMatches(rel, model);
  }
  {
    const Tuple key({Value(int64_t{5}), Value("bb")});
    size_t expected = 0;
    for (auto it = model.begin(); it != model.end();) {
      if (it->first[0] == key.at(0) && it->first[2] == key.at(1)) {
        it = model.erase(it);
        ++expected;
      } else {
        ++it;
      }
    }
    EXPECT_EQ(rel.EraseMatching({0, 2}, key), expected);
    ExpectMatches(rel, model);
  }

  rel.ClampToSet();
  for (auto& [values, count] : model) count = std::min<int64_t>(count, 1);
  ExpectMatches(rel, model);
}

TEST(CountTableTest, MergeAndMergeNegatedMatchModel) {
  Rng rng(17);
  Relation acc(Mixed());
  Model model;
  for (int round = 0; round < 40; ++round) {
    Relation delta(Mixed());
    const int rows = static_cast<int>(rng.Uniform(1, 60));
    for (int i = 0; i < rows; ++i) {
      delta.Add(RandomTuple(rng, 25), rng.Uniform(1, 2));
    }
    const bool negate = rng.Bernoulli(0.4);
    for (const auto& [t, c] : delta.SortedEntries()) {
      ModelAdd(model, t, negate ? -c : c);
    }
    if (negate) {
      acc.MergeNegated(delta);
    } else {
      acc.Merge(delta);
    }
    ExpectMatches(acc, model);
  }
  // Merging a relation into itself doubles every count; subtracting it
  // from itself empties it.
  Relation doubled = acc;
  doubled.Merge(doubled);
  for (auto& [values, count] : model) count *= 2;
  ExpectMatches(doubled, model);
  doubled.MergeNegated(doubled);
  EXPECT_TRUE(doubled.Empty());
}

// ---------------------------------------------------------------------------
// HashIndex over row numbers: probes equal a scan after every kind of
// mutation the store sees.

std::vector<uint32_t> ProbeRows(const IndexedRelation& store,
                                const HashIndex& index, const Tuple& key) {
  std::vector<uint32_t> rows;
  for (uint32_t row : index.Probe(store.relation(), key)) rows.push_back(row);
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectProbesEqualScan(const IndexedRelation& store,
                           const std::vector<int>& key_positions) {
  const HashIndex* index = store.FindIndex(key_positions);
  ASSERT_NE(index, nullptr);
  const CountTable& table = store.relation().entries();
  std::map<std::vector<Value>, std::vector<uint32_t>> scan;
  for (uint32_t row = 0; row < table.size(); ++row) {
    scan[table.TupleAt(row).Project(key_positions).values()].push_back(row);
  }
  for (const auto& [key, rows] : scan) {
    EXPECT_EQ(ProbeRows(store, *index, Tuple(key)), rows);
  }
  EXPECT_EQ(index->distinct_keys(), scan.size());
  // A key that no row carries probes to nothing.
  std::vector<Value> absent;
  for (size_t i = 0; i < key_positions.size(); ++i) {
    absent.push_back(table.types()[key_positions[i]] == ValueType::kString
                         ? Value("absent")
                         : table.types()[key_positions[i]] ==
                                   ValueType::kDouble
                               ? Value(12345.5)
                               : Value(int64_t{-99}));
  }
  EXPECT_TRUE(index->Probe(store.relation(), Tuple(absent)).empty());
}

TEST(CountTableTest, IndexProbesEqualScanUnderInterleavedMutations) {
  const std::vector<std::vector<int>> keys = {{0}, {2}, {0, 1}};
  for (uint64_t seed : {5u, 6u}) {
    Rng rng(seed);
    IndexedRelation store{Relation(Mixed())};
    for (const auto& key : keys) store.EnsureIndex(key);
    Relation shadow(Mixed());
    Relation snapshot(Mixed());
    for (int step = 0; step < 8000; ++step) {
      // Phases: grow on a wide int domain, then churn on a narrow one.
      const int64_t domain = step < 3000 ? 400 : 20;
      const Tuple t = RandomTuple(rng, domain);
      int64_t count = rng.Uniform(1, 2);
      if (shadow.Contains(t) && rng.Bernoulli(0.55)) {
        count = -shadow.CountOf(t);  // erase the row
      }
      store.Add(t, count);
      shadow.Add(t, count);
      if (step == 2500) snapshot = shadow;
      if (step % 1000 == 999) {
        ASSERT_EQ(store.relation(), shadow);
        for (const auto& key : keys) ExpectProbesEqualScan(store, key);
      }
      if (step == 4000) {
        store.RebuildIndexes();
        for (const auto& key : keys) ExpectProbesEqualScan(store, key);
      }
      if (step == 6000) {
        store.RestoreRelation(snapshot);
        shadow = snapshot;
        ASSERT_EQ(store.relation(), shadow);
        for (const auto& key : keys) ExpectProbesEqualScan(store, key);
      }
    }
    // Merge a whole delta, then delete everything.
    Relation delta(Mixed());
    for (int i = 0; i < 200; ++i) delta.Add(RandomTuple(rng, 60), 1);
    store.Merge(delta);
    shadow.Merge(delta);
    ASSERT_EQ(store.relation(), shadow);
    for (const auto& key : keys) ExpectProbesEqualScan(store, key);
    store.Merge(shadow.Negated());
    EXPECT_TRUE(store.relation().Empty());
    for (const auto& key : keys) {
      EXPECT_EQ(store.FindIndex(key)->distinct_keys(), 0u);
    }
  }
}

}  // namespace
}  // namespace sweepmv
