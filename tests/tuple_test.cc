#include "relational/tuple.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <unordered_set>

#include "relational/schema.h"
#include "shard/routing.h"

namespace sweepmv {
namespace {

TEST(TupleTest, ConstructionAndAccess) {
  Tuple t{Value(int64_t{1}), Value("x")};
  EXPECT_EQ(t.arity(), 2u);
  EXPECT_EQ(t.at(0).AsInt(), 1);
  EXPECT_EQ(t.at(1).AsString(), "x");
}

TEST(TupleTest, IntTupleHelper) {
  Tuple t = IntTuple({7, 8, 9});
  EXPECT_EQ(t.arity(), 3u);
  EXPECT_EQ(t.at(2).AsInt(), 9);
}

TEST(TupleTest, Concat) {
  Tuple a = IntTuple({1, 2});
  Tuple b = IntTuple({3});
  Tuple c = a.Concat(b);
  EXPECT_EQ(c, IntTuple({1, 2, 3}));
  // Originals untouched.
  EXPECT_EQ(a.arity(), 2u);
  EXPECT_EQ(b.arity(), 1u);
}

TEST(TupleTest, ConcatWithEmpty) {
  Tuple a = IntTuple({1, 2});
  Tuple empty;
  EXPECT_EQ(a.Concat(empty), a);
  EXPECT_EQ(empty.Concat(a), a);
}

TEST(TupleTest, ProjectReordersAndDuplicates) {
  Tuple t = IntTuple({10, 20, 30});
  EXPECT_EQ(t.Project({2, 0}), IntTuple({30, 10}));
  EXPECT_EQ(t.Project({1, 1}), IntTuple({20, 20}));
  EXPECT_EQ(t.Project({}), Tuple());
}

TEST(TupleTest, EqualityAndOrdering) {
  EXPECT_EQ(IntTuple({1, 2}), IntTuple({1, 2}));
  EXPECT_NE(IntTuple({1, 2}), IntTuple({1, 3}));
  EXPECT_NE(IntTuple({1, 2}), IntTuple({1, 2, 3}));
  EXPECT_LT(IntTuple({1, 2}), IntTuple({1, 3}));
  EXPECT_LT(IntTuple({1}), IntTuple({1, 0}));  // prefix sorts first
}

TEST(TupleTest, HashConsistency) {
  EXPECT_EQ(IntTuple({1, 2, 3}).Hash(), IntTuple({1, 2, 3}).Hash());
  std::unordered_set<Tuple, TupleHash> set;
  set.insert(IntTuple({1, 2}));
  set.insert(IntTuple({1, 2}));
  set.insert(IntTuple({2, 1}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(TupleTest, HashOrderSensitive) {
  EXPECT_NE(IntTuple({1, 2}).Hash(), IntTuple({2, 1}).Hash());
}

TEST(TupleTest, DisplayString) {
  EXPECT_EQ(IntTuple({1, 3}).ToDisplayString(), "(1,3)");
  EXPECT_EQ(Tuple().ToDisplayString(), "()");
}

// Shard ownership and batch affinity are derived from these hashes, and
// state fingerprints absorb them, so the storage layout must never change
// them. The constants were produced by the node-based substrate that
// preceded the flat table (libstdc++, 64-bit).
TEST(TupleTest, HashValuesArePinned) {
  EXPECT_EQ(Value(int64_t{0}).Hash(), 11400714819323198485ULL);
  EXPECT_EQ(Value(int64_t{-5}).Hash(), 2434343235958965544ULL);
  EXPECT_EQ(Value(int64_t{1} << 40).Hash(), 11400784363433655317ULL);
  EXPECT_EQ(Value(2.5).Hash(), 13582903881125006687ULL);
  EXPECT_EQ(IntTuple({1, 2, 3}).Hash(), 1794584416819240774ULL);
  EXPECT_EQ(IntTuple({7, 0, 7, 1, 2, 3, 4, 5, 6}).Hash(),
            9938983318585649416ULL);
  EXPECT_EQ(RoutingHashTuple({1}, IntTuple({4, 9, 2})),
            8354727482268033128ULL);
  EXPECT_EQ(RoutingHashTuple({}, IntTuple({4, 9, 2})),
            1370136803115452015ULL);
}

TEST(TupleTest, ValueIsTriviallyCopyable) {
  EXPECT_TRUE(std::is_trivially_copyable_v<Value>);
  EXPECT_EQ(sizeof(Value), 16u);
}

// Wider than the inline capacity: the heap spill keeps the same hash,
// equality, order, concatenation and projection semantics.
TEST(TupleTest, WideTuplesSpillToHeap) {
  std::vector<Value> wide;
  for (int64_t i = 0; i < 40; ++i) {
    if (i % 3 == 1) {
      wide.emplace_back(std::to_string(i));
    } else {
      wide.emplace_back(i);
    }
  }
  const Tuple t(wide);
  ASSERT_EQ(t.arity(), 40u);
  const Tuple copy = t;
  EXPECT_EQ(copy, t);
  EXPECT_EQ(copy.Hash(), t.Hash());
  Tuple moved = copy;
  Tuple target = IntTuple({1});
  target = std::move(moved);
  EXPECT_EQ(target, t);
  EXPECT_EQ(t.values(), wide);
  // Concatenating two halves rebuilds the same tuple, hash included.
  std::vector<int> front(20);
  std::vector<int> back(20);
  for (int i = 0; i < 20; ++i) {
    front[static_cast<size_t>(i)] = i;
    back[static_cast<size_t>(i)] = 20 + i;
  }
  const Tuple joined = t.Project(front).Concat(t.Project(back));
  EXPECT_EQ(joined, t);
  EXPECT_EQ(joined.Hash(), t.Hash());
  // The type signature folds column 33 onto column 1. Swapping their
  // types keeps the signature, and the schema check still tells them
  // apart.
  std::vector<Attribute> attrs;
  for (const Value& v : wide) attrs.push_back(Attribute{"c", v.type()});
  const Schema schema(attrs);
  EXPECT_TRUE(schema.Matches(t));
  std::vector<Value> swapped = wide;
  swapped[1] = Value(int64_t{1});  // was a string
  swapped[33] = Value("33");       // was an int
  const Tuple other(swapped);
  EXPECT_EQ(other.signature(), t.signature());
  EXPECT_FALSE(schema.Matches(other));
  EXPECT_NE(other, t);
}

}  // namespace
}  // namespace sweepmv
