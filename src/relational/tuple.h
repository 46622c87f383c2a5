// Tuples: fixed-arity sequences of Values.
//
// A tuple stores its cells (the 8-byte Value payloads) and one type tag per
// column inline, with no heap allocation up to kInlineArity columns, which
// covers a 4-relation chain of 3-column relations. Wider tuples spill to
// one heap block. Two derived facts are computed once at construction: the
// hash, and a type signature that packs the column types into one word, so
// that the schema check on every Relation::Add is a word compare.

#ifndef SWEEPMV_RELATIONAL_TUPLE_H_
#define SWEEPMV_RELATIONAL_TUPLE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "relational/value.h"

namespace sweepmv {

// Type signature of a column-type list: two bits per column, folded every
// 32 columns. It is exact up to 32 columns; beyond that a matching
// signature must be confirmed column by column (see TypesMatch).
uint64_t TypeSignature(const ValueType* types, size_t arity);

// True if the two type lists of length `arity` with signatures `sig_a` and
// `sig_b` are equal. O(1) up to 32 columns.
bool TypesMatch(const ValueType* a, uint64_t sig_a, const ValueType* b,
                uint64_t sig_b, size_t arity);

class Tuple {
 public:
  static constexpr size_t kInlineArity = 12;

  Tuple() = default;
  explicit Tuple(const std::vector<Value>& values);
  Tuple(std::initializer_list<Value> values);

  // Builds a tuple from stored cells, their column types and their
  // precomputed hash (relation rows keep all three).
  static Tuple FromCells(const Cell* cells, const ValueType* types,
                         size_t arity, size_t hash);

  Tuple(const Tuple& other);
  Tuple(Tuple&& other) noexcept;
  Tuple& operator=(const Tuple& other);
  Tuple& operator=(Tuple&& other) noexcept;
  ~Tuple() { Release(); }

  size_t arity() const { return arity_; }
  Value at(size_t i) const;
  std::vector<Value> values() const;

  const Cell* cells() const {
    return on_heap() ? heap_.cells : inline_cells_;
  }
  const ValueType* types() const {
    return on_heap() ? heap_.types : inline_types_;
  }
  uint64_t signature() const { return sig_; }

  // Concatenation of this tuple followed by `other` (used by joins).
  Tuple Concat(const Tuple& other) const;

  // Projection onto the given attribute positions (order preserved,
  // duplicates allowed).
  Tuple Project(const std::vector<int>& positions) const;

  bool operator==(const Tuple& other) const;
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  // Lexicographic by Value order.
  bool operator<(const Tuple& other) const;

  // O(1): tuples are immutable, so the hash is computed once at
  // construction.
  size_t Hash() const { return hash_; }

  // "(1, 3, \"x\")"
  std::string ToDisplayString() const;

  // Hash of the empty tuple, and one step of the hash over a sequence of
  // value hashes: Hash() == fold of HashStep over the columns, starting
  // from kHashBasis. The relation table and the hash index use it to hash
  // stored cells and key projections without building a Tuple.
  static constexpr size_t kHashBasis = 0xcbf29ce484222325ULL;
  static size_t HashStep(size_t h, size_t value_hash) {
    return h ^ (value_hash + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  }

 private:
  // Sets arity and storage (inline, or heap arrays past kInlineArity);
  // contents are left for the caller to fill.
  void Allocate(size_t arity);
  void Release();
  // Takes other's contents; leaves it empty.
  void TakeFrom(Tuple& other);
  void CopyInline(const Tuple& other);
  bool on_heap() const { return arity_ > kInlineArity; }
  Cell* mutable_cells() { return on_heap() ? heap_.cells : inline_cells_; }
  ValueType* mutable_types() {
    return on_heap() ? heap_.types : inline_types_;
  }
  // Computes hash_ and sig_ from the filled cells and types.
  void Seal();

  friend Tuple IntTuple(std::initializer_list<int64_t> ints);

  uint32_t arity_ = 0;
  ValueType inline_types_[kInlineArity];
  uint64_t sig_ = 0;
  size_t hash_ = kHashBasis;
  struct Heap {
    Cell* cells;
    ValueType* types;
  };
  union {
    Cell inline_cells_[kInlineArity];
    Heap heap_;  // when on_heap()
  };
};

// Convenience builder for all-integer tuples (the dominant case in tests
// and in the paper's examples).
Tuple IntTuple(std::initializer_list<int64_t> ints);

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

std::ostream& operator<<(std::ostream& os, const Tuple& t);

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_TUPLE_H_
