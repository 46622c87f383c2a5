// Bag relations with signed multiplicity counts.
//
// This is the core algebraic object of the reproduction. Following the
// paper (Section 2) and the counting algorithm of Gupta–Mumick–Subrahmanian
// [GMS93], a relation maps each distinct tuple to a signed 64-bit count:
//
//   * A base relation or materialized view has strictly positive counts
//     ("in how many ways can this tuple be derived").
//   * A delta (ΔR, ΔV) uses positive counts for insertions and negative
//     counts for deletions; a modify is a delete plus an insert.
//
// Joins multiply counts, projection sums them, and applying a delta adds
// counts and erases zeros. This algebra is what makes SWEEP's *local*
// compensation sound, e.g. {-(2,3)} ⋈ {-(3,7,8)} = {+(2,3,7,8)} in the
// paper's Section 5.2 walk-through.
//
// Storage: each relation keeps its (row, count) pairs in one CountTable, a
// flat open-addressing table with no per-entry node. Rows sit densely in
// one word array, [hash, count, cell 0 .. cell k-1] per row, and the hash
// slots hold row numbers. Every row of a table has the same column types
// (the relation's schema), so a row stores only cells. Copying a relation
// copies two word arrays.
//
// Row numbers are dense, 0 .. DistinctSize()-1, and are the table's
// iteration order. Erasing row r moves the last row into r; nothing else
// moves. That order is an artefact of the mutation history: anything that
// reaches an output must use SortedEntries() or an order-insensitive fold.

#ifndef SWEEPMV_RELATIONAL_RELATION_H_
#define SWEEPMV_RELATIONAL_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"

namespace sweepmv {

class CountTable {
 public:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  // Iteration yields (tuple, count) pairs built from the stored rows, in
  // row order (see the header comment: not an output order).
  class const_iterator {
   public:
    using value_type = std::pair<Tuple, int64_t>;
    struct Arrow {
      value_type entry;
      const value_type* operator->() const { return &entry; }
    };
    const_iterator(const CountTable* table, uint32_t row)
        : table_(table), row_(row) {}
    value_type operator*() const {
      return {table_->TupleAt(row_), table_->count(row_)};
    }
    Arrow operator->() const { return Arrow{**this}; }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return row_ == o.row_; }
    bool operator!=(const const_iterator& o) const { return row_ != o.row_; }

   private:
    const CountTable* table_;
    uint32_t row_;
  };

  CountTable() = default;
  // A table whose rows have the column types of `shape`.
  explicit CountTable(const Schema& shape) { SetShape(shape); }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, rows_); }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  // Row shape. A table built without a shape takes the shape of its first
  // row (and again whenever it is empty).
  size_t width() const { return width_; }
  const ValueType* types() const { return shape_.types(); }
  bool Fits(const Tuple& t) const;

  // Row access, for 0 <= row < size().
  size_t hash(uint32_t row) const { return Row(row)[0]; }
  int64_t count(uint32_t row) const {
    return static_cast<int64_t>(Row(row)[1]);
  }
  const Cell* cells(uint32_t row) const { return Row(row) + 2; }
  Tuple TupleAt(uint32_t row) const {
    return Tuple::FromCells(cells(row), types(), width_, hash(row));
  }

  // The row holding `t`, or kNoRow.
  uint32_t Find(const Tuple& t) const {
    return Fits(t) ? FindCells(t.Hash(), t.cells()) : kNoRow;
  }
  // The row holding exactly these cells (of this table's shape), or kNoRow.
  uint32_t FindCells(size_t hash, const Cell* cells) const;

  // Appends a row that is not present; returns its number (the old size).
  // Adopts t's shape when the table has none; otherwise t must fit.
  uint32_t Append(const Tuple& t, int64_t count);
  uint32_t AppendCells(size_t hash, const Cell* cells, int64_t count);
  void SetCount(uint32_t row, int64_t count) {
    MutableRow(row)[1] = static_cast<uint64_t>(count);
  }
  // Removes `row`; the last row takes its number.
  void Erase(uint32_t row);

  // Row numbers ordered by tuple (Tuple::operator<).
  std::vector<uint32_t> SortedRows() const;

  // Fixes the row shape to `shape`'s column types (no-op for the empty
  // schema). A table without a fixed shape adopts the shape of whatever
  // fills it while empty (AdoptShape).
  void SetShape(const Schema& shape);
  bool fixed_shape() const { return fixed_shape_; }
  void AdoptShape(const ValueType* types, size_t width);
  bool SameShape(const CountTable& other) const;

 private:
  size_t stride() const { return width_ + 2; }
  const uint64_t* Row(uint32_t row) const {
    return data_.data() + static_cast<size_t>(row) * stride();
  }
  uint64_t* MutableRow(uint32_t row) {
    return data_.data() + static_cast<size_t>(row) * stride();
  }
  bool CellsEqual(const Cell* a, const Cell* b) const;
  bool RowLess(uint32_t a, uint32_t b) const;
  // Slot of `row` in slots_ (which must be in use).
  size_t SlotOf(uint32_t row) const;
  void InsertSlot(size_t hash, uint32_t row);
  void RebuildSlots(size_t capacity);

  Schema shape_;        // column types of every row (names unused)
  uint32_t width_ = 0;  // cells per row
  bool fixed_shape_ = false;
  bool has_double_ = false;  // doubles compare by value, not bits
  uint32_t rows_ = 0;
  std::vector<uint64_t> data_;  // rows_ * stride() words
  // Empty while the table is small enough to scan; otherwise a power-of-
  // two open-addressing table with linear probing and load at most 1/2.
  // A slot is 0 (free) or (tag << 32 | row + 1), where tag is the upper
  // half of the mixed hash and its top bits are the home slot.
  std::vector<uint64_t> slots_;
  int slot_bits_ = 0;
};

class Relation {
 public:
  static constexpr uint32_t kNoRow = CountTable::kNoRow;

  Relation() = default;
  explicit Relation(Schema schema)
      : schema_(std::move(schema)), table_(schema_) {}

  // Builds a positive-count relation from a list of all-int tuples; the
  // dominant shape in tests and the paper's examples.
  static Relation OfInts(Schema schema,
                         std::initializer_list<std::initializer_list<int64_t>>
                             rows);

  const Schema& schema() const { return schema_; }

  // Adds `count` occurrences of `t` (negative to delete). Erases the entry
  // if the resulting count is zero. The tuple must match the schema.
  void Add(const Tuple& t, int64_t count = 1);

  // Count of `t` (0 if absent).
  int64_t CountOf(const Tuple& t) const;

  bool Contains(const Tuple& t) const { return CountOf(t) != 0; }

  // True if no tuple has a nonzero count.
  bool Empty() const { return table_.empty(); }

  // Number of distinct tuples with nonzero count.
  size_t DistinctSize() const { return table_.size(); }

  // Sum of counts (can be negative for deltas).
  int64_t TotalCount() const;

  // Sum of |count| — the "payload volume" a message carrying this relation
  // represents.
  int64_t AbsoluteCount() const;

  // True if any tuple has a negative count (a view in a consistent state
  // never does; deltas routinely do).
  bool HasNegative() const;

  // True if any tuple of `touched` has a negative count here. After
  // merging a delta into a relation that had no negative count, this over
  // the delta is the same check as HasNegative() in O(|delta|).
  bool HasNegativeAmong(const Relation& touched) const;

  // Adds every (tuple, count) of `other` into this relation. Schemas must
  // agree on arity/types.
  void Merge(const Relation& other);

  // Subtracts: Merge with all of `other`'s counts negated.
  void MergeNegated(const Relation& other);

  // Returns a copy with all counts negated.
  Relation Negated() const;

  // Removes every tuple whose projection onto `positions` equals `key`.
  // This is the "key delete" primitive the Strobe family relies on.
  // Returns the number of distinct tuples removed.
  size_t EraseMatching(const std::vector<int>& positions, const Tuple& key);

  // Clamps every count to at most 1 (set semantics; used by the Strobe
  // family, which assumes unique keys and suppresses duplicates).
  void ClampToSet();

  const CountTable& entries() const { return table_; }

  // Row-level mutation for the storage layer's maintained indexes
  // (src/storage/), which key on row numbers. AppendRow adds an absent
  // tuple as row DistinctSize(). AddToRow erases the row when its count
  // reaches zero, which moves the last row into its number.
  uint32_t FindRow(const Tuple& t) const { return table_.Find(t); }
  uint32_t AppendRow(const Tuple& t, int64_t count);
  void AddToRow(uint32_t row, int64_t count);

  // Deterministic (sorted by tuple) snapshot of the entries; use for
  // display and for order-insensitive comparisons in tests.
  std::vector<std::pair<Tuple, int64_t>> SortedEntries() const;

  // Two relations are equal iff they hold the same tuple->count map.
  // (Schema attribute names are display metadata and not compared.)
  bool operator==(const Relation& other) const;
  bool operator!=(const Relation& other) const { return !(*this == other); }

  // "{(1,3)[1], (2,3)[2]}" — counts in brackets as in the paper's Figure 5.
  std::string ToDisplayString() const;

 private:
  void CheckSchema(const Tuple& t) const;
  // Adds sign × every count of `other`.
  void MergeScaled(const Relation& other, int64_t sign);

  Schema schema_;
  CountTable table_;
};

std::ostream& operator<<(std::ostream& os, const Relation& r);

class StateHasher;

// Absorbs `rel` into a state fingerprint in sorted-tuple order (see
// common/fingerprint.h) — the canonical form every interleaving agrees on.
void AbsorbRelation(StateHasher& h, const char* tag, const Relation& rel);

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_RELATION_H_
