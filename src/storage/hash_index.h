// A maintained multiset hash index over one key-column set of a Relation.
//
// The index maps a key (the projection of a stored tuple onto
// `key_positions`) to the rows of the relation carrying that key. It keys
// on the relation's row numbers (relation.h), never on addresses, so it
// copies no tuple payload and a probe always reads the live count:
//
//   * a flat open-addressing table maps each distinct key to the first row
//     of its chain; key equality is checked against that row's cells;
//   * next_/prev_ link the rows of one key into a doubly linked chain,
//     indexed by row number.
//
// The relation's rows move in exactly one way: erasing row r moves the
// last row into r. OnErase mirrors that move, so insert and erase are
// both O(1) amortized.
//
// The index is passive: it does not observe the relation by itself.
// IndexedRelation (indexed_relation.h) owns both and calls OnInsert /
// OnErase around every row change, keeping every maintained index
// consistent. Every method that reads keys takes the relation it indexes.

#ifndef SWEEPMV_STORAGE_HASH_INDEX_H_
#define SWEEPMV_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <vector>

#include "relational/relation.h"
#include "relational/tuple.h"

namespace sweepmv {

class HashIndex {
 public:
  static constexpr uint32_t kNoRow = Relation::kNoRow;

  // The rows of one key, as row numbers of the indexed relation. Valid
  // until the next mutation of the relation or the index.
  class Rows {
   public:
    class iterator {
     public:
      iterator(const std::vector<uint32_t>* next, uint32_t row)
          : next_(next), row_(row) {}
      uint32_t operator*() const { return row_; }
      iterator& operator++() {
        row_ = (*next_)[row_];
        return *this;
      }
      bool operator!=(const iterator& o) const { return row_ != o.row_; }

     private:
      const std::vector<uint32_t>* next_;
      uint32_t row_;
    };
    Rows(const std::vector<uint32_t>* next, uint32_t head)
        : next_(next), head_(head) {}
    iterator begin() const { return iterator(next_, head_); }
    iterator end() const { return iterator(next_, kNoRow); }
    bool empty() const { return head_ == kNoRow; }
    size_t size() const;

   private:
    const std::vector<uint32_t>* next_;
    uint32_t head_;
  };

  explicit HashIndex(std::vector<int> key_positions);

  const std::vector<int>& key_positions() const { return key_positions_; }

  // Row `row` (the relation's last row) was just appended. O(1) amortized.
  void OnInsert(const Relation& rel, uint32_t row);

  // Row `row` is about to be erased; the relation will then move its last
  // row into `row`. Must run before the relation changes. O(1).
  void OnErase(const Relation& rel, uint32_t row);

  // Rows whose key projection equals `key`; empty when none.
  Rows Probe(const Relation& rel, const Tuple& key) const;

  // Drops everything and re-inserts every row of `rel`. O(|rel|).
  void RebuildFrom(const Relation& rel);

  size_t distinct_keys() const { return keys_; }

 private:
  // Hash of row `row`'s key projection; equals the projected Tuple's Hash.
  size_t KeyHash(const Relation& rel, uint32_t row) const;
  bool KeyEquals(const Relation& rel, uint32_t row, const Tuple& key) const;
  bool RowKeysEqual(const Relation& rel, uint32_t a, uint32_t b) const;
  // Slot whose chain head is `head` (which must be a chain head).
  size_t SlotOfHead(const Relation& rel, uint32_t head) const;
  void InsertSlot(size_t key_hash, uint32_t head);
  void EraseSlot(size_t pos);
  void Grow(const Relation& rel);

  std::vector<int> key_positions_;
  std::vector<uint32_t> next_;  // per row: next row with the same key
  std::vector<uint32_t> prev_;  // per row: previous row, kNoRow at head
  // Open addressing over distinct keys, linear probing, load at most 1/2:
  // 0 (free) or (tag << 32 | head row + 1), as in the relation's table.
  std::vector<uint64_t> slots_;
  int slot_bits_ = 0;
  size_t keys_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_STORAGE_HASH_INDEX_H_
