#include "storage/hash_index.h"

#include <bit>
#include <utility>

#include "common/check.h"

namespace sweepmv {

namespace {

constexpr size_t kFirstSlots = 16;
constexpr uint64_t kRowMask = 0xffffffffULL;

uint32_t SlotTag(size_t hash) {
  return static_cast<uint32_t>((hash * 0x9e3779b97f4a7c15ULL) >> 32);
}

uint32_t SlotRow(uint64_t slot) {
  return static_cast<uint32_t>(slot & kRowMask) - 1;
}

}  // namespace

size_t HashIndex::Rows::size() const {
  size_t n = 0;
  for (uint32_t row = head_; row != kNoRow; row = (*next_)[row]) ++n;
  return n;
}

HashIndex::HashIndex(std::vector<int> key_positions)
    : key_positions_(std::move(key_positions)) {
  SWEEP_CHECK_MSG(!key_positions_.empty(),
                  "an index needs at least one key column");
}

size_t HashIndex::KeyHash(const Relation& rel, uint32_t row) const {
  const CountTable& table = rel.entries();
  const Cell* cells = table.cells(row);
  const ValueType* types = table.types();
  size_t h = Tuple::kHashBasis;
  for (int pos : key_positions_) {
    h = Tuple::HashStep(h, CellHash(types[pos], cells[pos]));
  }
  return h;
}

bool HashIndex::RowKeysEqual(const Relation& rel, uint32_t a,
                             uint32_t b) const {
  const CountTable& table = rel.entries();
  const Cell* x = table.cells(a);
  const Cell* y = table.cells(b);
  const ValueType* types = table.types();
  for (int pos : key_positions_) {
    if (!CellEq(types[pos], x[pos], y[pos])) return false;
  }
  return true;
}

bool HashIndex::KeyEquals(const Relation& rel, uint32_t row,
                          const Tuple& key) const {
  const CountTable& table = rel.entries();
  const Cell* cells = table.cells(row);
  const ValueType* types = table.types();
  for (size_t i = 0; i < key_positions_.size(); ++i) {
    const int pos = key_positions_[i];
    if (types[pos] != key.types()[i] ||
        !CellEq(types[pos], cells[pos], key.cells()[i])) {
      return false;
    }
  }
  return true;
}

void HashIndex::InsertSlot(size_t key_hash, uint32_t head) {
  const uint32_t tag = SlotTag(key_hash);
  const size_t mask = slots_.size() - 1;
  size_t pos = tag >> (32 - slot_bits_);
  while (slots_[pos] != 0) pos = (pos + 1) & mask;
  slots_[pos] = (static_cast<uint64_t>(tag) << 32) | (head + 1ULL);
}

size_t HashIndex::SlotOfHead(const Relation& rel, uint32_t head) const {
  const size_t mask = slots_.size() - 1;
  size_t pos = SlotTag(KeyHash(rel, head)) >> (32 - slot_bits_);
  while ((slots_[pos] & kRowMask) != head + 1ULL) {
    SWEEP_CHECK_MSG(slots_[pos] != 0, "index out of step with its relation");
    pos = (pos + 1) & mask;
  }
  return pos;
}

void HashIndex::EraseSlot(size_t hole) {
  // Backward-shift deletion, as in the relation's table.
  const size_t mask = slots_.size() - 1;
  for (size_t pos = (hole + 1) & mask; slots_[pos] != 0;
       pos = (pos + 1) & mask) {
    const size_t home =
        static_cast<uint32_t>(slots_[pos] >> 32) >> (32 - slot_bits_);
    const bool stays = hole < pos ? (home > hole && home <= pos)
                                  : (home > hole || home <= pos);
    if (!stays) {
      slots_[hole] = slots_[pos];
      hole = pos;
    }
  }
  slots_[hole] = 0;
}

void HashIndex::Grow(const Relation& rel) {
  const size_t capacity = slots_.empty() ? kFirstSlots : 2 * slots_.size();
  slots_.assign(capacity, 0);
  slot_bits_ = std::countr_zero(capacity);
  for (uint32_t row = 0; row < prev_.size(); ++row) {
    if (prev_[row] == kNoRow) InsertSlot(KeyHash(rel, row), row);
  }
}

void HashIndex::OnInsert(const Relation& rel, uint32_t row) {
  SWEEP_CHECK_MSG(row == next_.size(), "index rows out of step");
  next_.push_back(kNoRow);
  prev_.push_back(kNoRow);
  const size_t h = KeyHash(rel, row);
  if (!slots_.empty()) {
    const uint32_t tag = SlotTag(h);
    const size_t mask = slots_.size() - 1;
    for (size_t pos = tag >> (32 - slot_bits_); slots_[pos] != 0;
         pos = (pos + 1) & mask) {
      if ((slots_[pos] >> 32) != tag) continue;
      const uint32_t head = SlotRow(slots_[pos]);
      if (!RowKeysEqual(rel, head, row)) continue;
      // Known key: link the row in right after the chain head.
      next_[row] = next_[head];
      prev_[row] = head;
      if (next_[head] != kNoRow) prev_[next_[head]] = row;
      next_[head] = row;
      return;
    }
  }
  // New key: the row heads its own chain. Grow re-slots every chain
  // head, this row included.
  if (2 * ++keys_ > slots_.size()) {
    Grow(rel);
  } else {
    InsertSlot(h, row);
  }
}

void HashIndex::OnErase(const Relation& rel, uint32_t row) {
  SWEEP_CHECK_MSG(row < next_.size(), "erasing a row the index never saw");
  const uint32_t last = static_cast<uint32_t>(next_.size() - 1);
  // Unlink `row` from its chain.
  const uint32_t p = prev_[row];
  const uint32_t n = next_[row];
  if (n != kNoRow) prev_[n] = p;
  if (p != kNoRow) {
    next_[p] = n;
  } else {
    const size_t pos = SlotOfHead(rel, row);
    if (n != kNoRow) {
      slots_[pos] = (slots_[pos] & ~kRowMask) | (n + 1ULL);
    } else {
      EraseSlot(pos);
      --keys_;
    }
  }
  // Mirror the relation: its last row takes number `row`.
  if (row != last) {
    const uint32_t lp = prev_[last];
    const uint32_t ln = next_[last];
    next_[row] = ln;
    prev_[row] = lp;
    if (ln != kNoRow) prev_[ln] = row;
    if (lp != kNoRow) {
      next_[lp] = row;
    } else {
      const size_t pos = SlotOfHead(rel, last);
      slots_[pos] = (slots_[pos] & ~kRowMask) | (row + 1ULL);
    }
  }
  next_.pop_back();
  prev_.pop_back();
}

HashIndex::Rows HashIndex::Probe(const Relation& rel, const Tuple& key) const {
  if (slots_.empty() || key.arity() != key_positions_.size()) {
    return Rows(&next_, kNoRow);
  }
  const uint32_t tag = SlotTag(key.Hash());
  const size_t mask = slots_.size() - 1;
  for (size_t pos = tag >> (32 - slot_bits_); slots_[pos] != 0;
       pos = (pos + 1) & mask) {
    if ((slots_[pos] >> 32) != tag) continue;
    const uint32_t head = SlotRow(slots_[pos]);
    if (KeyEquals(rel, head, key)) return Rows(&next_, head);
  }
  return Rows(&next_, kNoRow);
}

void HashIndex::RebuildFrom(const Relation& rel) {
  next_.clear();
  prev_.clear();
  slots_.clear();
  slot_bits_ = 0;
  keys_ = 0;
  next_.reserve(rel.DistinctSize());
  prev_.reserve(rel.DistinctSize());
  for (uint32_t row = 0; row < rel.DistinctSize(); ++row) OnInsert(rel, row);
}

}  // namespace sweepmv
