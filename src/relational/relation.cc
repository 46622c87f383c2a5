#include "relational/relation.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <ostream>

#include "common/check.h"
#include "common/fingerprint.h"
#include "common/str.h"

namespace sweepmv {

namespace {

// Tables up to this many rows have no hash slots and are scanned: most
// deltas hold one tuple, and a scan of a few rows beats hashing into slots.
constexpr uint32_t kScanRows = 8;
constexpr size_t kFirstSlots = 32;
constexpr size_t kShrinkWords = 1024;
constexpr uint64_t kRowMask = 0xffffffffULL;

// Upper half of the Fibonacci-mixed hash: the slot tag, whose top bits
// pick the home slot.
uint32_t SlotTag(size_t hash) {
  return static_cast<uint32_t>((hash * 0x9e3779b97f4a7c15ULL) >> 32);
}

}  // namespace

void CountTable::SetShape(const Schema& shape) {
  if (shape.arity() == 0 || fixed_shape_) return;
  shape_ = shape;
  width_ = static_cast<uint32_t>(shape.arity());
  has_double_ = std::find(shape.types(), shape.types() + width_,
                          ValueType::kDouble) != shape.types() + width_;
  fixed_shape_ = true;
}

void CountTable::AdoptShape(const ValueType* types, size_t width) {
  std::vector<Attribute> attrs(width);
  for (size_t i = 0; i < width; ++i) attrs[i].type = types[i];
  shape_ = Schema(std::move(attrs));
  width_ = static_cast<uint32_t>(width);
  has_double_ =
      std::find(types, types + width, ValueType::kDouble) != types + width;
}

bool CountTable::Fits(const Tuple& t) const {
  return t.arity() == width_ &&
         TypesMatch(t.types(), t.signature(), shape_.types(),
                    shape_.signature(), width_);
}

bool CountTable::SameShape(const CountTable& other) const {
  return width_ == other.width_ &&
         TypesMatch(types(), shape_.signature(), other.types(),
                    other.shape_.signature(), width_);
}

bool CountTable::CellsEqual(const Cell* a, const Cell* b) const {
  if (!has_double_) return std::memcmp(a, b, width_ * sizeof(Cell)) == 0;
  const ValueType* t = types();
  for (uint32_t i = 0; i < width_; ++i) {
    if (!CellEq(t[i], a[i], b[i])) return false;
  }
  return true;
}

bool CountTable::RowLess(uint32_t a, uint32_t b) const {
  const Cell* x = cells(a);
  const Cell* y = cells(b);
  const ValueType* t = types();
  for (uint32_t i = 0; i < width_; ++i) {
    if (t[i] == ValueType::kInt) {
      const int64_t u = static_cast<int64_t>(x[i]);
      const int64_t v = static_cast<int64_t>(y[i]);
      if (u != v) return u < v;
      continue;
    }
    if (CellLess(t[i], x[i], y[i])) return true;
    if (CellLess(t[i], y[i], x[i])) return false;
  }
  return false;
}

uint32_t CountTable::FindCells(size_t hash, const Cell* cells) const {
  if (slots_.empty()) {
    for (uint32_t r = 0; r < rows_; ++r) {
      if (this->hash(r) == hash && CellsEqual(this->cells(r), cells)) {
        return r;
      }
    }
    return kNoRow;
  }
  const uint32_t tag = SlotTag(hash);
  const size_t mask = slots_.size() - 1;
  for (size_t pos = tag >> (32 - slot_bits_);; pos = (pos + 1) & mask) {
    const uint64_t slot = slots_[pos];
    if (slot == 0) return kNoRow;
    if ((slot >> 32) != tag) continue;
    const uint32_t r = static_cast<uint32_t>(slot & kRowMask) - 1;
    if (this->hash(r) == hash && CellsEqual(this->cells(r), cells)) return r;
  }
}

void CountTable::InsertSlot(size_t hash, uint32_t row) {
  const uint32_t tag = SlotTag(hash);
  const size_t mask = slots_.size() - 1;
  size_t pos = tag >> (32 - slot_bits_);
  while (slots_[pos] != 0) pos = (pos + 1) & mask;
  slots_[pos] = (static_cast<uint64_t>(tag) << 32) | (row + 1ULL);
}

size_t CountTable::SlotOf(uint32_t row) const {
  const size_t mask = slots_.size() - 1;
  size_t pos = SlotTag(hash(row)) >> (32 - slot_bits_);
  while ((slots_[pos] & kRowMask) != row + 1ULL) {
    SWEEP_CHECK_MSG(slots_[pos] != 0, "row missing from its hash slots");
    pos = (pos + 1) & mask;
  }
  return pos;
}

void CountTable::RebuildSlots(size_t capacity) {
  slots_ = std::vector<uint64_t>(capacity, 0);  // assign() keeps capacity
  slot_bits_ = std::countr_zero(capacity);
  for (uint32_t r = 0; r < rows_; ++r) InsertSlot(hash(r), r);
}

uint32_t CountTable::Append(const Tuple& t, int64_t count) {
  if (!fixed_shape_ && rows_ == 0 && !Fits(t)) {
    AdoptShape(t.types(), t.arity());
  }
  SWEEP_CHECK_MSG(Fits(t), "tuple does not match relation schema");
  return AppendCells(t.Hash(), t.cells(), count);
}

uint32_t CountTable::AppendCells(size_t hash, const Cell* cells,
                                 int64_t count) {
  const size_t old = data_.size();
  data_.resize(old + stride());
  uint64_t* row = data_.data() + old;
  row[0] = hash;
  row[1] = static_cast<uint64_t>(count);
  std::memcpy(row + 2, cells, width_ * sizeof(Cell));
  const uint32_t id = rows_++;
  if (!slots_.empty()) {
    if (2 * static_cast<size_t>(rows_) > slots_.size()) {
      RebuildSlots(2 * slots_.size());
    } else {
      InsertSlot(hash, id);
    }
  } else if (rows_ > kScanRows) {
    RebuildSlots(kFirstSlots);
  }
  return id;
}

void CountTable::Erase(uint32_t row) {
  SWEEP_CHECK(row < rows_);
  const uint32_t last = rows_ - 1;
  if (!slots_.empty()) {
    // Backward-shift deletion keeps every probe chain gap-free.
    const size_t mask = slots_.size() - 1;
    size_t hole = SlotOf(row);
    for (size_t pos = (hole + 1) & mask; slots_[pos] != 0;
         pos = (pos + 1) & mask) {
      const size_t home =
          static_cast<uint32_t>(slots_[pos] >> 32) >> (32 - slot_bits_);
      // The entry may move back to the hole unless its home lies
      // cyclically in (hole, pos].
      const bool stays = hole < pos ? (home > hole && home <= pos)
                                    : (home > hole || home <= pos);
      if (!stays) {
        slots_[hole] = slots_[pos];
        hole = pos;
      }
    }
    slots_[hole] = 0;
    if (row != last) {
      uint64_t& moved = slots_[SlotOf(last)];
      moved = (moved & ~kRowMask) | (row + 1ULL);
    }
  }
  if (row != last) {
    std::memcpy(MutableRow(row), Row(last), stride() * sizeof(uint64_t));
  }
  rows_ = last;
  data_.resize(static_cast<size_t>(rows_) * stride());
  // Give memory back once the table is a quarter full: a delta whose
  // counts cancel (or a view fragment that shrinks) must not keep the
  // footprint of its peak. Amortized O(1): growth doubles, shrinking
  // needs three quarters of the rows erased first.
  if (data_.capacity() > kShrinkWords &&
      4 * data_.size() < data_.capacity()) {
    data_.shrink_to_fit();
  }
  if (slots_.size() > kFirstSlots &&
      8 * static_cast<size_t>(rows_) < slots_.size()) {
    RebuildSlots(slots_.size() / 4);
  }
}

std::vector<uint32_t> CountTable::SortedRows() const {
  std::vector<uint32_t> order(rows_);
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(),
            [this](uint32_t a, uint32_t b) { return RowLess(a, b); });
  return order;
}

Relation Relation::OfInts(
    Schema schema,
    std::initializer_list<std::initializer_list<int64_t>> rows) {
  Relation r(std::move(schema));
  for (const auto& row : rows) {
    r.Add(IntTuple(row), 1);
  }
  return r;
}

void Relation::CheckSchema(const Tuple& t) const {
  SWEEP_CHECK_MSG(schema_.arity() == 0 || schema_.Matches(t),
                  "tuple does not match relation schema");
}

void Relation::Add(const Tuple& t, int64_t count) {
  if (count == 0) return;
  CheckSchema(t);
  const uint32_t row = table_.Find(t);
  if (row == kNoRow) {
    table_.Append(t, count);
  } else {
    AddToRow(row, count);
  }
}

uint32_t Relation::AppendRow(const Tuple& t, int64_t count) {
  SWEEP_CHECK(count != 0);
  CheckSchema(t);
  return table_.Append(t, count);
}

void Relation::AddToRow(uint32_t row, int64_t count) {
  const int64_t now = table_.count(row) + count;
  if (now == 0) {
    table_.Erase(row);
  } else {
    table_.SetCount(row, now);
  }
}

int64_t Relation::CountOf(const Tuple& t) const {
  const uint32_t row = table_.Find(t);
  return row == kNoRow ? 0 : table_.count(row);
}

int64_t Relation::TotalCount() const {
  int64_t total = 0;
  for (uint32_t r = 0; r < table_.size(); ++r) total += table_.count(r);
  return total;
}

int64_t Relation::AbsoluteCount() const {
  int64_t total = 0;
  for (uint32_t r = 0; r < table_.size(); ++r) {
    const int64_t c = table_.count(r);
    total += c < 0 ? -c : c;
  }
  return total;
}

bool Relation::HasNegative() const {
  for (uint32_t r = 0; r < table_.size(); ++r) {
    if (table_.count(r) < 0) return true;
  }
  return false;
}

bool Relation::HasNegativeAmong(const Relation& touched) const {
  if (!table_.SameShape(touched.table_)) return false;
  const CountTable& t = touched.table_;
  for (uint32_t r = 0; r < t.size(); ++r) {
    const uint32_t here = table_.FindCells(t.hash(r), t.cells(r));
    if (here != kNoRow && table_.count(here) < 0) return true;
  }
  return false;
}

void Relation::MergeScaled(const Relation& other, int64_t sign) {
  if (&other == this) {
    // Rows move while merging; merge from a copy.
    MergeScaled(Relation(other), sign);
    return;
  }
  const CountTable& from = other.table_;
  if (from.empty()) return;
  if (!table_.fixed_shape() && table_.empty() && !table_.SameShape(from)) {
    table_.AdoptShape(from.types(), from.width());
  }
  SWEEP_CHECK_MSG(table_.SameShape(from),
                  "tuple does not match relation schema");
  for (uint32_t r = 0; r < from.size(); ++r) {
    const size_t hash = from.hash(r);
    const Cell* cells = from.cells(r);
    const int64_t count = sign * from.count(r);
    const uint32_t row = table_.FindCells(hash, cells);
    if (row == kNoRow) {
      table_.AppendCells(hash, cells, count);
    } else {
      AddToRow(row, count);
    }
  }
}

void Relation::Merge(const Relation& other) { MergeScaled(other, 1); }

void Relation::MergeNegated(const Relation& other) {
  MergeScaled(other, -1);
}

Relation Relation::Negated() const {
  Relation out = *this;
  for (uint32_t r = 0; r < out.table_.size(); ++r) {
    out.table_.SetCount(r, -out.table_.count(r));
  }
  return out;
}

size_t Relation::EraseMatching(const std::vector<int>& positions,
                               const Tuple& key) {
  if (table_.empty()) return 0;
  for (int pos : positions) {
    SWEEP_CHECK_MSG(pos >= 0 && static_cast<size_t>(pos) < table_.width(),
                    "projection position out of range");
  }
  if (key.arity() != positions.size()) return 0;
  const ValueType* types = table_.types();
  auto matches = [&](uint32_t row) {
    const Cell* cells = table_.cells(row);
    for (size_t i = 0; i < positions.size(); ++i) {
      const size_t pos = static_cast<size_t>(positions[i]);
      if (types[pos] != key.types()[i] ||
          !CellEq(types[pos], cells[pos], key.cells()[i])) {
        return false;
      }
    }
    return true;
  };
  size_t erased = 0;
  for (uint32_t r = 0; r < table_.size();) {
    if (matches(r)) {
      table_.Erase(r);  // the last row moves into r: look at r again
      ++erased;
    } else {
      ++r;
    }
  }
  return erased;
}

void Relation::ClampToSet() {
  for (uint32_t r = 0; r < table_.size(); ++r) {
    if (table_.count(r) > 1) table_.SetCount(r, 1);
  }
}

bool Relation::operator==(const Relation& other) const {
  if (table_.size() != other.table_.size()) return false;
  if (table_.empty()) return true;
  if (!table_.SameShape(other.table_)) return false;
  for (uint32_t r = 0; r < table_.size(); ++r) {
    const uint32_t o = other.table_.FindCells(table_.hash(r), table_.cells(r));
    if (o == kNoRow || other.table_.count(o) != table_.count(r)) return false;
  }
  return true;
}

std::vector<std::pair<Tuple, int64_t>> Relation::SortedEntries() const {
  std::vector<std::pair<Tuple, int64_t>> out;
  out.reserve(table_.size());
  for (uint32_t r : table_.SortedRows()) {
    out.emplace_back(table_.TupleAt(r), table_.count(r));
  }
  return out;
}

std::string Relation::ToDisplayString() const {
  std::vector<std::string> parts;
  for (const auto& [t, c] : SortedEntries()) {
    parts.push_back(t.ToDisplayString() + "[" + std::to_string(c) + "]");
  }
  return "{" + Join(parts, ", ") + "}";
}

std::ostream& operator<<(std::ostream& os, const Relation& r) {
  return os << r.ToDisplayString();
}

void AbsorbRelation(StateHasher& h, const char* tag, const Relation& rel) {
  const CountTable& table = rel.entries();
  h.U64(tag, table.size());
  for (uint32_t r : table.SortedRows()) {
    h.U64("t.hash", static_cast<uint64_t>(table.hash(r)));
    h.I64("t.count", table.count(r));
  }
}

}  // namespace sweepmv
