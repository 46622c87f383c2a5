#include "relational/tuple.h"

#include <cstring>
#include <ostream>

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

uint64_t TypeSignature(const ValueType* types, size_t arity) {
  uint64_t sig = 0;
  for (size_t i = 0; i < arity; ++i) {
    sig ^= static_cast<uint64_t>(types[i]) << (2 * (i % 32));
  }
  return sig;
}

bool TypesMatch(const ValueType* a, uint64_t sig_a, const ValueType* b,
                uint64_t sig_b, size_t arity) {
  if (sig_a != sig_b) return false;
  return arity <= 32 ||
         std::memcmp(a + 32, b + 32, (arity - 32) * sizeof(ValueType)) == 0;
}

void Tuple::Allocate(size_t arity) {
  arity_ = static_cast<uint32_t>(arity);
  if (on_heap()) heap_ = Heap{new Cell[arity], new ValueType[arity]};
}

void Tuple::Release() {
  if (on_heap()) {
    delete[] heap_.cells;
    delete[] heap_.types;
  }
  arity_ = 0;
}

void Tuple::TakeFrom(Tuple& other) {
  arity_ = other.arity_;
  hash_ = other.hash_;
  sig_ = other.sig_;
  if (other.on_heap()) {
    heap_ = other.heap_;
  } else {
    CopyInline(other);
  }
  other.arity_ = 0;
  other.hash_ = kHashBasis;
  other.sig_ = 0;
}

void Tuple::Seal() {
  const Cell* c = cells();
  const ValueType* t = types();
  size_t h = kHashBasis;
  for (size_t i = 0; i < arity_; ++i) h = HashStep(h, CellHash(t[i], c[i]));
  hash_ = h;
  sig_ = TypeSignature(t, arity_);
}

Tuple::Tuple(const std::vector<Value>& values) {
  Allocate(values.size());
  Cell* c = mutable_cells();
  ValueType* t = mutable_types();
  for (size_t i = 0; i < values.size(); ++i) {
    c[i] = values[i].cell();
    t[i] = values[i].type();
  }
  Seal();
}

Tuple::Tuple(std::initializer_list<Value> values)
    : Tuple(std::vector<Value>(values)) {}

Tuple Tuple::FromCells(const Cell* cells, const ValueType* types,
                       size_t arity, size_t hash) {
  Tuple out;
  out.Allocate(arity);
  std::memcpy(out.mutable_cells(), cells, arity * sizeof(Cell));
  std::memcpy(out.mutable_types(), types, arity * sizeof(ValueType));
  out.hash_ = hash;
  out.sig_ = TypeSignature(types, arity);
  return out;
}

void Tuple::CopyInline(const Tuple& other) {
  // Whole fixed-size buffers: a constant-size copy compiles to a few
  // vector moves, where an arity-sized one is a library call. Bytes past
  // the arity are never read as values.
  std::memcpy(inline_cells_, other.inline_cells_, sizeof(inline_cells_));
  std::memcpy(inline_types_, other.inline_types_, sizeof(inline_types_));
}

Tuple::Tuple(const Tuple& other) {
  Allocate(other.arity_);
  if (on_heap()) {
    std::memcpy(heap_.cells, other.heap_.cells, arity_ * sizeof(Cell));
    std::memcpy(heap_.types, other.heap_.types, arity_ * sizeof(ValueType));
  } else {
    CopyInline(other);
  }
  hash_ = other.hash_;
  sig_ = other.sig_;
}

Tuple::Tuple(Tuple&& other) noexcept { TakeFrom(other); }

Tuple& Tuple::operator=(const Tuple& other) {
  if (this != &other) {
    Tuple copy(other);
    Release();
    TakeFrom(copy);
  }
  return *this;
}

Tuple& Tuple::operator=(Tuple&& other) noexcept {
  if (this != &other) {
    Release();
    TakeFrom(other);
  }
  return *this;
}

Value Tuple::at(size_t i) const {
  SWEEP_CHECK_MSG(i < arity_, "tuple index out of range");
  return Value::FromCell(types()[i], cells()[i]);
}

std::vector<Value> Tuple::values() const {
  std::vector<Value> out;
  out.reserve(arity_);
  for (size_t i = 0; i < arity_; ++i) {
    out.push_back(Value::FromCell(types()[i], cells()[i]));
  }
  return out;
}

Tuple Tuple::Concat(const Tuple& other) const {
  Tuple out;
  out.Allocate(arity_ + other.arity_);
  Cell* c = out.mutable_cells();
  ValueType* t = out.mutable_types();
  std::memcpy(c, cells(), arity_ * sizeof(Cell));
  std::memcpy(c + arity_, other.cells(), other.arity_ * sizeof(Cell));
  std::memcpy(t, types(), arity_ * sizeof(ValueType));
  std::memcpy(t + arity_, other.types(), other.arity_ * sizeof(ValueType));
  // The hash folds left to right, so the concatenation continues from
  // this tuple's hash over the other tuple's columns.
  size_t h = hash_;
  const Cell* oc = other.cells();
  const ValueType* ot = other.types();
  for (size_t i = 0; i < other.arity_; ++i) {
    h = HashStep(h, CellHash(ot[i], oc[i]));
  }
  out.hash_ = h;
  out.sig_ = TypeSignature(t, out.arity_);
  return out;
}

Tuple Tuple::Project(const std::vector<int>& positions) const {
  Tuple out;
  out.Allocate(positions.size());
  Cell* c = out.mutable_cells();
  ValueType* t = out.mutable_types();
  for (size_t i = 0; i < positions.size(); ++i) {
    const int pos = positions[i];
    SWEEP_CHECK_MSG(pos >= 0 && static_cast<size_t>(pos) < arity_,
                    "projection position out of range");
    c[i] = cells()[pos];
    t[i] = types()[pos];
  }
  out.Seal();
  return out;
}

bool Tuple::operator==(const Tuple& other) const {
  if (hash_ != other.hash_ || arity_ != other.arity_ ||
      !TypesMatch(types(), sig_, other.types(), other.sig_, arity_)) {
    return false;
  }
  const Cell* a = cells();
  const Cell* b = other.cells();
  const ValueType* t = types();
  for (size_t i = 0; i < arity_; ++i) {
    if (!CellEq(t[i], a[i], b[i])) return false;
  }
  return true;
}

bool Tuple::operator<(const Tuple& other) const {
  const size_t n = arity_ < other.arity_ ? arity_ : other.arity_;
  for (size_t i = 0; i < n; ++i) {
    const Value a = Value::FromCell(types()[i], cells()[i]);
    const Value b = Value::FromCell(other.types()[i], other.cells()[i]);
    if (a < b) return true;
    if (b < a) return false;
  }
  return arity_ < other.arity_;
}

std::string Tuple::ToDisplayString() const {
  std::vector<std::string> parts;
  parts.reserve(arity_);
  for (size_t i = 0; i < arity_; ++i) parts.push_back(at(i).ToDisplayString());
  return "(" + Join(parts, ",") + ")";
}

Tuple IntTuple(std::initializer_list<int64_t> ints) {
  Tuple out;
  out.Allocate(ints.size());
  Cell* cells = out.mutable_cells();
  ValueType* types = out.mutable_types();
  size_t i = 0;
  for (int64_t v : ints) {
    cells[i] = static_cast<Cell>(v);
    types[i] = ValueType::kInt;
    ++i;
  }
  out.Seal();
  return out;
}

std::ostream& operator<<(std::ostream& os, const Tuple& t) {
  return os << t.ToDisplayString();
}

}  // namespace sweepmv
