// Typed cell values for tuples.
//
// The paper's model is a plain relational model; three scalar types (64-bit
// integer, double, string) cover everything the experiments and examples
// need. Values are ordered and hashable so they can serve as join keys and
// live in hash-based bag relations.
//
// A Value is trivially copyable: an 8-byte payload (the cell) plus a type
// tag. Tuples and relation tables store only the cells and keep the tags
// per column, so copying a relation is a bulk copy of machine words.
//
// String payloads are interned: every Value holding the same text points at
// one immutable buffer with a precomputed hash. The intern pool lives for
// the whole process and never frees a buffer, so the pointer stays valid in
// every copy. Copying a string Value is a pointer copy, equality is a
// pointer compare (one buffer per distinct text), and Hash() never rescans
// the bytes.

#ifndef SWEEPMV_RELATIONAL_VALUE_H_
#define SWEEPMV_RELATIONAL_VALUE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace sweepmv {

enum class ValueType : uint8_t {
  kInt = 0,
  kDouble = 1,
  kString = 2,
};

// Returns a human-readable name ("int", "double", "string").
const char* ValueTypeName(ValueType type);

// One interned string payload: the text plus its hash, computed once.
// Instances are only created by the intern pool (value.cc), are immutable
// afterwards and are never freed, so sharing them across threads is safe.
struct InternedString {
  std::string text;
  size_t hash = 0;
};

// Returns the canonical buffer for `text`. Exactly one InternedString
// exists per distinct text for the life of the process.
const InternedString* InternString(std::string text);

// The 8-byte payload of a Value, as stored in tuples and relation rows:
// the int64 bits, the double bits, or the InternedString pointer.
using Cell = uint64_t;

// Hash, equality and order of one cell of the given type. These define
// Value's semantics; Tuple and the relation table call them directly on
// stored cells.
size_t CellHash(ValueType type, Cell cell);
bool CellLess(ValueType type, Cell a, Cell b);
inline bool CellEq(ValueType type, Cell a, Cell b) {
  // Doubles compare by value (0.0 == -0.0, NaN != NaN); ints and interned
  // strings compare by bits.
  return type == ValueType::kDouble
             ? std::bit_cast<double>(a) == std::bit_cast<double>(b)
             : a == b;
}

// Immutable scalar cell. Comparison across different types is defined (by
// type tag first) so Values can key ordered containers, but predicates only
// ever compare same-typed values (schemas are type-checked).
class Value {
 public:
  Value() = default;
  explicit Value(int64_t v) : cell_(static_cast<Cell>(v)) {}
  explicit Value(int v) : cell_(static_cast<Cell>(static_cast<int64_t>(v))) {}
  explicit Value(double v)
      : cell_(std::bit_cast<Cell>(v)), type_(ValueType::kDouble) {}
  explicit Value(std::string v)
      : cell_(reinterpret_cast<Cell>(InternString(std::move(v)))),
        type_(ValueType::kString) {}
  explicit Value(const char* v) : Value(std::string(v)) {}

  // Rebuilds a Value from a stored cell and its column type.
  static Value FromCell(ValueType type, Cell cell) {
    Value v;
    v.type_ = type;
    v.cell_ = cell;
    return v;
  }

  ValueType type() const { return type_; }
  Cell cell() const { return cell_; }

  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  // Total order: type tag first, then value. Equality requires same type.
  bool operator==(const Value& other) const {
    return type_ == other.type_ && CellEq(type_, cell_, other.cell_);
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const {
    if (type_ != other.type_) return type_ < other.type_;
    return CellLess(type_, cell_, other.cell_);
  }

  size_t Hash() const { return CellHash(type_, cell_); }

  // Renders the value for display ("7", "3.5", "\"abc\"").
  std::string ToDisplayString() const;

 private:
  Cell cell_ = 0;
  ValueType type_ = ValueType::kInt;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

inline size_t CellHash(ValueType type, Cell cell) {
  size_t h = 0;
  switch (type) {
    case ValueType::kInt:
      h = std::hash<int64_t>{}(static_cast<int64_t>(cell));
      break;
    case ValueType::kDouble:
      h = std::hash<double>{}(std::bit_cast<double>(cell));
      break;
    case ValueType::kString:
      h = reinterpret_cast<const InternedString*>(cell)->hash;
      break;
  }
  // Boost-style hash combine to mix the type tag in.
  const size_t seed = static_cast<size_t>(type);
  return h ^ (seed + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_VALUE_H_
