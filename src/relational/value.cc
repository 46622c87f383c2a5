#include "relational/value.h"

#include <memory>
#include <mutex>
#include <ostream>
#include <string_view>
#include <unordered_map>

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

namespace {

// Intern pool: text -> its canonical buffer. Buffers are never freed, so a
// Cell holding a pointer stays valid for the life of the process and
// copying a Value needs no refcount.
struct InternPool {
  std::mutex mu;
  std::unordered_map<std::string_view, std::unique_ptr<InternedString>> map;
};

InternPool& Pool() {
  static InternPool* pool = new InternPool();  // leaked: outlives all Values
  return *pool;
}

const InternedString* AsInterned(Cell cell) {
  return reinterpret_cast<const InternedString*>(cell);
}

}  // namespace

const InternedString* InternString(std::string text) {
  InternPool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  auto it = pool.map.find(text);
  if (it != pool.map.end()) return it->second.get();
  auto interned = std::make_unique<InternedString>();
  interned->hash = std::hash<std::string>{}(text);
  interned->text = std::move(text);
  const InternedString* out = interned.get();
  pool.map.emplace(std::string_view(out->text), std::move(interned));
  return out;
}

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

bool CellLess(ValueType type, Cell a, Cell b) {
  switch (type) {
    case ValueType::kInt:
      return static_cast<int64_t>(a) < static_cast<int64_t>(b);
    case ValueType::kDouble:
      return std::bit_cast<double>(a) < std::bit_cast<double>(b);
    case ValueType::kString:
      return a != b && AsInterned(a)->text < AsInterned(b)->text;
  }
  return false;
}

int64_t Value::AsInt() const {
  SWEEP_CHECK_MSG(type_ == ValueType::kInt, "Value is not an int");
  return static_cast<int64_t>(cell_);
}

double Value::AsDouble() const {
  SWEEP_CHECK_MSG(type_ == ValueType::kDouble, "Value is not a double");
  return std::bit_cast<double>(cell_);
}

const std::string& Value::AsString() const {
  SWEEP_CHECK_MSG(type_ == ValueType::kString, "Value is not a string");
  return AsInterned(cell_)->text;
}

std::string Value::ToDisplayString() const {
  switch (type_) {
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble:
      return StrFormat("%g", AsDouble());
    case ValueType::kString:
      return "\"" + AsString() + "\"";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToDisplayString();
}

}  // namespace sweepmv
