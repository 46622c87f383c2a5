// Relation schemas: named, typed attribute lists.
//
// A schema is immutable and shares its attribute list between copies, so
// copying a relation copies its schema with one refcount bump. It caches
// the column types and their type signature (see tuple.h): Matches() is a
// word compare however wide the tuple is, up to 32 columns.

#ifndef SWEEPMV_RELATIONAL_SCHEMA_H_
#define SWEEPMV_RELATIONAL_SCHEMA_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "relational/tuple.h"
#include "relational/value.h"

namespace sweepmv {

struct Attribute {
  std::string name;
  ValueType type = ValueType::kInt;

  bool operator==(const Attribute& other) const {
    return name == other.name && type == other.type;
  }
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attrs);

  // Builds an all-int schema "name[a0,a1,...]" from attribute names; the
  // common case in tests and the paper's examples.
  static Schema AllInts(const std::vector<std::string>& names);

  size_t arity() const { return rep_ ? rep_->attrs.size() : 0; }
  const Attribute& attr(size_t i) const;
  const std::vector<Attribute>& attrs() const;

  // Column types in order, and their type signature (see tuple.h).
  const ValueType* types() const {
    return rep_ ? rep_->types.data() : nullptr;
  }
  uint64_t signature() const { return rep_ ? rep_->sig : 0; }

  // Position of the attribute with the given name, or -1 if absent.
  int IndexOf(const std::string& name) const;

  // Concatenation (for join results). Attribute names are kept as-is;
  // callers that need uniqueness qualify names up front (e.g. "R1.B").
  Schema Concat(const Schema& other) const;

  // True if `t` has matching arity and per-position value types. O(1) up
  // to 32 columns: a compare of cached type signatures.
  bool Matches(const Tuple& t) const {
    return t.arity() == arity() &&
           TypesMatch(t.types(), t.signature(), types(), signature(),
                      arity());
  }

  bool operator==(const Schema& other) const {
    return rep_ == other.rep_ || attrs() == other.attrs();
  }

  // "[A:int, B:string]"
  std::string ToDisplayString() const;

 private:
  struct Rep {
    std::vector<Attribute> attrs;
    std::vector<ValueType> types;
    uint64_t sig = 0;
  };
  std::shared_ptr<const Rep> rep_;  // null for the empty schema
};

std::ostream& operator<<(std::ostream& os, const Schema& s);

}  // namespace sweepmv

#endif  // SWEEPMV_RELATIONAL_SCHEMA_H_
