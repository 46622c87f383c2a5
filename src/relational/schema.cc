#include "relational/schema.h"

#include <ostream>

#include "common/check.h"
#include "common/str.h"

namespace sweepmv {

Schema::Schema(std::vector<Attribute> attrs) {
  if (attrs.empty()) return;
  auto rep = std::make_shared<Rep>();
  rep->types.reserve(attrs.size());
  for (const Attribute& a : attrs) rep->types.push_back(a.type);
  rep->sig = TypeSignature(rep->types.data(), rep->types.size());
  rep->attrs = std::move(attrs);
  rep_ = std::move(rep);
}

const std::vector<Attribute>& Schema::attrs() const {
  static const std::vector<Attribute>* const kEmpty =
      new std::vector<Attribute>();
  return rep_ ? rep_->attrs : *kEmpty;
}

Schema Schema::AllInts(const std::vector<std::string>& names) {
  std::vector<Attribute> attrs;
  attrs.reserve(names.size());
  for (const std::string& n : names) {
    attrs.push_back(Attribute{n, ValueType::kInt});
  }
  return Schema(std::move(attrs));
}

const Attribute& Schema::attr(size_t i) const {
  SWEEP_CHECK_MSG(i < arity(), "schema index out of range");
  return rep_->attrs[i];
}

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < arity(); ++i) {
    if (rep_->attrs[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Schema Schema::Concat(const Schema& other) const {
  std::vector<Attribute> attrs = this->attrs();
  attrs.insert(attrs.end(), other.attrs().begin(), other.attrs().end());
  return Schema(std::move(attrs));
}

std::string Schema::ToDisplayString() const {
  std::vector<std::string> parts;
  parts.reserve(arity());
  for (const Attribute& a : attrs()) {
    parts.push_back(a.name + ":" + ValueTypeName(a.type));
  }
  return "[" + Join(parts, ", ") + "]";
}

std::ostream& operator<<(std::ostream& os, const Schema& s) {
  return os << s.ToDisplayString();
}

}  // namespace sweepmv
