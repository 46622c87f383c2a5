#include "relational/operators.h"

#include "common/check.h"
#include "storage/hash_index.h"

namespace sweepmv {

Relation Select(const Relation& r, const Predicate& pred) {
  Relation out(r.schema());
  for (const auto& [t, c] : r.entries()) {
    if (pred.Eval(t)) out.Add(t, c);
  }
  return out;
}

Relation Project(const Relation& r, const std::vector<int>& positions) {
  std::vector<Attribute> attrs;
  attrs.reserve(positions.size());
  for (int pos : positions) {
    attrs.push_back(r.schema().attr(static_cast<size_t>(pos)));
  }
  Relation out{Schema(std::move(attrs))};
  for (const auto& [t, c] : r.entries()) {
    out.Add(t.Project(positions), c);
  }
  return out;
}

Relation Join(const Relation& left, const Relation& right,
              const std::vector<std::pair<int, int>>& keys) {
  Relation out(left.schema().Concat(right.schema()));

  // Index the right input on its key columns with the storage layer's
  // hash index (the same flat table a source maintains), then probe with
  // the left. Sizes here are simulation-scale, so the simple choice is
  // fine.
  std::vector<int> left_key_pos;
  std::vector<int> right_key_pos;
  left_key_pos.reserve(keys.size());
  right_key_pos.reserve(keys.size());
  for (const auto& [l, r] : keys) {
    SWEEP_CHECK(l >= 0 && static_cast<size_t>(l) < left.schema().arity());
    SWEEP_CHECK(r >= 0 && static_cast<size_t>(r) < right.schema().arity());
    left_key_pos.push_back(l);
    right_key_pos.push_back(r);
  }

  if (keys.empty()) {
    for (const auto& [lt, lc] : left.entries()) {
      for (const auto& [rt, rc] : right.entries()) {
        out.Add(lt.Concat(rt), lc * rc);
      }
    }
    return out;
  }

  HashIndex index(right_key_pos);
  index.RebuildFrom(right);
  const CountTable& rows = right.entries();
  for (const auto& [lt, lc] : left.entries()) {
    for (uint32_t row : index.Probe(right, lt.Project(left_key_pos))) {
      out.Add(lt.Concat(rows.TupleAt(row)), lc * rows.count(row));
    }
  }
  return out;
}

Relation Union(const Relation& left, const Relation& right) {
  Relation out = left;
  out.Merge(right);
  return out;
}

Relation Subtract(const Relation& left, const Relation& right) {
  Relation out = left;
  out.MergeNegated(right);
  return out;
}

}  // namespace sweepmv
