#include "storage/indexed_ops.h"

#include <utility>
#include <vector>

#include "common/check.h"

namespace sweepmv {

namespace {

std::vector<int> Firsts(const std::vector<std::pair<int, int>>& keys) {
  std::vector<int> out;
  out.reserve(keys.size());
  for (const auto& [a, b] : keys) {
    (void)b;
    out.push_back(a);
  }
  return out;
}

std::vector<int> Seconds(const std::vector<std::pair<int, int>>& keys) {
  std::vector<int> out;
  out.reserve(keys.size());
  for (const auto& [a, b] : keys) {
    (void)a;
    out.push_back(b);
  }
  return out;
}

}  // namespace

PartialDelta ExtendLeftIndexed(const ViewDef& view,
                               const IndexedRelation& left,
                               const PartialDelta& pd, StorageStats* stats) {
  SWEEP_CHECK(stats != nullptr);
  SWEEP_CHECK_MSG(pd.lo >= 1, "no relation to the left of the span");
  const int rel_index = pd.lo - 1;
  const auto keys = view.ExtendLeftKeys(rel_index);
  const HashIndex* index =
      keys.empty() ? nullptr : left.FindIndex(Firsts(keys));
  if (index == nullptr) {
    ++stats->scan_fallbacks;
    return ExtendLeft(view, left.relation(), pd);
  }

  const std::vector<int> probe_positions = Seconds(keys);
  PartialDelta out;
  out.lo = rel_index;
  out.hi = pd.hi;
  out.rel = Relation(left.schema().Concat(pd.rel.schema()));
  const Relation& base = left.relation();
  const CountTable& rows = base.entries();
  for (const auto& [pt, pc] : pd.rel.entries()) {
    ++stats->index_probes;
    for (uint32_t row : index->Probe(base, pt.Project(probe_positions))) {
      out.rel.Add(rows.TupleAt(row).Concat(pt), rows.count(row) * pc);
      ++stats->index_matches;
    }
  }
  return out;
}

PartialDelta ExtendRightIndexed(const ViewDef& view, const PartialDelta& pd,
                                const IndexedRelation& right,
                                StorageStats* stats) {
  SWEEP_CHECK(stats != nullptr);
  SWEEP_CHECK_MSG(pd.hi + 1 < view.num_relations(),
                  "no relation to the right of the span");
  const int rel_index = pd.hi + 1;
  const auto keys = view.ExtendRightKeys(pd.lo, rel_index);
  const HashIndex* index =
      keys.empty() ? nullptr : right.FindIndex(Seconds(keys));
  if (index == nullptr) {
    ++stats->scan_fallbacks;
    return ExtendRight(view, pd, right.relation());
  }

  const std::vector<int> probe_positions = Firsts(keys);
  PartialDelta out;
  out.lo = pd.lo;
  out.hi = rel_index;
  out.rel = Relation(pd.rel.schema().Concat(right.schema()));
  const Relation& base = right.relation();
  const CountTable& rows = base.entries();
  for (const auto& [pt, pc] : pd.rel.entries()) {
    ++stats->index_probes;
    for (uint32_t row : index->Probe(base, pt.Project(probe_positions))) {
      out.rel.Add(pt.Concat(rows.TupleAt(row)), pc * rows.count(row));
      ++stats->index_matches;
    }
  }
  return out;
}

}  // namespace sweepmv
