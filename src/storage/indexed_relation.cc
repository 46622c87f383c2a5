#include "storage/indexed_relation.h"

#include <memory>

#include "common/check.h"

namespace sweepmv {

void StorageStats::MergeFrom(const StorageStats& other) {
  index_probes += other.index_probes;
  index_matches += other.index_matches;
  scan_fallbacks += other.scan_fallbacks;
  index_builds += other.index_builds;
  indexes_maintained += other.indexes_maintained;
}

void IndexedRelation::EnsureIndex(const std::vector<int>& key_positions) {
  for (int pos : key_positions) {
    SWEEP_CHECK(pos >= 0 &&
                static_cast<size_t>(pos) < rel_.schema().arity());
  }
  if (FindIndex(key_positions) != nullptr) return;
  auto index = std::make_unique<HashIndex>(key_positions);
  index->RebuildFrom(rel_);
  ++index_builds_;
  indexes_.push_back(std::move(index));
}

const HashIndex* IndexedRelation::FindIndex(
    const std::vector<int>& key_positions) const {
  for (const auto& index : indexes_) {
    if (index->key_positions() == key_positions) return index.get();
  }
  return nullptr;
}

void IndexedRelation::Add(const Tuple& t, int64_t count) {
  if (count == 0) return;
  const uint32_t row = rel_.FindRow(t);
  if (row == Relation::kNoRow) {
    const uint32_t added = rel_.AppendRow(t, count);
    for (const auto& index : indexes_) index->OnInsert(rel_, added);
    return;
  }
  if (rel_.entries().count(row) + count == 0) {
    // The row is about to vanish and the last row to take its number:
    // the indexes follow while the relation still holds both.
    for (const auto& index : indexes_) index->OnErase(rel_, row);
  }
  rel_.AddToRow(row, count);
}

void IndexedRelation::Merge(const Relation& delta) {
  const CountTable& rows = delta.entries();
  for (uint32_t r = 0; r < rows.size(); ++r) {
    Add(rows.TupleAt(r), rows.count(r));
  }
}

void IndexedRelation::RebuildIndexes() {
  for (const auto& index : indexes_) {
    index->RebuildFrom(rel_);
    ++index_builds_;
  }
}

void IndexedRelation::RestoreRelation(Relation snapshot) {
  // A wholesale replacement gets the full scan that per-transaction
  // commits avoid (they check only the tuples a delta touched).
  SWEEP_CHECK_MSG(!snapshot.HasNegative(),
                  "base relations must have positive counts");
  rel_ = std::move(snapshot);
  for (const auto& index : indexes_) index->RebuildFrom(rel_);
}

StorageStats IndexedRelation::stats() const {
  StorageStats stats;
  stats.index_builds = index_builds_;
  stats.indexes_maintained = static_cast<int64_t>(indexes_.size());
  return stats;
}

}  // namespace sweepmv
