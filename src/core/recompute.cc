#include "core/recompute.h"

#include <set>

#include "common/check.h"

namespace sweepmv {

RecomputeWarehouse::RecomputeWarehouse(int site_id, ViewDef view_def,
                                       Network* network,
                                       std::vector<int> source_sites,
                                       Options options)
    : Warehouse(site_id, std::move(view_def), network,
                std::move(source_sites), options) {}

void RecomputeWarehouse::HandleUpdateArrival() { MaybeStartNext(); }

void RecomputeWarehouse::MaybeStartNext() {
  if (active_.has_value() || mutable_queue().empty()) return;

  ActiveRecompute batch;
  while (!mutable_queue().empty()) {
    batch.update_ids.push_back(mutable_queue().front().id);
    mutable_queue().pop_front();
  }
  active_ = std::move(batch);

  // One request per distinct source site (a single multi-relation site
  // answers for every relation it hosts).
  std::set<int> sites;
  for (int rel = 0; rel < view_def().num_relations(); ++rel) {
    sites.insert(source_site(rel));
  }
  for (int rel = 0; rel < view_def().num_relations(); ++rel) {
    if (sites.erase(source_site(rel)) > 0) {
      SendSnapshotRequest(rel);
    }
  }
}

void RecomputeWarehouse::HandleSnapshotAnswer(SnapshotAnswer answer) {
  SWEEP_CHECK(active_.has_value());
  active_->snapshots[answer.relation] = std::move(answer.snapshot);
  if (static_cast<int>(active_->snapshots.size()) <
      view_def().num_relations()) {
    return;
  }

  std::vector<const Relation*> rels;
  rels.reserve(active_->snapshots.size());
  for (int rel = 0; rel < view_def().num_relations(); ++rel) {
    rels.push_back(&active_->snapshots.at(rel));
  }
  Relation view = view_def().EvaluateFull(rels);
  InstallAbsoluteView(std::move(view), std::move(active_->update_ids));
  ++recomputations_;
  active_.reset();
  MaybeStartNext();
}

void RecomputeWarehouse::SerializeAlgState(CheckpointWriter& w) const {
  w.WriteBool(active_.has_value());
  if (active_.has_value()) {
    w.WriteI64(static_cast<int64_t>(active_->update_ids.size()));
    for (int64_t id : active_->update_ids) w.WriteI64(id);
    w.WriteI64(static_cast<int64_t>(active_->snapshots.size()));
    for (const auto& [rel, snapshot] : active_->snapshots) {
      w.WriteI32(rel);
      w.WriteRelation(snapshot);
    }
  }
  w.WriteI64(recomputations_);
}

void RecomputeWarehouse::DeserializeAlgState(CheckpointReader& r) {
  active_.reset();
  if (r.ReadBool()) {
    ActiveRecompute active;
    const int64_t ids = r.ReadI64();
    for (int64_t i = 0; i < ids; ++i) {
      active.update_ids.push_back(r.ReadI64());
    }
    const int64_t snapshots = r.ReadI64();
    for (int64_t i = 0; i < snapshots; ++i) {
      const int rel = r.ReadI32();
      active.snapshots.emplace(rel, r.ReadRelation());
    }
    active_ = std::move(active);
  }
  recomputations_ = r.ReadI64();
}

}  // namespace sweepmv
