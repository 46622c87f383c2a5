// A data-source site: one base relation plus the paper's Update & Query
// Server (Figure 3).
//
// The server has two duties:
//   * SendUpdates — every locally executed transaction is forwarded to the
//     warehouse as one atomic unit (an UpdateMessage);
//   * ProcessQuery — an incremental query from the warehouse (a partial
//     delta) is joined with the *current* local relation and sent back.
// Requests are serviced sequentially and the join is synchronized with
// local update transactions, which the single-threaded simulator gives us
// for free: each event runs to completion.

#ifndef SWEEPMV_SOURCE_DATA_SOURCE_H_
#define SWEEPMV_SOURCE_DATA_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/fingerprint.h"
#include "common/snapshot.h"
#include "relational/relation.h"
#include "relational/view_def.h"
#include "sim/network.h"
#include "source/source_site.h"
#include "source/state_log.h"
#include "source/update.h"
#include "storage/indexed_relation.h"

namespace sweepmv {

// Issues globally unique update ids (instrumentation only; a real
// deployment needs no such shared counter).
class UpdateIdGenerator {
 public:
  int64_t Next() { return next_++; }

  void DescribeState(StateHasher& h) const { h.I64("ids.next", next_); }

 private:
  // The counter is part of the schedule-determined system state the
  // explorer rewinds.
  friend class StateVisitor;
  template <class V>
  void VisitState(V& v) {
    SWEEP_STATE_CLASS(v, UpdateIdGenerator);
    SWEEP_STATE(v, next_);
  }

  int64_t next_ = 0;
};

// Per-source storage-engine knobs.
struct SourceStorageOptions {
  // Maintain the IndexCatalog's hash indexes and answer incremental
  // queries by probing them. Off = the pre-storage-engine behaviour
  // (every query re-scans the relation); kept as an ablation/equivalence
  // switch — results are identical either way, only the cost differs.
  bool use_indexes = true;
};

class DataSource : public SourceSite {
 public:
  // `relation_index` is the position of this source's base relation in the
  // view chain. `warehouse_site` is where updates and answers are sent.
  DataSource(int site_id, int relation_index, Relation initial,
             const ViewDef* view, Network* network, int warehouse_site,
             UpdateIdGenerator* ids,
             SourceStorageOptions storage = SourceStorageOptions{});

  // Executes a source-local transaction atomically: applies every op in
  // order, logs the resulting delta, and ships it to the warehouse as a
  // single unit. No-op transactions (net-zero delta) are not shipped.
  // Returns the update id, or -1 for a net no-op.
  int64_t ApplyTransaction(const std::vector<UpdateOp>& ops);

  // Single-op conveniences.
  int64_t ApplyInsert(Tuple t);
  int64_t ApplyDelete(Tuple t);

  void OnMessage(int from, Message msg) override;

  // Registers an additional warehouse site; every subsequent update is
  // shipped to all registered warehouses (multi-view deployments where
  // several warehouses materialize different views over the same
  // sources). Queries are always answered to their sender.
  void AddWarehouse(int warehouse_site);

  // Crash-failure model (docs/fault_model.md). Crash() takes the site
  // down: volatile state — in-flight messages, session state, anything
  // being computed — is lost; the base relation and the committed update
  // log survive (they are the durable store a real source recovers from).
  // While crashed the site executes nothing: local transactions are
  // refused and the network drops traffic to and from it.
  void Crash();
  // Brings the site back under a new incarnation and replays every
  // committed update from the state log to all registered warehouses —
  // at-least-once recovery; warehouses discard the ids they already saw.
  void Restart();
  bool crashed() const { return crashed_; }
  // Update notifications re-sent by Restart() replays.
  int64_t updates_replayed() const { return updates_replayed_; }

  // SourceSite interface (single hosted relation).
  int64_t ApplyTxn(int relation_index,
                   const std::vector<UpdateOp>& ops) override;
  const StateLog& LogOf(int relation_index) const override;
  const Relation& RelationOf(int relation_index) const override;

  int site_id() const { return site_id_; }
  int relation_index() const { return relation_index_; }
  const Relation& relation() const { return store_.relation(); }
  const IndexedRelation& store() const { return store_; }
  const StateLog& log() const { return log_; }
  int64_t queries_answered() const { return queries_answered_; }

  // Index maintenance + query-path counters for this site.
  StorageStats storage_stats() const override;

  // --- Fingerprint (schedule-space explorer) ----------------------------

  // Absorbs the VisitState member set into `h` (sorted relation
  // iteration; identical in exact and canonical mode).
  void DescribeState(StateHasher& h) const;

 private:
  // store_'s indexes are a pure cache over the relation: it restores
  // through RestoreRelation, which rebuilds them, and diffs as one atom.
  struct StoreHook {
    Relation Save(const IndexedRelation& store) const {
      return store.relation();
    }
    void Restore(IndexedRelation& store, const Relation& saved) const {
      store.RestoreRelation(saved);
    }
  };

  // The declared state (common/snapshot.h): the durable and volatile site
  // state.
  friend class StateVisitor;
  template <class V>
  void VisitState(V& v) {
    SWEEP_STATE_CLASS(v, DataSource);
    SWEEP_STATE_HOOK(v, store_, StoreHook{});
    SWEEP_STATE(v, query_stats_);
    SWEEP_STATE(v, log_);
    SWEEP_STATE(v, queries_answered_);
    SWEEP_STATE(v, crashed_);
    SWEEP_STATE(v, updates_replayed_);
  }

  SWEEP_SNAPSHOT_EXEMPT("site identity, fixed at construction")
  int site_id_;
  SWEEP_SNAPSHOT_EXEMPT("which base relation this site hosts — topology, "
                        "fixed at construction")
  int relation_index_;
  IndexedRelation store_;
  SWEEP_SNAPSHOT_EXEMPT("view definition is immutable configuration, "
                        "owned by the harness")
  const ViewDef* view_;
  SWEEP_SNAPSHOT_EXEMPT(
      "wiring to the network, which snapshots its own channel state")
  Network* network_;
  SWEEP_SNAPSHOT_EXEMPT("topology, fixed at construction")
  std::vector<int> warehouse_sites_;
  SWEEP_SNAPSHOT_EXEMPT("shared id generator, declared once and visited "
                        "by ControlledSystem rather than per site")
  UpdateIdGenerator* ids_;
  SWEEP_SNAPSHOT_EXEMPT("storage tuning knobs, fixed at construction")
  SourceStorageOptions storage_options_;
  StorageStats query_stats_;
  StateLog log_;
  int64_t queries_answered_ = 0;
  bool crashed_ = false;
  int64_t updates_replayed_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_SOURCE_DATA_SOURCE_H_
