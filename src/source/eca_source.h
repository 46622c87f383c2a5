// ECA's data source: a single autonomous site storing *all* base relations.
//
// The ECA algorithm [ZGMHW95] targets the restricted architecture the
// paper discusses in Section 3: one data source holding every base
// relation, so that a whole incremental query evaluates atomically against
// one consistent local state. EcaSource provides that site: it applies
// transactions against any of its relations (forwarding each to the
// warehouse, as Figure 3's server does) and evaluates signed-term queries
// in one event.

#ifndef SWEEPMV_SOURCE_ECA_SOURCE_H_
#define SWEEPMV_SOURCE_ECA_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/fingerprint.h"
#include "common/snapshot.h"
#include "relational/relation.h"
#include "relational/view_def.h"
#include "sim/network.h"
#include "source/data_source.h"
#include "source/source_site.h"
#include "source/state_log.h"
#include "source/update.h"

namespace sweepmv {

class EcaSource : public SourceSite {
 public:
  EcaSource(int site_id, std::vector<Relation> initial_relations,
            const ViewDef* view, Network* network, int warehouse_site,
            UpdateIdGenerator* ids);

  // Applies a transaction to relation `relation_index` atomically and
  // ships it to the warehouse. Returns the update id (-1 for a net no-op).
  int64_t ApplyTransaction(int relation_index,
                           const std::vector<UpdateOp>& ops);

  void OnMessage(int from, Message msg) override;

  // SourceSite interface.
  int64_t ApplyTxn(int relation_index,
                   const std::vector<UpdateOp>& ops) override {
    return ApplyTransaction(relation_index, ops);
  }
  const StateLog& LogOf(int relation_index) const override {
    return log(relation_index);
  }
  const Relation& RelationOf(int relation_index) const override {
    return relation(relation_index);
  }

  int site_id() const { return site_id_; }
  const Relation& relation(int relation_index) const;
  const StateLog& log(int relation_index) const;
  int64_t queries_answered() const { return queries_answered_; }

  // --- Fingerprint (schedule-space explorer) ----------------------------
  // Absorbs the VisitState member set into `h` (sorted relation
  // iteration; identical in exact and canonical mode).
  void DescribeState(StateHasher& h) const;

 private:
  // The declared state (common/snapshot.h).
  friend class StateVisitor;
  template <class V>
  void VisitState(V& v) {
    SWEEP_STATE_CLASS(v, EcaSource);
    SWEEP_STATE(v, relations_);
    SWEEP_STATE(v, logs_);
    SWEEP_STATE(v, queries_answered_);
  }

  // Evaluates one signed term: positions fixed by the term use its deltas,
  // the rest use this site's current base relations. Result spans the full
  // joined schema (selection/projection are the warehouse's job).
  Relation EvaluateTerm(const EcaTerm& term) const;

  SWEEP_SNAPSHOT_EXEMPT("site identity, fixed at construction")
  int site_id_;
  std::vector<Relation> relations_;
  SWEEP_SNAPSHOT_EXEMPT("view definition is immutable configuration, "
                        "owned by the harness")
  const ViewDef* view_;
  SWEEP_SNAPSHOT_EXEMPT(
      "wiring to the network, which snapshots its own channel state")
  Network* network_;
  SWEEP_SNAPSHOT_EXEMPT("destination site id — topology, fixed at "
                        "construction")
  int warehouse_site_;
  SWEEP_SNAPSHOT_EXEMPT("shared id generator, declared once and visited "
                        "by ControlledSystem rather than per site")
  UpdateIdGenerator* ids_;
  std::vector<StateLog> logs_;
  int64_t queries_answered_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_SOURCE_ECA_SOURCE_H_
