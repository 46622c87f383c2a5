// Parallel SWEEP — Section 5.3's first optimization.
//
// "The two for loops, i.e., the left and right sweeps, in the ViewChange
// function are independent and therefore can be executed in parallel. The
// only requirement will be that the two partial views obtained after the
// two sweeps complete should be merged, i.e., ΔV = ΔV_left ⋈ ΔV_right."
//
// Identical message count and consistency guarantee (complete) as SWEEP;
// the win is latency: the two directional query chains overlap, so a
// ViewChange completes in max(i, n-1-i) round trips instead of n-1. The
// right sweep is seeded with the update's tuples at unit count so the
// rendezvous join does not square the multiplicities; on-line error
// correction applies per side exactly as in SWEEP.

#ifndef SWEEPMV_CORE_PARALLEL_SWEEP_H_
#define SWEEPMV_CORE_PARALLEL_SWEEP_H_

#include <optional>
#include <string>
#include <vector>

#include "core/warehouse.h"

namespace sweepmv {

class ParallelSweepWarehouse : public Warehouse {
 public:
  ParallelSweepWarehouse(int site_id, ViewDef view_def, Network* network,
                         std::vector<int> source_sites,
                         Options options = Options{});

  bool Busy() const override { return active_.has_value(); }
  std::string name() const override { return "ParallelSWEEP"; }

  int64_t compensations() const { return compensations_; }

 protected:
  void HandleUpdateArrival() override;
  void HandleQueryAnswer(QueryAnswer answer) override;

 private:
  struct Side {
    bool extend_left = true;  // direction of this sweep
    PartialDelta dv;
    PartialDelta temp;
    int j = -1;
    bool done = false;
    int64_t outstanding_query = -1;

    bool operator==(const Side&) const = default;
  };

  struct ActiveSweep {
    int64_t update_id = -1;
    int update_source = -1;
    Side left;
    Side right;

    bool operator==(const ActiveSweep&) const = default;
  };

  void MaybeStartNext();
  // Sends the side's next query or marks it done. Returns true if the
  // whole ViewChange finished (both sides done and installed).
  void AdvanceSide(Side& side);
  void MaybeFinish();

  // The declared state (common/snapshot.h).
  friend class StateVisitor;
  template <class V>
  void VisitState(V& v) {
    SWEEP_STATE_CLASS(v, ParallelSweepWarehouse);
    SWEEP_STATE(v, active_);
    SWEEP_STATE(v, compensations_);
  }
  void VisitAlgState(StateVisitor& v) override { v.Visit(*this, site_id()); }
  void SerializeAlgState(CheckpointWriter& w) const override;
  void DeserializeAlgState(CheckpointReader& r) override;

  std::optional<ActiveSweep> active_;
  int64_t compensations_ = 0;
};

}  // namespace sweepmv

#endif  // SWEEPMV_CORE_PARALLEL_SWEEP_H_
