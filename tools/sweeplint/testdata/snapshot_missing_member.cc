// snapshot-completeness, positive: a mutable member the declaration
// leaves out — snapshot, restore and diff would all skip it.
#define SWEEP_STATE(v, member) (v)(#member, member)

struct Probe {
  template <class V>
  void VisitState(V& v) {
    SWEEP_STATE(v, counted_);
  }

  int counted_ = 0;
  int forgotten_ = 0;
};
