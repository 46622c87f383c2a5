// snapshot-completeness, positive: an exemption on a member the
// declaration names anyway — the annotation is stale.
#if defined(__clang__)
#define SWEEP_SNAPSHOT_EXEMPT(why) \
  [[clang::annotate("sweeplint:snapshot-exempt:" why)]]
#else
#define SWEEP_SNAPSHOT_EXEMPT(why)
#endif
#define SWEEP_STATE(v, member) (v)(#member, member)

struct Probe {
  template <class V>
  void VisitState(V& v) {
    SWEEP_STATE(v, counted_);
  }

  SWEEP_SNAPSHOT_EXEMPT("left behind after counted_ became mutable state")
  int counted_ = 0;
};
