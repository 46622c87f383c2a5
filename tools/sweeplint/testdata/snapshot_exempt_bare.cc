// snapshot-completeness, positive: the exemption macro without a
// reviewable rationale (< 8 chars) is its own diagnostic.
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

  int counted_ = 0;
  SWEEP_SNAPSHOT_EXEMPT("knob")
  int config_ = 0;
};
