// snapshot-completeness, suppressed: an undeclared member carrying the
// exemption macro with a real rationale. The preprocessor block mirrors
// src/common/snapshot.h — the micro frontend skips '#' lines and reads
// the macro spelling; clang expands it to the annotate attribute.
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
  SWEEP_SNAPSHOT_EXEMPT("immutable configuration knob")
  int config_ = 0;
};
