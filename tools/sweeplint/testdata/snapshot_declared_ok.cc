// snapshot-completeness, clean: every member is declared in VisitState.
// The #define mirrors src/common/snapshot.h — the micro frontend skips
// '#' lines and reads the macro spelling; both frontends read the
// VisitState body as source tokens.
#define SWEEP_STATE(v, member) (v)(#member, member)

struct Probe {
  template <class V>
  void VisitState(V& v) {
    SWEEP_STATE(v, counted_);
    SWEEP_STATE(v, logged_);
  }

  int counted_ = 0;
  int logged_ = 0;
};
