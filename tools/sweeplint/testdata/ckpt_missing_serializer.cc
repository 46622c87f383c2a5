// checkpoint-coverage, positive: VisitState declares algorithm state but
// the class defines no serializer at all.
#define SWEEP_STATE(v, member) (v)(#member, member)

struct Algorithm {
  template <class V>
  void VisitState(V& v) {
    SWEEP_STATE(v, cursor_);
  }
  long cursor_ = 0;
};
