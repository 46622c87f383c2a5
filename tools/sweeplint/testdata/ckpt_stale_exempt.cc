// checkpoint-coverage, positive: two stale exemptions — one for a
// member the declaration does not name, one for a member the serializer
// writes anyway.
#define SWEEP_STATE(v, member) (v)(#member, member)

struct CheckpointWriter {
  void WriteI64(long v);
};

struct Warehouse {
  template <class V>
  void VisitState(V& v) {
    SWEEP_STATE(v, applied_);
  }
  void SerializeCheckpoint(CheckpointWriter& w);
  long applied_ = 0;
  long epoch_ = 0;
};

// checkpoint-exempt: epoch_, applied_ — neither member needs durable
// coverage according to this (wrong) block
void Warehouse::SerializeCheckpoint(CheckpointWriter& w) {
  w.WriteI64(applied_);
}
