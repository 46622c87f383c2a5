// checkpoint-coverage, positive: VisitState declares epoch_ but the
// durable serializer never writes it.
#define SWEEP_STATE(v, member) (v)(#member, member)

struct CheckpointWriter {
  void WriteI64(long v);
};

struct Warehouse {
  template <class V>
  void VisitState(V& v) {
    SWEEP_STATE(v, applied_);
    SWEEP_STATE(v, epoch_);
  }
  void SerializeCheckpoint(CheckpointWriter& w);
  long applied_ = 0;
  long epoch_ = 0;
};

void Warehouse::SerializeCheckpoint(CheckpointWriter& w) {
  w.WriteI64(applied_);
}
