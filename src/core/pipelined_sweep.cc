#include "core/pipelined_sweep.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"

namespace sweepmv {

PipelinedSweepWarehouse::PipelinedSweepWarehouse(
    int site_id, ViewDef view_def, Network* network,
    std::vector<int> source_sites, PipelineOptions options)
    : Warehouse(site_id, std::move(view_def), network,
                std::move(source_sites), options.base),
      options_(options) {
  SWEEP_CHECK(options_.max_inflight >= 1);
}

void PipelinedSweepWarehouse::HandleUpdateArrival() {
  // Drain the base queue into the receive log immediately; the pipeline
  // tracks its own progress through the log.
  auto& queue = mutable_queue();
  while (!queue.empty()) {
    received_.push_back(std::move(queue.front()));
    queue.pop_front();
  }
  StartPending();
}

void PipelinedSweepWarehouse::StartPending() {
  while (static_cast<int>(inflight_.size()) < options_.max_inflight &&
         started_ < received_.size()) {
    const Update& update = received_[started_];
    Sweep sweep;
    sweep.arrival_index = started_;
    sweep.update_id = update.id;
    sweep.update_source = update.relation;
    sweep.dv = PartialDelta::ForRelation(view_def(), update.relation,
                                         update.delta);
    sweep.left_phase = true;
    sweep.j = update.relation - 1;
    ++started_;
    inflight_.push_back(std::move(sweep));
    max_observed_inflight_ = std::max(
        max_observed_inflight_, static_cast<int>(inflight_.size()));
    Advance(inflight_.back());
  }
  TryInstallInOrder();
}

void PipelinedSweepWarehouse::Advance(Sweep& sweep) {
  if (sweep.left_phase && sweep.j < 0) {
    sweep.left_phase = false;
    sweep.j = sweep.update_source + 1;
  }
  if (!sweep.left_phase && sweep.j >= view_def().num_relations()) {
    SWEEP_CHECK(sweep.dv.SpansAll(view_def()));
    sweep.final_delta = view_def().FinishFullSpan(sweep.dv.rel);
    sweep.complete = true;
    return;
  }
  sweep.temp = sweep.dv;
  sweep.outstanding_query =
      SendSweepQuery(sweep.j, /*extend_left=*/sweep.left_phase, sweep.dv);
}

Relation PipelinedSweepWarehouse::InterferingDelta(int rel,
                                                   size_t after) const {
  Relation merged(view_def().rel_schema(rel));
  for (size_t idx = after + 1; idx < received_.size(); ++idx) {
    if (received_[idx].relation == rel) {
      merged.Merge(received_[idx].delta);
    }
  }
  return merged;
}

void PipelinedSweepWarehouse::HandleQueryAnswer(QueryAnswer answer) {
  Sweep* sweep = nullptr;
  for (Sweep& s : inflight_) {
    if (s.outstanding_query == answer.query_id) {
      sweep = &s;
      break;
    }
  }
  SWEEP_CHECK_MSG(sweep != nullptr,
                  "answer does not match any in-flight sweep");
  // Validate the answer's shape before adopting it: the outstanding query
  // extends temp by exactly relation j, so any other span is an answer
  // this sweep never asked for. (Reachable when the recovery epoch filter
  // is off: the crash rewinds the query-id counter, and with several
  // sweeps in flight a dead incarnation's answer for a *different* hop
  // can arrive under a re-used id. Adopting it would emit a malformed
  // follow-up query; rejecting it stalls this sweep instead, which the
  // schedule explorer reports as a non-draining run.)
  const int want_lo = sweep->left_phase ? sweep->j : sweep->temp.lo;
  const int want_hi = sweep->left_phase ? sweep->temp.hi : sweep->j;
  if (answer.partial.lo != want_lo || answer.partial.hi != want_hi) {
    ++malformed_answers_rejected_;
    SWEEP_LOG(Debug) << name() << " rejected answer #" << answer.query_id
                     << " spanning [" << answer.partial.lo << ","
                     << answer.partial.hi << "], expected [" << want_lo
                     << "," << want_hi << "]";
    return;
  }
  sweep->outstanding_query = -1;
  sweep->dv = std::move(answer.partial);

  // Pipelined interference rule: compensate for every received update of
  // relation j that is later than this sweep's update in arrival order,
  // regardless of its own processing state.
  Relation interfering =
      InterferingDelta(sweep->j, sweep->arrival_index);
  if (!interfering.Empty()) {
    PartialDelta error =
        sweep->left_phase
            ? ExtendLeft(view_def(), interfering, sweep->temp)
            : ExtendRight(view_def(), sweep->temp, interfering);
    sweep->dv.rel.MergeNegated(error.rel);
    ++compensations_;
  }

  sweep->j += sweep->left_phase ? -1 : 1;
  Advance(*sweep);
  TryInstallInOrder();
  StartPending();
}

void PipelinedSweepWarehouse::TryInstallInOrder() {
  while (!inflight_.empty() && inflight_.front().complete) {
    Sweep done = std::move(inflight_.front());
    inflight_.pop_front();
    InstallViewDelta(done.final_delta, {done.update_id});
  }
}

void PipelinedSweepWarehouse::SerializeAlgState(CheckpointWriter& w) const {
  w.WriteI64(static_cast<int64_t>(received_.size()));
  for (const Update& update : received_) w.WriteUpdate(update);
  w.WriteI64(static_cast<int64_t>(started_));
  w.WriteI64(static_cast<int64_t>(inflight_.size()));
  for (const Sweep& sweep : inflight_) {
    w.WriteI64(static_cast<int64_t>(sweep.arrival_index));
    w.WriteI64(sweep.update_id);
    w.WriteI32(sweep.update_source);
    w.WritePartialDelta(sweep.dv);
    w.WritePartialDelta(sweep.temp);
    w.WriteBool(sweep.left_phase);
    w.WriteI32(sweep.j);
    w.WriteI64(sweep.outstanding_query);
    w.WriteBool(sweep.complete);
    w.WriteRelation(sweep.final_delta);
  }
  w.WriteI64(compensations_);
  w.WriteI32(max_observed_inflight_);
  w.WriteI64(malformed_answers_rejected_);
}

void PipelinedSweepWarehouse::DeserializeAlgState(CheckpointReader& r) {
  received_.clear();
  const int64_t received = r.ReadI64();
  for (int64_t i = 0; i < received; ++i) {
    received_.push_back(r.ReadUpdate());
  }
  started_ = static_cast<size_t>(r.ReadI64());
  inflight_.clear();
  const int64_t sweeps = r.ReadI64();
  for (int64_t i = 0; i < sweeps; ++i) {
    Sweep sweep;
    sweep.arrival_index = static_cast<size_t>(r.ReadI64());
    sweep.update_id = r.ReadI64();
    sweep.update_source = r.ReadI32();
    sweep.dv = r.ReadPartialDelta();
    sweep.temp = r.ReadPartialDelta();
    sweep.left_phase = r.ReadBool();
    sweep.j = r.ReadI32();
    sweep.outstanding_query = r.ReadI64();
    sweep.complete = r.ReadBool();
    sweep.final_delta = r.ReadRelation();
    inflight_.push_back(std::move(sweep));
  }
  compensations_ = r.ReadI64();
  max_observed_inflight_ = r.ReadI32();
  malformed_answers_rejected_ = r.ReadI64();
}

}  // namespace sweepmv
