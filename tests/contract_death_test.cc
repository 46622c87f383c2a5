// Contract enforcement: documented preconditions abort via SWEEP_CHECK
// rather than corrupting state silently. Death tests pin the contracts.

#include <gtest/gtest.h>

#include "relational/partial_delta.h"
#include "source/multi_source.h"
#include "storage/indexed_relation.h"
#include "test_util.h"

namespace sweepmv {
namespace {

using testing_util::PaperBases;
using testing_util::PaperView;

// GTEST_FLAG_SET only exists from googletest 1.12; assign through the
// older GTEST_FLAG macro so the file builds against 1.11 as well.
void UseThreadsafeDeathTests() {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
}

TEST(ContractDeathTest, DeletingAbsentTupleAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  UpdateIdGenerator ids;
  DataSource source(1, 0, PaperBases(view)[0], &view, &net, 0, &ids);
  net.RegisterSite(1, &source);

  EXPECT_DEATH(source.ApplyDelete(IntTuple({999, 999})),
               "deleted a tuple that was not present");
}

// The commit check looks only at the tuples a transaction touched. These
// pin that it still sees every way a transaction can drive a count below
// zero: an absent tuple hidden among valid ops, and a present tuple
// deleted more often than it occurs.
TEST(ContractDeathTest, DeletingAbsentTupleAmongValidOpsAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  UpdateIdGenerator ids;
  DataSource source(1, 0, PaperBases(view)[0], &view, &net, 0, &ids);
  net.RegisterSite(1, &source);

  EXPECT_DEATH(source.ApplyTransaction({UpdateOp::Insert(IntTuple({5, 3})),
                                        UpdateOp::Delete(IntTuple({1, 3})),
                                        UpdateOp::Delete(IntTuple({9, 9}))}),
               "deleted a tuple that was not present");
}

TEST(ContractDeathTest, OverDeletingPresentTupleAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  UpdateIdGenerator ids;
  DataSource source(1, 0, PaperBases(view)[0], &view, &net, 0, &ids);
  net.RegisterSite(1, &source);

  EXPECT_DEATH(source.ApplyTransaction({UpdateOp::Delete(IntTuple({1, 3})),
                                        UpdateOp::Delete(IntTuple({1, 3}))}),
               "deleted a tuple that was not present");
}

TEST(ContractDeathTest, MultiRelationSourceDeletingAbsentTupleAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  UpdateIdGenerator ids;
  std::vector<Relation> bases = PaperBases(view);
  MultiRelationSource source(1, {{0, bases[0]}, {1, bases[1]}}, &view, &net,
                             0, &ids);
  net.RegisterSite(1, &source);

  EXPECT_DEATH(source.ApplyTxn(1, {UpdateOp::Delete(IntTuple({3, 8}))}),
               "deleted a tuple that was not present");
}

TEST(ContractDeathTest, EcaSourceDeletingAbsentTupleAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  UpdateIdGenerator ids;
  EcaSource source(1, PaperBases(view), &view, &net, 0, &ids);
  net.RegisterSite(1, &source);

  EXPECT_DEATH(
      source.ApplyTransaction(2, {UpdateOp::Delete(IntTuple({100, 100}))}),
      "deleted a tuple that was not present");
}

// A wholesale replacement of a store keeps the full scan.
TEST(ContractDeathTest, RestoringNegativeRelationAborts) {
  UseThreadsafeDeathTests();
  Relation negative(Schema::AllInts({"A", "B"}));
  negative.Add(IntTuple({1, 2}), -1);
  IndexedRelation store{Relation(Schema::AllInts({"A", "B"}))};
  EXPECT_DEATH(store.RestoreRelation(negative), "positive counts");
}

TEST(ContractDeathTest, TupleSchemaMismatchAborts) {
  UseThreadsafeDeathTests();
  Relation r(Schema::AllInts({"A", "B"}));
  EXPECT_DEATH(r.Add(IntTuple({1, 2, 3}), 1),
               "does not match relation schema");
}

// Same arity, one column of the wrong type: the type signature differs.
TEST(ContractDeathTest, TupleTypeMismatchAborts) {
  UseThreadsafeDeathTests();
  Relation r(Schema::AllInts({"A", "B"}));
  EXPECT_DEATH(r.Add(Tuple({Value(int64_t{1}), Value(2.5)}), 1),
               "does not match relation schema");
}

TEST(ContractDeathTest, ExtendPastChainEndAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Relation delta(view.rel_schema(0));
  delta.Add(IntTuple({1, 3}), 1);
  PartialDelta pd = PartialDelta::ForRelation(view, 0, delta);
  Relation other(view.rel_schema(0));
  EXPECT_DEATH(ExtendLeft(view, other, pd),
               "no relation to the left");
}

TEST(ContractDeathTest, DuplicateSiteRegistrationAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  UpdateIdGenerator ids;
  DataSource source(1, 0, PaperBases(view)[0], &view, &net, 0, &ids);
  net.RegisterSite(1, &source);
  EXPECT_DEATH(net.RegisterSite(1, &source), "already registered");
}

TEST(ContractDeathTest, SendingToUnknownSiteAborts) {
  UseThreadsafeDeathTests();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  EXPECT_DEATH(net.Send(0, 42, SnapshotRequest{1}),
               "unknown destination site");
}

TEST(ContractDeathTest, MisroutedQueryAborts) {
  UseThreadsafeDeathTests();
  ViewDef view = PaperView();
  Simulator sim;
  Network net(&sim, LatencyModel::Fixed(10), 1);
  UpdateIdGenerator ids;
  DataSource source(1, 0, PaperBases(view)[0], &view, &net, 0, &ids);
  net.RegisterSite(1, &source);

  PartialDelta pd;
  pd.lo = 1;
  pd.hi = 1;
  pd.rel = Relation(view.rel_schema(1));
  pd.rel.Add(IntTuple({3, 5}), 1);
  // Target relation 2 does not live at site 1.
  net.Send(0, 1, QueryRequest{5, 2, true, pd});
  EXPECT_DEATH(sim.Run(), "wrong source");
}

TEST(ContractDeathTest, SchedulingInThePastAborts) {
  UseThreadsafeDeathTests();
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(50, [] {}), "cannot schedule in the past");
}

}  // namespace
}  // namespace sweepmv
