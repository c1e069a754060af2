//===- tests/test_rollback.cpp - Rollback tests ---------------*- C++ -*-===//
///
/// Rolling an updateable back to its previous implementation — the
/// PLDI 2001 future-work item implemented as append-only history.

#include "core/Runtime.h"
#include "patch/PatchBuilder.h"

#include <gtest/gtest.h>

using namespace dsu;

namespace {

int64_t v1(int64_t X) { return X + 1; }
int64_t v2(int64_t X) { return X + 2; }
int64_t v3(int64_t X) { return X + 3; }

class RollbackTest : public ::testing::Test {
protected:
  void apply(const char *Id, int64_t (*Fn)(int64_t)) {
    Patch P = cantFail(
        PatchBuilder(RT.types(), Id).provide("app.f", Fn).build());
    cantFail(RT.applyNow(std::move(P)), Id);
  }
  Runtime RT;
};

TEST_F(RollbackTest, RevertsToPreviousImplementation) {
  auto H = cantFail(RT.defineUpdateable("app.f", &v1));
  apply("p2", &v2);
  apply("p3", &v3);
  EXPECT_EQ(H(0), 3);
  EXPECT_EQ(H.version(), 3u);

  ASSERT_FALSE(RT.rollbackUpdateable("app.f"));
  EXPECT_EQ(H(0), 2);             // v2 behaviour again
  EXPECT_EQ(H.version(), 4u);     // but as a NEW version
  EXPECT_EQ(H.slot()->historySize(), 4u);
}

TEST_F(RollbackTest, RollbackOfRollbackGoesForwardAgain) {
  auto H = cantFail(RT.defineUpdateable("app.f", &v1));
  apply("p2", &v2);
  ASSERT_FALSE(RT.rollbackUpdateable("app.f")); // back to v1 behaviour
  EXPECT_EQ(H(0), 1);
  ASSERT_FALSE(RT.rollbackUpdateable("app.f")); // undo the rollback
  EXPECT_EQ(H(0), 2);
  EXPECT_EQ(H.version(), 4u);
}

TEST_F(RollbackTest, InitialVersionCannotRollBack) {
  cantFail(RT.defineUpdateable("app.f", &v1));
  Error E = RT.rollbackUpdateable("app.f");
  ASSERT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::EC_Invalid);
}

TEST_F(RollbackTest, UnknownSlotFails) {
  Error E = RT.rollbackUpdateable("ghost");
  ASSERT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::EC_Link);
}

TEST_F(RollbackTest, RollbackRestoresRecordedType) {
  TypeContext &Ctx = RT.types();
  const Type *OldTy = Ctx.fnType({Ctx.namedType("rec", 1)}, Ctx.unitType());
  const Type *NewTy = Ctx.fnType({Ctx.namedType("rec", 2)}, Ctx.unitType());
  UpdateableSlot *Slot = cantFail(RT.updateables().define(
      "app.g", OldTy, makeClosureBinding<void, int64_t>([](int64_t) {})));
  Linker L(RT.updateables(), RT.exports());
  LinkUnit Unit;
  Unit.Provides.push_back(ProvideRequest{
      "app.g", NewTy, makeClosureBinding<void, int64_t>([](int64_t) {})});
  ASSERT_FALSE(L.commit(cantFail(L.prepare(std::move(Unit)))));
  EXPECT_EQ(Slot->type(), NewTy);
  ASSERT_FALSE(RT.rollbackUpdateable("app.g"));
  EXPECT_EQ(Slot->type(), OldTy);
}

int64_t v1000(int64_t X) { return X + 1000; }

/// A patch that replaces app.f and then defines app.new, staged before
/// the program defines app.new itself: its commit must fail at the
/// define, the one fallible install.
Patch replaceThenDefine(TypeContext &Ctx) {
  return cantFail(PatchBuilder(Ctx, "fails-at-define")
                      .provide("app.f", &v1000)
                      .provide("app.new", &v3)
                      .build());
}

/// After a failed commit the replaced slot keeps its version, history
/// and behaviour, and a rollback can never reach the failed patch's code.
void expectUntouched(Runtime &RT, Updateable<int64_t(int64_t)> &H) {
  EXPECT_EQ(H.version(), 1u);
  EXPECT_EQ(H.slot()->historySize(), 1u);
  EXPECT_EQ(H(1), 2);
  Error E = RT.rollbackUpdateable("app.f");
  ASSERT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::EC_Invalid);
  EXPECT_EQ(H(1), 2);
}

TEST_F(RollbackTest, FailedBarrierCommitLeavesNoHistory) {
  auto H = cantFail(RT.defineUpdateable("app.f", &v1));
  StagedUpdate U = cantFail(RT.stage(replaceThenDefine(RT.types())));
  cantFail(RT.defineUpdateable("app.new", &v2));
  ASSERT_TRUE(U.commit());
  EXPECT_EQ(U.phase(), UpdatePhase::CommitFailed);
  expectUntouched(RT, H);
}

TEST_F(RollbackTest, FailedRollingCommitLeavesNoHistory) {
  auto H = cantFail(RT.defineUpdateable("app.f", &v1));
  StagedUpdate U = RT.requestUpdate(replaceThenDefine(RT.types()));
  cantFail(RT.defineUpdateable("app.new", &v2));
  EXPECT_EQ(RT.updatePoint(Runtime::PendingCommit::Rolling), 0u);
  EXPECT_EQ(U.phase(), UpdatePhase::CommitFailed);
  expectUntouched(RT, H);
}

TEST_F(RollbackTest, RefusedInsideUpdateableCode) {
  Runtime *RTP = &RT;
  auto H = cantFail(RT.defineUpdateableFn<int64_t>(
      "app.inner", [RTP]() -> int64_t {
        // Thread-discipline violations answer EC_Busy — a *retryable*
        // category, distinct from EC_Invalid — naming what was violated.
        Error E = RTP->rollbackUpdateable("app.inner");
        if (E.code() != ErrorCode::EC_Busy)
          return 0;
        if (E.message().find("single-updater discipline") ==
            std::string::npos)
          return 0;
        return 1;
      }));
  (void)H;
  auto Probe = cantFail(bindUpdateable<int64_t()>(RT.updateables(),
                                                  RT.types(), "app.inner"));
  EXPECT_EQ(Probe(), 1); // rollback refused re-entrantly
}

} // namespace
