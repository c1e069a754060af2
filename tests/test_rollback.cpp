//===- tests/test_rollback.cpp - Rollback tests ---------------*- C++ -*-===//
///
/// Rolling an updateable back to its previous implementation — the
/// PLDI 2001 future-work item, one version deep: a slot keeps the
/// current binding and the rollback target, and frees older ones once
/// no reader can hold them.

#include "core/Runtime.h"
#include "patch/PatchBuilder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

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

/// A binding that leaves the two-binding window while an unresolved
/// canary gate still names it stays allocated, even with no epoch
/// participant anywhere: a control reader, pinned however late, is
/// redirected through the gates to it.
TEST_F(RollbackTest, BindingNamedByAGateOutlivesTheWindow) {
  auto H = cantFail(RT.defineUpdateable("app.f", &v1));
  Linker L(RT.updateables(), RT.exports());
  auto Plan = [&](int64_t (*Fn)(int64_t)) {
    LinkUnit Unit;
    Unit.Provides.push_back(ProvideRequest{
        "app.f", fnTypeOf<int64_t, int64_t>(RT.types()), makeRawBinding(Fn)});
    return cantFail(L.prepare(std::move(Unit)));
  };
  std::vector<RollEntry *> Gated;
  // Two canary commits, each granted to worker 0 only: v1 leaves the
  // window with the second, and the first's gate still names it.
  ASSERT_FALSE(L.commit(Plan(&v2), /*Rolling=*/true, /*CanaryMask=*/1, &Gated));
  ASSERT_FALSE(L.commit(Plan(&v3), /*Rolling=*/true, /*CanaryMask=*/1, &Gated));
  RT.flushRetiredBindings();
  EXPECT_EQ(RT.updateables().residentBindings(*H.slot()), 3u);
  EXPECT_EQ(H(0), 1); // this thread is no canary: v1, through both gates

  // Resolving the gates unnames it; then it goes like any other.
  epoch::domain().advanceWith(
      [](uint64_t E, void *Raw) {
        for (RollEntry *R : *static_cast<std::vector<RollEntry *> *>(Raw))
          R->PromoteEpoch.store(E, std::memory_order_release);
      },
      &Gated);
  EXPECT_EQ(H(0), 3);
  RT.flushRetiredBindings();
  EXPECT_EQ(H.slot()->rollDepth(), 0u);
  EXPECT_EQ(RT.updateables().residentBindings(*H.slot()),
            UpdateableSlot::kWindow);
}

/// Threads that are not reactor workers call an updateable while the
/// main thread rebinds it 10^3 times, so superseded bindings are really
/// freed under them.  Each call's epoch guard must keep its binding
/// alive: a call through a freed closure is a use-after-free that ASan
/// reports, and a torn one returns a value no binding ever held.
TEST_F(RollbackTest, UnpinnedCallersOutliveFreedBindings) {
  constexpr int64_t Rebinds = 1000;
  auto H = cantFail(RT.defineUpdateable("app.f", &v1));
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Bad{0}, Calls{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 4; ++T)
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        int64_t R = H(0);
        if (R != 1 && (R < 1000 || R >= 1000 + Rebinds))
          Bad.fetch_add(1, std::memory_order_relaxed);
        Calls.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::vector<std::weak_ptr<void>> Code;
  size_t FreedWhileServing = 0;
  for (int64_t K = 0; K != Rebinds; ++K) {
    // Every rebind overlaps calls in flight.
    uint64_t Seen = Calls.load();
    while (Calls.load() < Seen + 4)
      std::this_thread::yield();
    // Heap-owned state per binding: what a freed binding would leave
    // dangling.
    auto Value = std::make_shared<const int64_t>(1000 + K);
    Binding B = makeClosureBinding<int64_t, int64_t>(
        [Value](int64_t X) { return X + *Value; });
    Code.push_back(B.KeepAlive);
    Patch P = cantFail(PatchBuilder(RT.types(), "rebind-" + std::to_string(K))
                           .provideBinding("app.f",
                                           RT.updateables().lookup("app.f")
                                               ->type(),
                                           std::move(B))
                           .build());
    RT.requestUpdate(std::move(P));
    ASSERT_EQ(RT.updatePoint(Runtime::PendingCommit::Rolling), 1u);
  }
  for (const std::weak_ptr<void> &W : Code)
    FreedWhileServing += W.expired();
  Stop.store(true);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_EQ(Bad.load(), 0u);
  EXPECT_GT(Calls.load(), 0u);
  EXPECT_GT(FreedWhileServing, 0u);
  // Once the readers are gone, one flush frees all but the window.
  RT.flushRetiredBindings();
  size_t Alive = 0;
  for (const std::weak_ptr<void> &W : Code)
    Alive += !W.expired();
  EXPECT_LE(Alive, UpdateableSlot::kWindow);
  EXPECT_EQ(H.slot()->historySize(), static_cast<size_t>(Rebinds + 1));
  EXPECT_EQ(H(0), 1000 + Rebinds - 1);
  ASSERT_FALSE(RT.rollbackUpdateable("app.f"));
  EXPECT_EQ(H(0), 1000 + Rebinds - 2);
}

} // namespace
