//===- tests/test_runtime.cpp - Updateable runtime tests ------*- C++ -*-===//

#include "core/Runtime.h"
#include "link/Linker.h"
#include "patch/PatchBuilder.h"
#include "runtime/UpdateQueue.h"
#include "runtime/Updateable.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace dsu;

namespace {

int64_t addV1(int64_t A, int64_t B) { return A + B; }
int64_t addV2(int64_t A, int64_t B) { return A + B + 1000; }
SharedStr greetV1(SharedStr Name) { return "hello " + Name.str(); }

class RuntimeTest : public ::testing::Test {
protected:
  /// Swings \p Name to \p Code through the linker's prepare/commit, the
  /// one path that rebinds a slot; \p BumpsOut receives the plan's
  /// required version bumps.
  Error rebind(const std::string &Name, const Type *Ty, Binding Code,
               std::vector<VersionBump> *BumpsOut = nullptr) {
    LinkUnit Unit;
    Unit.Name = "patch";
    Unit.Provides.push_back(ProvideRequest{Name, Ty, std::move(Code)});
    Expected<LinkPlan> Plan = L.prepare(std::move(Unit));
    if (!Plan)
      return Plan.takeError();
    if (BumpsOut)
      *BumpsOut = Plan->RequiredBumps;
    return L.commit(std::move(*Plan));
  }

  TypeContext Ctx;
  UpdateableRegistry Reg;
  SymbolTable Syms;
  Linker L{Reg, Syms};
};

TEST_F(RuntimeTest, DefineAndCall) {
  Expected<Updateable<int64_t(int64_t, int64_t)>> H =
      defineUpdateable(Reg, Ctx, "add", &addV1);
  ASSERT_TRUE(H) << H.takeError().str();
  EXPECT_TRUE(H->valid());
  EXPECT_EQ((*H)(2, 3), 5);
  EXPECT_EQ(H->version(), 1u);
  EXPECT_EQ(Reg.size(), 1u);
}

TEST_F(RuntimeTest, DuplicateDefineFails) {
  ASSERT_TRUE(defineUpdateable(Reg, Ctx, "add", &addV1));
  Expected<Updateable<int64_t(int64_t, int64_t)>> H =
      defineUpdateable(Reg, Ctx, "add", &addV1);
  EXPECT_FALSE(H);
}

TEST_F(RuntimeTest, DefineRequiresFunctionType) {
  Expected<UpdateableSlot *> S =
      Reg.define("bad", Ctx.intType(), makeRawBinding(&addV1));
  ASSERT_FALSE(S);
  EXPECT_EQ(S.error().code(), ErrorCode::EC_Invalid);
}

TEST_F(RuntimeTest, RebindSwitchesImplementation) {
  auto H = cantFail(defineUpdateable(Reg, Ctx, "add", &addV1));
  const Type *Ty = fnTypeOf<int64_t, int64_t, int64_t>(Ctx);
  ASSERT_FALSE(rebind("add", Ty, makeRawBinding(&addV2, 0, "patch")));
  EXPECT_EQ(H(2, 3), 1005);
  EXPECT_EQ(H.version(), 2u);
  EXPECT_EQ(H.slot()->historySize(), 2u);
}

TEST_F(RuntimeTest, RebindTypeMismatchRejected) {
  auto H = cantFail(defineUpdateable(Reg, Ctx, "add", &addV1));
  const Type *WrongTy = Ctx.fnType({Ctx.stringType()}, Ctx.intType());
  Error E = rebind("add", WrongTy, makeRawBinding(&addV2));
  ASSERT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::EC_TypeMismatch);
  // Old implementation still live.
  EXPECT_EQ(H(2, 3), 5);
  EXPECT_EQ(H.version(), 1u);
}

TEST_F(RuntimeTest, RebindCollectsBumps) {
  const Type *OldTy =
      Ctx.fnType({Ctx.namedType("conn", 1)}, Ctx.unitType());
  const Type *NewTy =
      Ctx.fnType({Ctx.namedType("conn", 2)}, Ctx.unitType());
  auto NoopBinding = makeClosureBinding<void, int64_t>([](int64_t) {});
  // Define with an explicit named type in the signature.
  ASSERT_TRUE(Reg.define("onconn", OldTy, NoopBinding));
  std::vector<VersionBump> Bumps;
  ASSERT_FALSE(rebind("onconn", NewTy,
                      makeClosureBinding<void, int64_t>([](int64_t) {}),
                      &Bumps));
  ASSERT_EQ(Bumps.size(), 1u);
  EXPECT_EQ(Bumps[0].From.str(), "%conn@1");
  EXPECT_EQ(Bumps[0].To.str(), "%conn@2");
}

TEST_F(RuntimeTest, ClosureBindings) {
  int Counter = 0;
  Expected<UpdateableSlot *> S = Reg.define(
      "count", fnTypeOf<int64_t>(Ctx),
      makeClosureBinding<int64_t>([&Counter]() -> int64_t {
        return ++Counter;
      }));
  ASSERT_TRUE(S);
  Updateable<int64_t()> H(*S);
  EXPECT_EQ(H(), 1);
  EXPECT_EQ(H(), 2);
}

TEST_F(RuntimeTest, StringSignatures) {
  auto H = cantFail(defineUpdateable(Reg, Ctx, "greet", &greetV1));
  EXPECT_EQ(H("world"), "hello world");
  EXPECT_EQ(H.slot()->type()->str(), "fn(string) -> string");
}

TEST_F(RuntimeTest, BindUpdateableChecksType) {
  ASSERT_TRUE(defineUpdateable(Reg, Ctx, "add", &addV1));
  Expected<Updateable<int64_t(int64_t, int64_t)>> Good =
      bindUpdateable<int64_t(int64_t, int64_t)>(Reg, Ctx, "add");
  ASSERT_TRUE(Good);
  EXPECT_EQ((*Good)(1, 1), 2);

  Expected<Updateable<SharedStr(SharedStr)>> Bad =
      bindUpdateable<SharedStr(SharedStr)>(Reg, Ctx, "add");
  ASSERT_FALSE(Bad);
  EXPECT_EQ(Bad.error().code(), ErrorCode::EC_TypeMismatch);

  EXPECT_FALSE(bindUpdateable<int64_t(int64_t, int64_t)>(Reg, Ctx, "nope"));
}

TEST_F(RuntimeTest, SlotNamesSorted) {
  ASSERT_TRUE(defineUpdateable(Reg, Ctx, "zeta", &addV1));
  ASSERT_TRUE(defineUpdateable(Reg, Ctx, "alpha", &addV2));
  auto Names = Reg.slotNames();
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0], "alpha");
  EXPECT_EQ(Names[1], "zeta");
}

TEST_F(RuntimeTest, ActivationTrackerCountsFrames) {
  EXPECT_EQ(ActivationTracker::currentDepth(), 0u);
  Expected<UpdateableSlot *> S = Reg.define(
      "depth", fnTypeOf<int64_t>(Ctx), makeClosureBinding<int64_t>([]() {
        return static_cast<int64_t>(ActivationTracker::currentDepth());
      }));
  ASSERT_TRUE(S);
  Updateable<int64_t()> H(*S);
  EXPECT_EQ(H(), 1); // measured inside the call
  EXPECT_EQ(H.callUntracked(), 0);
  EXPECT_EQ(ActivationTracker::currentDepth(), 0u);
}

/// Readers race an updater: every observed result must be a valid value
/// of *some* version — never a torn or invalid call.
TEST_F(RuntimeTest, ConcurrentReadersDuringRebind) {
  auto H = cantFail(defineUpdateable(Reg, Ctx, "add", &addV1));
  const Type *Ty = fnTypeOf<int64_t, int64_t, int64_t>(Ctx);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Bad{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 4; ++T)
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        int64_t R = H(10, 20);
        if (R != 30 && R != 1030)
          Bad.fetch_add(1);
      }
    });

  for (int I = 0; I != 200; ++I) {
    ASSERT_FALSE(rebind("add", Ty, makeRawBinding(I % 2 ? &addV1 : &addV2)));
  }
  Stop.store(true);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_EQ(Bad.load(), 0u);
  EXPECT_EQ(H.slot()->historySize(), 201u);
}

// --- UpdateQueue (transaction FIFO, driven through a Runtime) --------------

namespace {

int64_t qv1(int64_t X) { return X + 1; }
int64_t qv2(int64_t X) { return X + 2; }
int64_t qv3(int64_t X) { return X + 3; }

TEST(UpdateQueueTest, PendingFlagAndFifoDrain) {
  Runtime RT;
  auto H = cantFail(RT.defineUpdateable("q.f", &qv1));
  EXPECT_FALSE(RT.updatePending());
  RT.requestUpdate(cantFail(
      PatchBuilder(RT.types(), "a").provide("q.f", &qv2).build()));
  RT.requestUpdate(cantFail(
      PatchBuilder(RT.types(), "b").provide("q.f", &qv3).build()));
  EXPECT_TRUE(RT.updatePending());
  EXPECT_EQ(RT.queueDepth(), 2u);

  // Both queued transactions are ready (staged synchronously) and
  // introspectable before commit.
  auto Pending = RT.pendingUpdates();
  ASSERT_EQ(Pending.size(), 2u);
  EXPECT_EQ(Pending[0].PatchId, "a");
  EXPECT_EQ(Pending[0].Phase, "ready");
  EXPECT_GT(Pending[0].StageMs, 0.0);
  EXPECT_EQ(Pending[1].PatchId, "b");

  EXPECT_EQ(RT.updatePoint(), 2u);
  EXPECT_FALSE(RT.updatePending());
  EXPECT_EQ(RT.queueDepth(), 0u);
  // FIFO: "a" then "b", so the final behaviour is b's.
  EXPECT_EQ(H(0), 3);
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_EQ(Log[0].PatchId, "a");
  EXPECT_EQ(Log[1].PatchId, "b");
}

SharedStr qWrongSig(SharedStr S) { return S; }

TEST(UpdateQueueTest, FailuresCollected) {
  Runtime RT;
  auto H = cantFail(RT.defineUpdateable("q.f", &qv1));
  // The type-mismatched patch fails at *stage* time; the failed
  // transaction is collected (not committed) at the update point and its
  // diagnostic lands in the update log.
  RT.requestUpdate(cantFail(
      PatchBuilder(RT.types(), "bad").provide("q.f", &qWrongSig).build()));
  RT.requestUpdate(cantFail(
      PatchBuilder(RT.types(), "good").provide("q.f", &qv2).build()));
  EXPECT_EQ(RT.updatePoint(), 1u);
  EXPECT_EQ(H(0), 2);
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_EQ(Log[0].PatchId, "bad");
  EXPECT_EQ(Log[0].Phase, "stage-failed");
  EXPECT_FALSE(Log[0].Succeeded);
  EXPECT_NE(Log[0].FailureReason.find("type"), std::string::npos);
  EXPECT_EQ(Log[1].Phase, "committed");
  EXPECT_TRUE(Log[1].Succeeded);
}

TEST(UpdateQueueTest, DrainOnEmptyIsNoop) {
  Runtime RT;
  EXPECT_EQ(RT.updatePoint(), 0u);
  EXPECT_FALSE(RT.updatePending());
}

} // namespace

} // namespace
