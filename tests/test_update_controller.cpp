//===- tests/test_update_controller.cpp - Concurrent staging ---*- C++ -*-//
///
/// The transactional update API under concurrency: N threads stage
/// patches through the UpdateController while an update thread drains
/// update points (and, in the live test, while a 1-worker FlashEd pool
/// serves real traffic and commits at its worker's update point).
/// Asserts the FIFO commit guarantee and that no transaction is lost or
/// double-applied.

#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/Patches.h"
#include "net/ReactorPool.h"
#include "patch/PatchBuilder.h"
#include "runtime/UpdateController.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace dsu;
using namespace dsu::flashed;

namespace {

int64_t baseFn(int64_t X) { return X; }

/// Each patch version k provides a closure returning k, so the final
/// binding reveals which transaction committed last.
Patch makeCounterPatch(Runtime &RT, const std::string &Slot, int64_t K) {
  return cantFail(
      PatchBuilder(RT.types(), Slot + "-v" + std::to_string(K))
          .provideBinding(Slot,
                          RT.types().fnType({RT.types().intType()},
                                            RT.types().intType()),
                          makeClosureBinding<int64_t, int64_t>(
                              [K](int64_t) { return K; }, 0, "test"))
          .build());
}

TEST(UpdateControllerTest, ConcurrentStagersFifoNoLostNoDouble) {
  Runtime RT;
  constexpr unsigned Threads = 4;
  constexpr unsigned PerThread = 25;
  for (unsigned T = 0; T != Threads; ++T)
    cantFail(RT.defineUpdateable(
        ("app.f" + std::to_string(T)).c_str(), &baseFn));

  UpdateController &Ctl = RT.controller();

  // Submission order is serialized here so the expected FIFO order is
  // known; staging itself happens on the controller's worker while the
  // update thread commits concurrently.
  std::atomic<bool> Stop{false};
  std::thread Updater([&] {
    while (!Stop.load())
      RT.updatePoint();
    RT.updatePoint(); // drain the tail
  });

  std::vector<uint64_t> SubmittedIds;
  std::mutex SubmitLock;
  std::vector<std::thread> Stagers;
  for (unsigned T = 0; T != Threads; ++T)
    Stagers.emplace_back([&, T] {
      std::string Slot = "app.f" + std::to_string(T);
      for (unsigned K = 1; K <= PerThread; ++K) {
        Patch P = makeCounterPatch(RT, Slot, K);
        std::lock_guard<std::mutex> G(SubmitLock);
        StagedUpdate U = Ctl.stagePatch(std::move(P));
        SubmittedIds.push_back(U.id());
      }
    });
  for (std::thread &S : Stagers)
    S.join();
  Ctl.waitIdle();
  Stop.store(true);
  Updater.join();

  // No lost updates, no double applies.
  EXPECT_EQ(RT.updatesApplied(), Threads * PerThread);
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), Threads * PerThread);

  // FIFO: the log's committed order is exactly submission order.
  ASSERT_EQ(SubmittedIds.size(), Log.size());
  for (size_t I = 0; I != Log.size(); ++I) {
    EXPECT_EQ(Log[I].TxId, SubmittedIds[I]) << "at " << I;
    EXPECT_TRUE(Log[I].Succeeded) << Log[I].FailureReason;
  }

  // Every slot ends at its last-submitted version, and version counts
  // show exactly PerThread rebinds (initial + one per patch).
  for (unsigned T = 0; T != Threads; ++T) {
    auto H = cantFail(bindUpdateable<int64_t(int64_t)>(
        RT.updateables(), RT.types(), "app.f" + std::to_string(T)));
    EXPECT_EQ(H(0), PerThread);
    EXPECT_EQ(H.version(), PerThread + 1);
    EXPECT_EQ(H.slot()->historySize(), PerThread + 1);
  }
}

TEST(UpdateControllerTest, StagingBlocksLaterReadyTransactions) {
  // A transaction still staging at the queue's front must delay a later,
  // already-ready one: commit order is submission order, not
  // staging-completion order.  Simulated by submitting an artifact that
  // takes measurably long to stage (parse + assemble + verify) followed
  // by an instant in-process patch.
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/x.html", "x");
  ASSERT_FALSE(App.init(std::move(Docs)));
  UpdateController &Ctl = RT.controller();

  StagedUpdate Slow =
      Ctl.stageArtifactText(vtalParseFixPatchText(), "test-artifact");
  StagedUpdate Fast = Ctl.stagePatch(cantFail(makePatchP2(App), "P2"));
  Ctl.waitIdle();
  EXPECT_EQ(RT.updatePoint(), 2u);
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_EQ(Log[0].TxId, Slow.id());
  EXPECT_EQ(Log[1].TxId, Fast.id());
  EXPECT_GT(Log[0].InstructionsVerified, 0u);
}

TEST(UpdateControllerTest, MalformedArtifactBecomesStageFailed) {
  Runtime RT;
  UpdateController &Ctl = RT.controller();
  StagedUpdate U = Ctl.stageArtifactText("(this is not a patch", "bogus");
  Ctl.waitIdle();
  EXPECT_EQ(U.phase(), UpdatePhase::StageFailed);
  EXPECT_EQ(RT.updatePoint(), 0u); // collected, nothing committed
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_EQ(Log[0].Phase, "stage-failed");
  EXPECT_FALSE(Log[0].FailureReason.empty());
}

/// The live scenario: FlashEd serves requests on its event loop while
/// patches are staged asynchronously and committed at the worker's
/// update point.
TEST(UpdateControllerTest, StagingUnderLiveTrafficCommitsAtIdleHook) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/index.html", "<html>home</html>");
  Docs.put("/doc.html", "<html>doc</html>");
  Docs.fillSynthetic(8, 512);
  ASSERT_FALSE(App.init(std::move(Docs)));

  net::ReactorPool Srv([&App](const RequestHead &Head, std::string_view Raw,
                              std::string &Out, SharedBody &Body) {
    App.handleInto(Head, Raw, Out, Body);
  });
  Srv.setUpdateRuntime(RT);
  ASSERT_FALSE(Srv.start());

  // Continuous traffic on one thread...
  std::atomic<bool> TrafficStop{false};
  std::atomic<uint64_t> Non200{0};
  std::thread Traffic([&] {
    KeepAliveClient C;
    ASSERT_FALSE(C.connectTo(Srv.port()));
    unsigned I = 0;
    while (!TrafficStop.load()) {
      Expected<FetchResult> R =
          C.get("/doc" + std::to_string(I++ % 8) + ".html");
      if (!R || R->Status != 200)
        Non200.fetch_add(1);
    }
  });

  // ...while the whole P1..P5 series is staged asynchronously from this
  // thread.  The cache keeps mutating under traffic, so P3's staged
  // swap may go stale and rebuild — that path is exercised live here.
  UpdateController &Ctl = RT.controller();
  std::vector<StagedUpdate> Handles;
  Expected<std::vector<Patch>> Series = makePatchSeries(App);
  ASSERT_TRUE(Series) << Series.takeError().str();
  for (Patch &P : *Series)
    Handles.push_back(Ctl.stagePatch(std::move(P)));
  Ctl.waitIdle();

  // Commits happen at the worker's update point, not on this thread.
  for (int Spin = 0; Spin != 500 && RT.updatesApplied() < 5; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(RT.updatesApplied(), 5u);
  for (size_t I = 0; I != Handles.size(); ++I)
    EXPECT_EQ(Handles[I].phase(), UpdatePhase::Committed) << "P" << I + 1;

  TrafficStop.store(true);
  Traffic.join();
  EXPECT_EQ(Non200.load(), 0u); // zero downtime across five live updates

  // FIFO survived the live loop.
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 5u);
  for (size_t I = 0; I != 5; ++I)
    EXPECT_EQ(Log[I].TxId, Handles[I].id());

  // Post-evolution behaviour over the wire.
  Expected<FetchResult> R = httpGet(Srv.port(), "/doc.html?q=1");
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Status, 200); // P1's query fix is live
}

} // namespace
