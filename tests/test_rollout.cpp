//===- tests/test_rollout.cpp - Canary rollout control plane --------------===//
///
/// The metric-gated rollout state machine end to end, driven by the
/// fault-injection harness: a benign patch canaries on one worker and
/// promotes to the fleet; an injected-500 patch trips the error gate and
/// auto-rolls-back with the control group never serving the bad binding;
/// a trapping patch trips the trap gate (its faults surface as 404s, so
/// the error gate alone would miss it); a fuel bomb wedges the canary
/// and is caught, and its revert parks no worker; a state-migrating
/// patch fails its rollout; an operator rollback during a rollout is
/// refused, so the rollout's revert still restores the old code; the
/// staging watchdog aborts a stalled patch so it cannot
/// head-of-line-block the FIFO queue; graced redirection chains drain
/// from reactor idle without another commit; and the hardened client/ctl
/// retry a busy control plane with Retry-After-aware backoff.
///
/// Run alone with `ctest -L rollout`.

#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/DocStore.h"
#include "flashed/Http.h"
#include "net/ReactorPool.h"
#include "persist/Journal.h"
#include "runtime/RolloutController.h"
#include "runtime/UpdateController.h"
#include "support/FaultInject.h"
#include "support/MemoryBuffer.h"
#include "support/StringUtil.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace dsu;
using namespace dsu::flashed;

namespace {

constexpr unsigned kWorkers = 4;

size_t countOccurrencesOf(const std::string &Hay,
                          const std::string &Needle) {
  size_t Count = 0;
  for (size_t Pos = Hay.find(Needle); Pos != std::string::npos;
       Pos = Hay.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

#define WAIT_FOR(Pred)                                                     \
  do {                                                                     \
    int Spin_ = 0;                                                         \
    while (!(Pred) && Spin_++ != 5000)                                     \
      std::this_thread::sleep_for(std::chrono::milliseconds(2));           \
    ASSERT_TRUE(Pred) << "timed out waiting for: " #Pred;                  \
  } while (0)

/// A benign code-only patch: map_url becomes a straight passthrough
/// (the fixture never requests "/", the only target v1 rewrites).
const char *GoodMapUrlPatch = R"dsu(
(patch
  (id "rollout-good-map-url")
  (description "benign map_url passthrough")
  (provides
    (fn (name "flashed.map_url")
        (type "fn(string) -> string")
        (vtal-fn "map_url")))
  (vtal-module
"module rollout_good
func map_url (target: string) -> string {
  load target
  ret
}"))
)dsu";

/// FlashEd on a 4-worker pool with the admin control plane: the smallest
/// production-shaped deployment a canary (1 of 4) makes sense on.
class RolloutPoolTest : public ::testing::Test {
protected:
  void SetUp() override {
    DocStore Docs;
    Docs.put("/doc.html", "<html>rollout</html>");
    Docs.put("/index.html", "<html>index</html>");
    ASSERT_FALSE(App.init(std::move(Docs)));
    App.enableAdmin(RT.controller());

    net::PoolOptions O;
    O.Workers = kWorkers;
    O.PollTimeoutMs = 2;
    Pool = std::make_unique<net::ReactorPool>(
        [this](const RequestHead &Head, std::string_view Raw,
               std::string &Out, SharedBody &Body) {
          App.handleInto(Head, Raw, Out, Body);
        },
        O);
    Pool->setUpdateRuntime(RT);
    App.attachPool(*Pool);
    ASSERT_FALSE(Pool->start());
  }

  void TearDown() override {
    stopLoad();
    App.rollouts().waitIdle(); // never tear the pool down under a rollout
    Pool->stop();
    faultinject::setStageStallMs(0);
  }

  void startLoad(unsigned Threads) {
    Stop.store(false);
    for (unsigned T = 0; T != Threads; ++T)
      Loaders.emplace_back([this] {
        KeepAliveClient C;
        if (C.connectTo(Pool->port()))
          return;
        unsigned N = 0;
        while (!Stop.load()) {
          // Workers accept on per-worker SO_REUSEPORT sockets, so the
          // connection->worker mapping is a kernel hash; re-rolling it
          // periodically guarantees the canary worker sees traffic.
          if (++N % 100 == 0)
            C.disconnect();
          Expected<FetchResult> R = C.get("/doc.html");
          if (!R)
            continue; // reconnects transparently on the next round trip
          if (R->Status == 200)
            Ok.fetch_add(1);
          else if (R->Status >= 500)
            Err5xx.fetch_add(1);
          else
            Other.fetch_add(1);
        }
      });
  }

  void stopLoad() {
    Stop.store(true);
    for (std::thread &T : Loaders)
      T.join();
    Loaders.clear();
  }

  bool terminal(uint64_t Id) {
    Expected<RolloutRecord> R = App.rollouts().rollout(Id);
    return R && (R->State == "promoted" || R->State == "rolled-back" ||
                 R->State == "failed");
  }

  RolloutRecord record(uint64_t Id) {
    Expected<RolloutRecord> R = App.rollouts().rollout(Id);
    EXPECT_TRUE(R);
    return R ? *R : RolloutRecord{};
  }

  /// Barrier parks recorded across every worker.
  uint64_t totalParks() const {
    uint64_t N = 0;
    for (unsigned I = 0; I != Pool->workers(); ++I)
      N += Pool->workerStats(I).Pauses.load();
    return N;
  }

  Runtime RT;
  FlashedApp App{RT};
  std::unique_ptr<net::ReactorPool> Pool;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Ok{0}, Err5xx{0}, Other{0};
  std::vector<std::thread> Loaders;
};

/// A healthy patch canaries on one worker, observes an (idle) window,
/// and promotes to the whole fleet without a barrier.
TEST_F(RolloutPoolTest, GoodPatchCanariesThenPromotes) {
  RolloutOptions O;
  O.WindowMs = 120;
  Expected<uint64_t> Id =
      App.rollouts().startArtifactText(GoodMapUrlPatch, "test", O);
  ASSERT_TRUE(Id) << Id.takeError().str();

  WAIT_FOR(terminal(*Id));
  RolloutRecord Rec = record(*Id);
  EXPECT_EQ(Rec.State, "promoted");
  EXPECT_EQ(Rec.Verdict, "promoted");
  EXPECT_EQ(Rec.CanaryMask, 1u) << "canary group should be worker 0 only";
  EXPECT_EQ(Pool->barrierRounds(), 0u) << "a canary rollout armed the barrier";

  // The verdict is annotated into the regular update log too.
  std::vector<UpdateRecord> Log = RT.updateLog();
  ASSERT_FALSE(Log.empty());
  EXPECT_EQ(Log.back().Rollout, "promoted");
  EXPECT_EQ(Log.back().CommitMode, "canary");

  // The fleet serves the promoted binding.
  for (unsigned I = 0; I != 2 * kWorkers; ++I) {
    Expected<FetchResult> R = httpGet(Pool->port(), "/doc.html");
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Status, 200);
  }
}

/// The acceptance bar: an injected-500 patch canaried on 1 of 4 workers
/// under live keep-alive load trips the error gate within the window and
/// auto-rolls-back; the control group never serves the bad binding.
TEST_F(RolloutPoolTest, Error500PatchAutoRollsBackUnderLoad) {
  startLoad(2 * kWorkers);
  WAIT_FOR(Ok.load() >= 100);

  // Drive it over the wire, exactly as an operator would.
  KeepAliveClient C;
  ASSERT_FALSE(C.connectTo(Pool->port()));
  Expected<FetchResult> Posted = C.post(
      "/admin/rollout?canary_workers=1&window_ms=600&min_samples=5",
      faultinject::error500PatchText(), "application/x-dsu-patch");
  ASSERT_TRUE(Posted);
  ASSERT_EQ(Posted->Status, 202) << Posted->Body;
  uint64_t Id = 0;
  {
    size_t At = Posted->Body.find(": ");
    ASSERT_NE(At, std::string::npos) << Posted->Body;
    Id = std::strtoull(Posted->Body.c_str() + At + 2, nullptr, 10);
  }
  ASSERT_NE(Id, 0u);

  WAIT_FOR(terminal(Id));
  RolloutRecord Rec = record(Id);
  EXPECT_EQ(Rec.Verdict, "rolled-back");
  EXPECT_EQ(Rec.CanaryMask, 1u) << "canary group should be worker 0 only";
  EXPECT_NE(Rec.Reason.find("error gate"), std::string::npos) << Rec.Reason;
  EXPECT_GE(Rec.CanaryErrors, 1u) << "the canary never served the bad binding";
  EXPECT_EQ(Rec.ControlErrors, 0u)
      << "a control worker served the bad binding";
  EXPECT_LE(Rec.DetectMs, 600.0 + 200.0)
      << "the error gate should trip within one window";

  // The verdict is visible over the wire too.
  Expected<FetchResult> Wire =
      C.get("/admin/rollouts?id=" + std::to_string(Id));
  ASSERT_TRUE(Wire);
  EXPECT_EQ(Wire->Status, 200);
  EXPECT_NE(Wire->Body.find("\"verdict\": \"rolled-back\""),
            std::string::npos)
      << Wire->Body;

  stopLoad();
  EXPECT_GE(Err5xx.load(), 1u) << "load never observed the canary's 500s";

  // Rolled back: the whole fleet serves the old (healthy) binding again.
  for (unsigned I = 0; I != 2 * kWorkers; ++I) {
    Expected<FetchResult> R = httpGet(Pool->port(), "/doc.html");
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Status, 200);
  }
  std::vector<UpdateRecord> Log = RT.updateLog();
  ASSERT_FALSE(Log.empty());
  EXPECT_EQ(Log.back().Rollout, "rolled-back");
}

/// A trapping patch's faults surface as zero values (404s), not 5xxs —
/// only the trap gate catches it.
TEST_F(RolloutPoolTest, TrapPatchTripsTheTrapGate) {
  // The static analyzer refuses this patch outright (must-trap); this
  // test exercises the *dynamic* trap gate, so stand the gate down.
  RT.setAnalysisGate(false);
  startLoad(2 * kWorkers);
  WAIT_FOR(Ok.load() >= 50);

  RolloutOptions O;
  O.WindowMs = 800;
  O.MinSamples = 1u << 20; // starve the error gate: only traps may trip
  Expected<uint64_t> Id = App.rollouts().startArtifactText(
      faultinject::trapPatchText(), "test", O);
  ASSERT_TRUE(Id) << Id.takeError().str();

  WAIT_FOR(terminal(*Id));
  RolloutRecord Rec = record(*Id);
  stopLoad();
  EXPECT_EQ(Rec.Verdict, "rolled-back");
  EXPECT_NE(Rec.Reason.find("trap gate"), std::string::npos) << Rec.Reason;
  EXPECT_GE(Rec.CanaryTraps, 1u);
  EXPECT_EQ(Rec.ControlErrors, 0u);
}

/// A fuel bomb never completes a request: depending on how fast the
/// interpreter burns the budget relative to the window, either the trap
/// gate (fuel exhausted -> trap) or the stall gate (requests entered,
/// none completed) catches it — but it must never promote.
TEST_F(RolloutPoolTest, FuelBombIsCaughtByTrapOrStallGate) {
  // Statically a fuel-exhaustion finding; stand the analyzer gate down
  // so the dynamic trap/stall gates are what catches it.
  RT.setAnalysisGate(false);
  startLoad(2 * kWorkers);
  WAIT_FOR(Ok.load() >= 50);

  RolloutOptions O;
  O.WindowMs = 3000;
  O.MinSamples = 1u << 20;
  Expected<uint64_t> Id = App.rollouts().startArtifactText(
      faultinject::fuelBurnPatchText(30'000'000), "test", O);
  ASSERT_TRUE(Id) << Id.takeError().str();

  WAIT_FOR(terminal(*Id));
  RolloutRecord Rec = record(*Id);
  stopLoad();
  EXPECT_EQ(Rec.Verdict, "rolled-back");
  EXPECT_NE(Rec.Reason.find("gate"), std::string::npos) << Rec.Reason;
}

/// A rollback is one rolling swing: reverting the fuel bomb under load
/// runs no barrier round and parks no worker, so the healthy control
/// workers never wait for the canary's in-flight bomb request.
TEST_F(RolloutPoolTest, CanaryRevertParksNoWorker) {
  RT.setAnalysisGate(false);
  startLoad(2 * kWorkers);
  WAIT_FOR(Ok.load() >= 50);
  uint64_t Rounds0 = Pool->barrierRounds();
  uint64_t Parks0 = totalParks();

  RolloutOptions O;
  O.WindowMs = 3000;
  O.MinSamples = 1u << 20;
  Expected<uint64_t> Id = App.rollouts().startArtifactText(
      faultinject::fuelBurnPatchText(30'000'000), "test", O);
  ASSERT_TRUE(Id) << Id.takeError().str();

  WAIT_FOR(terminal(*Id));
  RolloutRecord Rec = record(*Id);
  stopLoad();
  EXPECT_EQ(Rec.Verdict, "rolled-back");
  EXPECT_EQ(Pool->barrierRounds() - Rounds0, 0u);
  EXPECT_EQ(totalParks() - Parks0, 0u);
  std::printf("revert_ms %.3f detect_ms %.1f (%s)\n", Rec.RevertMs,
              Rec.DetectMs, Rec.Reason.c_str());
}

/// A transformer over a VTAL int cell, shipped as a .dsup.
const char *IntCellTransformerPatch = R"dsu(
(patch
  (id "rollout-gen-v2")
  (new-types (type (name "%gen@2") (repr "int")))
  (transformers
    (transform (from "%gen@1") (to "%gen@2") (impl "xform")))
  (vtal-module
"module m
func xform (old: int) -> int {
  load old
  push.i 100
  mul
  ret
}"))
)dsu";

/// Rollouts are code-only: a state-migrating patch posted to
/// /admin/rollout fails its rollout, its transaction is aborted, and the
/// cell keeps its type and value.
TEST_F(RolloutPoolTest, StateMigratingPatchFailsItsRollout) {
  ASSERT_FALSE(RT.defineNamedType({"gen", 1}, RT.types().intType()));
  Expected<StateCell *> Cell =
      RT.defineState("app.gen", RT.types().namedType("gen", 1),
                     std::make_shared<int64_t>(20));
  ASSERT_TRUE(Cell) << Cell.takeError().str();

  Expected<FetchResult> Posted =
      httpPost(Pool->port(), "/admin/rollout?window_ms=100",
               IntCellTransformerPatch, "application/x-dsu-patch");
  ASSERT_TRUE(Posted) << Posted.takeError().str();
  ASSERT_EQ(Posted->Status, 202) << Posted->Body;
  size_t At = Posted->Body.find(": ");
  ASSERT_NE(At, std::string::npos) << Posted->Body;
  uint64_t Id = std::strtoull(Posted->Body.c_str() + At + 2, nullptr, 10);

  WAIT_FOR(terminal(Id));
  RolloutRecord Rec = record(Id);
  EXPECT_EQ(Rec.State, "failed");
  EXPECT_NE(Rec.Reason.find("migrates state"), std::string::npos)
      << Rec.Reason;
  std::vector<UpdateRecord> Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_EQ(Log[0].TxId, Rec.TxId);
  EXPECT_EQ(Log[0].Phase, "aborted");
  EXPECT_EQ((*Cell)->type()->str(), "%gen@1");
  EXPECT_EQ(*(*Cell)->get<int64_t>(), 20);
  WAIT_FOR(RT.queueDepth() == 0u); // the aborted front is collected
  EXPECT_EQ(Pool->barrierRounds(), 0u);
}

/// Satellite: graced redirection chains drain from reactor idle — no
/// further commit needed to flush a fully-graced roll chain.
TEST_F(RolloutPoolTest, RollChainsDrainFromReactorIdle) {
  StagedUpdate S =
      RT.controller().stageArtifactText(GoodMapUrlPatch, "idle-drain");
  Pool->wake();
  WAIT_FOR(RT.updatesApplied() >= 1);
  EXPECT_EQ(RT.rollingCommits(), 1u);

  // No more commits, no explicit flush: the workers' idle point detaches
  // the chain once every registered worker has quiesced past it.
  WAIT_FOR(App.MapUrl.slot()->rollDepth() == 0);
}

/// Satellite: the hardened client retries a busy control plane (503 +
/// Retry-After) with backoff until the in-flight rollout resolves.
TEST_F(RolloutPoolTest, BusyControlPlaneIsRetriedWithBackoff) {
  RolloutOptions O;
  O.WindowMs = 400;
  Expected<uint64_t> First =
      App.rollouts().startArtifactText(GoodMapUrlPatch, "first", O);
  ASSERT_TRUE(First);

  KeepAliveClient C;
  ASSERT_FALSE(C.connectTo(Pool->port()));
  C.setTimeoutMs(5000);

  // A bare POST while busy gets the retryable answer with its hint.
  Expected<FetchResult> Busy = C.post("/admin/rollout?window_ms=100",
                                      GoodMapUrlPatch,
                                      "application/x-dsu-patch");
  ASSERT_TRUE(Busy);
  EXPECT_EQ(Busy->Status, 503);
  EXPECT_GE(retryAfterMs(*Busy), 0) << "503 without a Retry-After hint";

  // postWithRetry outlasts the first rollout's window and lands.
  RetryPolicy P;
  P.MaxAttempts = 100;
  P.BaseDelayMs = 20;
  P.MaxDelayMs = 100;
  Expected<FetchResult> Second = C.postWithRetry(
      "/admin/rollout?window_ms=100", GoodMapUrlPatch,
      "application/x-dsu-patch", P);
  ASSERT_TRUE(Second);
  EXPECT_EQ(Second->Status, 202) << Second->Body;

  WAIT_FOR(!App.rollouts().busy());
  std::vector<RolloutRecord> All = App.rollouts().rollouts();
  ASSERT_EQ(All.size(), 2u);
  EXPECT_EQ(All[0].Verdict, "promoted");
  EXPECT_EQ(All[1].Verdict, "promoted");
}

/// Threshold parameters are untrusted input: one that is present but
/// does not parse, is not finite or does not fit answers 400 and starts
/// no rollout, instead of silently disabling (NaN) or zeroing (junk) the
/// error gate, or truncating the canary size.
TEST_F(RolloutPoolTest, MalformedThresholdsAreRefused) {
  for (const char *Query :
       {"?max_error_delta=nan", "?max_error_delta=abc",
        "?canary_workers=4294967297"}) {
    Expected<FetchResult> R =
        httpPost(Pool->port(), std::string("/admin/rollout") + Query,
                 GoodMapUrlPatch, "application/x-dsu-patch");
    ASSERT_TRUE(R) << R.takeError().str();
    EXPECT_EQ(R->Status, 400) << Query << ": " << R->Body;
    EXPECT_EQ(R->Body.rfind("{\"error\": \"", 0), 0u) << R->Body;
  }
  EXPECT_TRUE(App.rollouts().rollouts().empty());
  EXPECT_EQ(RT.updateLog().size(), 0u);
}

/// dsu-updatectl rollout drives the whole loop from outside the process:
/// POST, poll, verdict, exit code.
TEST_F(RolloutPoolTest, UpdatectlRolloutCommandReportsTheVerdict) {
  std::string Tool = std::string(DSU_BIN_DIR) + "/tools/dsu-updatectl";
  if (!fileExists(Tool))
    GTEST_SKIP() << "dsu-updatectl not built";
  std::string PatchFile = ::testing::TempDir() + "dsu_rollout_good.dsup";
  ASSERT_FALSE(writeFile(PatchFile, GoodMapUrlPatch));
  std::string OutFile = ::testing::TempDir() + "dsu_rollout_ctl.out";

  std::string Cmd = Tool + " rollout " + std::to_string(Pool->port()) +
                    " " + PatchFile +
                    " --canary-workers 1 --window-ms 150 --timeout-ms 5000" +
                    " > " + OutFile + " 2>&1";
  int Status = std::system(Cmd.c_str());
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);

  Expected<std::string> Out = readFile(OutFile);
  ASSERT_TRUE(Out);
  EXPECT_NE(Out->find("promoted"), std::string::npos) << *Out;
  std::remove(PatchFile.c_str());
  std::remove(OutFile.c_str());
}

/// A single-worker fleet cannot hold back a control group: the rollout
/// commits ungated, as a rolling commit, and is gated on absolute rates
/// — and a healthy patch still promotes without a barrier round.
TEST(RolloutSingleWorkerTest, SingleWorkerRolloutPromotesUngated) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/doc.html", "<html>one</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));
  App.enableAdmin(RT.controller());

  net::PoolOptions O;
  O.Workers = 1;
  O.PollTimeoutMs = 2;
  net::ReactorPool Pool(
      [&App](const RequestHead &Head, std::string_view Raw, std::string &Out,
             SharedBody &Body) { App.handleInto(Head, Raw, Out, Body); },
      O);
  Pool.setUpdateRuntime(RT);
  App.attachPool(Pool);
  ASSERT_FALSE(Pool.start());

  RolloutOptions RO;
  RO.WindowMs = 100;
  Expected<uint64_t> Id =
      App.rollouts().startArtifactText(GoodMapUrlPatch, "test", RO);
  ASSERT_TRUE(Id) << Id.takeError().str();
  App.rollouts().waitIdle();

  Expected<RolloutRecord> Rec = App.rollouts().rollout(*Id);
  ASSERT_TRUE(Rec);
  EXPECT_EQ(Rec->CanaryMask, UINT64_MAX) << "a single worker is ungated";
  EXPECT_EQ(Rec->Verdict, "promoted");
  Expected<FetchResult> R = httpGet(Pool.port(), "/doc.html");
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Status, 200);
  EXPECT_EQ(Pool.barrierRounds(), 0u);
  Pool.stop();
}

/// The stall gate watches each canary worker on its own: with two
/// canaries, one keeps serving while the other has a request wedged in
/// its handler, and the serves of the healthy one must not hide the
/// wedged one.  No pool: the controller reads fake worker counters
/// through its hooks, and every read of canary 1 or of the control
/// worker finds one more request served.
TEST(RolloutStallGateTest, HealthyCanaryDoesNotHideAWedgedOne) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/doc.html", "<html>stall</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));

  net::WorkerStats Stats[3]; // canaries 0 and 1, control worker 2
  Stats[0].noteRequest();    // in its handler for good
  RolloutController::Hooks H;
  H.WorkerCount = [] { return size_t(3); };
  H.Stats = [&Stats](size_t I) -> const net::WorkerStats * {
    if (I != 0) {
      Stats[I].noteRequest();
      Stats[I].noteServe(10, /*ServerError=*/false);
    }
    return &Stats[I];
  };
  RolloutController Rollouts(RT, H);

  RolloutOptions O;
  O.CanaryWorkers = 2;
  O.WindowMs = 200;
  Expected<uint64_t> Id =
      Rollouts.startArtifactText(GoodMapUrlPatch, "stall", O);
  ASSERT_TRUE(Id) << Id.takeError().str();
  Rollouts.waitIdle();

  Expected<RolloutRecord> Rec = Rollouts.rollout(*Id);
  ASSERT_TRUE(Rec);
  EXPECT_EQ(Rec->CanaryMask, 0x3u);
  EXPECT_EQ(Rec->Verdict, "rolled-back");
  EXPECT_NE(Rec->Reason.find("stall gate"), std::string::npos)
      << Rec->Reason;
  EXPECT_GT(Rec->CanaryServes, 0u);
}

/// An operator rollback while a canary rollout observes is refused with
/// 503: the rollout's own revert restores the history it committed, and
/// a rollback swing in between would make that revert restore the bad
/// canary binding.  No pool: two fake workers, worker 0 the canary, and
/// once the operator's rollback has been answered the canary reports 5xx
/// serves, so the error gate reverts the trapping map_url patch.
TEST(RolloutOperatorRollbackTest, RollbackDuringRolloutIsRefused) {
  Runtime RT;
  // The analyzer refuses the must-trap patch; this test needs it staged.
  RT.setAnalysisGate(false);
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/doc.html", "<html>rollback</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));
  App.enableAdmin(RT.controller());
  const std::string Get = "GET /doc.html HTTP/1.0\r\n\r\n";
  ASSERT_NE(App.handle(Get).find("200 OK"), std::string::npos);

  net::WorkerStats Stats[2]; // canary 0, control worker 1
  std::atomic<bool> CanaryFails{false};
  RolloutController::Hooks H;
  H.WorkerCount = [] { return size_t(2); };
  H.Stats = [&](size_t I) -> const net::WorkerStats * {
    Stats[I].noteRequest();
    Stats[I].noteServe(10, /*ServerError=*/I == 0 && CanaryFails.load());
    return &Stats[I];
  };
  RolloutController Rollouts(RT, H);

  RolloutOptions O;
  O.WindowMs = 3000;
  Expected<uint64_t> Id = Rollouts.startArtifactText(
      faultinject::trapPatchText(), "rollback-mid-window", O);
  ASSERT_TRUE(Id) << Id.takeError().str();
  auto State = [&] {
    Expected<RolloutRecord> R = Rollouts.rollout(*Id);
    return R ? R->State : std::string();
  };
  WAIT_FOR(State() == "observing");

  std::string R = App.handle("POST /admin/rollback?name=flashed.map_url "
                             "HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(R.find("503"), std::string::npos) << R;
  CanaryFails.store(true);
  Rollouts.waitIdle();

  Expected<RolloutRecord> Rec = Rollouts.rollout(*Id);
  ASSERT_TRUE(Rec);
  EXPECT_EQ(Rec->Verdict, "rolled-back");
  EXPECT_NE(Rec->Reason.find("error gate"), std::string::npos)
      << Rec->Reason;
  // The revert restored the pre-rollout map_url: the document serves.
  EXPECT_NE(App.handle(Get).find("200 OK"), std::string::npos);
}

/// Satellite: the staging watchdog.  A patch wedged in verification is
/// aborted at the deadline with the TimedOut outcome, and the queue
/// behind it is not head-of-line-blocked.
TEST(StagingWatchdogTest, StalledStagingTimesOutAndUnblocksTheQueue) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/doc.html", "<html>wd</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));

  RT.setStagingDeadlineMs(60);
  faultinject::setStageStallMs(5000);
  StagedUpdate S1 = RT.controller().stageArtifactText(
      faultinject::error500PatchText(), "stalled");
  // A second patch queued behind the stalled one inherits the deadline
  // and is timed out: from the staging backlog, or mid-stall when the
  // worker picks it up first.  It is an artifact the analyzer accepts,
  // so either schedule ends in timed-out rather than stage-failed.
  StagedUpdate S2 = RT.controller().stageArtifactText(
      faultinject::error500PatchText(), "backlogged");

  WAIT_FOR(S1.record().Phase == "timed-out");
  WAIT_FOR(S2.record().Phase == "timed-out");
  EXPECT_NE(S1.record().FailureReason.find("watchdog deadline"),
            std::string::npos)
      << S1.record().FailureReason;

  // The queue is clear: with the stall gone, a healthy patch stages and
  // commits normally.
  faultinject::setStageStallMs(0);
  RT.setStagingDeadlineMs(0);
  StagedUpdate S3 =
      RT.controller().stageArtifactText(GoodMapUrlPatch, "healthy");
  WAIT_FOR(S3.record().Phase == "ready");
  EXPECT_FALSE(S3.commit());
  EXPECT_EQ(RT.updatesApplied(), 1u);

  std::vector<UpdateRecord> Log = RT.updateLog();
  unsigned TimedOut = 0;
  for (const UpdateRecord &R : Log)
    if (R.Phase == "timed-out")
      ++TimedOut;
  EXPECT_EQ(TimedOut, 2u);
}

/// Tentpole acceptance: one live-pipeline patch yields a complete span
/// tree from operator POST to sealed outcome — staging (artifact load,
/// analysis, per-function verify, link prepare), the queue wait, the
/// commit with per-worker adoption, the rollout observation and verdict,
/// and the durable journal Intent/Seal appends — all stitched together
/// by the update transaction id and served by GET /admin/trace?id=N.
///
/// When DSU_TRACE_EXPORT_PATH is set, the Chrome trace-event export of
/// the same recording is written there (the CI lane validates and
/// uploads it as a build artifact).
TEST_F(RolloutPoolTest, TraceCoversTheWholeUpdateLifecycle) {
  // Tx ids restart at 1 per Runtime but the recorder is process-wide:
  // drop earlier tests' spans so none can join this update's tree.
  trace::Recorder::instance().clear();
  // Attach a journal so the Intent/Seal fsync spans join the tree.
  persist::UpdateJournal::Options JO;
  JO.Sync = false;
  std::string Dir = ::testing::TempDir() + "dsu_trace_e2e_" +
                    std::to_string(static_cast<unsigned>(::getpid()));
  Expected<std::unique_ptr<persist::UpdateJournal>> J =
      persist::UpdateJournal::open(Dir, JO);
  ASSERT_TRUE(J) << J.takeError().str();
  (*J)->beginBoot("");
  RT.attachJournal(J->get());

  startLoad(kWorkers);
  WAIT_FOR(Ok.load() >= 50);

  RolloutOptions O;
  O.WindowMs = 150;
  Expected<uint64_t> Id =
      App.rollouts().startArtifactText(GoodMapUrlPatch, "trace-e2e", O);
  ASSERT_TRUE(Id) << Id.takeError().str();
  WAIT_FOR(terminal(*Id));
  RolloutRecord Rec = record(*Id);
  EXPECT_EQ(Rec.Verdict, "promoted");
  ASSERT_NE(Rec.TxId, 0u);

  // Every worker adopts the rolling commit at its own quiescent point;
  // poll the span tree until the last adoption and the journal seal
  // have landed.
  std::string Tree;
  for (int Spin = 0; Spin != 2000; ++Spin) {
    Expected<FetchResult> T = httpGet(
        Pool->port(), "/admin/trace?id=" + std::to_string(Rec.TxId));
    ASSERT_TRUE(T) << T.takeError().str();
    ASSERT_EQ(T->Status, 200);
    Tree = T->Body;
    if (countOccurrencesOf(Tree, "\"name\": \"adopt\"") >= kWorkers &&
        Tree.find("\"name\": \"seal\"") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stopLoad();

  EXPECT_NE(Tree.find("\"update\": " + std::to_string(Rec.TxId)),
            std::string::npos);
  // Controller pickup: the cross-thread backlog interval.
  EXPECT_NE(Tree.find("\"name\": \"backlog\""), std::string::npos) << Tree;
  // Staging: artifact load, whole-patch analysis, the staging pipeline
  // with per-function verification and link preparation inside it.
  EXPECT_NE(Tree.find("\"name\": \"artifact.load\""), std::string::npos);
  EXPECT_NE(Tree.find("\"name\": \"analyze\""), std::string::npos);
  EXPECT_NE(Tree.find("\"name\": \"pipeline\""), std::string::npos);
  EXPECT_NE(Tree.find("\"category\": \"verify\", \"name\": \"rollout_good."
                      "map_url\""),
            std::string::npos)
      << Tree;
  EXPECT_NE(Tree.find("\"category\": \"link\", \"name\": \"prepare\""),
            std::string::npos);
  // Queue wait, then the canary-masked rolling commit.
  EXPECT_NE(Tree.find("\"category\": \"queue\", \"name\": \"wait\""),
            std::string::npos);
  EXPECT_NE(Tree.find("\"category\": \"commit\", \"name\": \"canary\""),
            std::string::npos)
      << Tree;
  // Per-worker adoption of the rolling commit (no barrier parks: a
  // canary rollout must never arm the barrier).
  EXPECT_GE(countOccurrencesOf(Tree, "\"name\": \"adopt\""), kWorkers)
      << Tree;
  EXPECT_EQ(Tree.find("\"name\": \"park\""), std::string::npos);
  // Rollout observation and verdict.
  EXPECT_NE(Tree.find("\"name\": \"observe\""), std::string::npos);
  EXPECT_NE(Tree.find("\"name\": \"gate.poll\""), std::string::npos);
  EXPECT_NE(Tree.find("\"name\": \"verdict.promoted\""), std::string::npos)
      << Tree;
  // Durable journal appends: the Intent during staging, the Seal after
  // the verdict.
  EXPECT_NE(Tree.find("\"category\": \"journal\", \"name\": \"intent\""),
            std::string::npos)
      << Tree;
  EXPECT_NE(Tree.find("\"category\": \"journal\", \"name\": \"seal\""),
            std::string::npos)
      << Tree;

  // The same recording, as Chrome trace-event JSON for Perfetto.
  Expected<FetchResult> Chrome =
      httpGet(Pool->port(), "/admin/trace?export=chrome");
  ASSERT_TRUE(Chrome) << Chrome.takeError().str();
  EXPECT_EQ(Chrome->Status, 200);
  EXPECT_EQ(Chrome->Body.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(Chrome->Body.find("\"ph\": \"X\""), std::string::npos);
  if (const char *Path = std::getenv("DSU_TRACE_EXPORT_PATH")) {
    ASSERT_FALSE(writeFile(Path, Chrome->Body));
  }

  RT.attachJournal(nullptr);
}

/// Unit coverage for the client's Retry-After parser.
TEST(ClientRetryTest, RetryAfterParsing) {
  FetchResult R;
  R.Headers = "HTTP/1.1 503 Service Unavailable\r\n"
              "Retry-After: 2\r\nContent-Length: 0";
  EXPECT_EQ(retryAfterMs(R), 2000);
  R.Headers = "HTTP/1.1 503 Service Unavailable\r\nretry-after: 0\r\n";
  EXPECT_EQ(retryAfterMs(R), 0);
  R.Headers = "HTTP/1.1 200 OK\r\nContent-Length: 0";
  EXPECT_EQ(retryAfterMs(R), -1);
  R.Headers = "HTTP/1.1 503 X\r\nRetry-After: soon\r\n";
  EXPECT_EQ(retryAfterMs(R), -1);
}

} // namespace
