//===- tests/test_reactor_pool.cpp - Multi-core serving + barrier -*- C++ -*-//
///
/// The multi-core reactor pool over real sockets: N epoll workers behind
/// one SO_REUSEPORT port, serving concurrent persistent connections
/// while dynamic patches commit through the cross-worker update barrier
/// — the paper's "update at quiescence" guarantee, preserved per worker
/// and coordinated across all of them.

#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/Patches.h"
#include "net/ReactorPool.h"
#include "patch/PatchBuilder.h"
#include "runtime/UpdateController.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace dsu;
using namespace dsu::flashed;

namespace {

constexpr unsigned kWorkers = 3;

/// A repeatable *state-migrating* patch: declares %<name>@(V+1) with an
/// identity transformer over an int cell, so the commit is forced onto
/// the cross-worker barrier (code-only patches now commit rolling).
Expected<Patch> makeMigratingPatch(Runtime &RT, const std::string &TyName,
                                   uint32_t FromV) {
  return makeIdentityBumpPatch(RT.types(), VersionedName{TyName, FromV},
                               RT.types().intType());
}

/// Defines the int cell makeMigratingPatch() migrates.
void defineMigratableCell(Runtime &RT, const std::string &TyName,
                          const std::string &CellName) {
  ASSERT_FALSE(
      RT.defineNamedType(VersionedName{TyName, 1}, RT.types().intType()));
  Expected<StateCell *> Cell = RT.defineState(
      CellName, RT.types().namedType(TyName, 1),
      std::make_shared<int64_t>(7));
  ASSERT_TRUE(Cell) << Cell.takeError().str();
}

/// Connects a raw blocking socket to 127.0.0.1:Port; returns the fd.
int rawConnect(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Reads from \p Fd until EOF (or error) and returns everything read.
std::string readAll(int Fd) {
  std::string Out;
  char Buf[4096];
  while (true) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Out.append(Buf, static_cast<size_t>(N));
  }
  return Out;
}

size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t Count = 0;
  for (size_t Pos = Hay.find(Needle); Pos != std::string::npos;
       Pos = Hay.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

/// Spins (bounded) until \p Pred holds; asserts instead of hanging the
/// suite when loader threads die early and the condition never comes.
#define WAIT_FOR(Pred)                                                     \
  do {                                                                     \
    int Spin_ = 0;                                                         \
    while (!(Pred) && Spin_++ != 5000)                                     \
      std::this_thread::sleep_for(std::chrono::milliseconds(2));           \
    ASSERT_TRUE(Pred) << "timed out waiting for: " #Pred;                  \
  } while (0)

/// FlashEd on a kWorkers-wide pool with the admin plane enabled.
class ReactorPoolTest : public ::testing::Test {
protected:
  void SetUp() override {
    DocStore Docs;
    Docs.put("/index.html", "<html>home</html>");
    Docs.put("/doc.html", "<html>doc</html>");
    Docs.fillSynthetic(8, 512);
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

  void TearDown() override { Pool->stop(); }

  void waitForApplied(unsigned N) {
    for (int Spin = 0; Spin != 2000 && RT.updatesApplied() < N; ++Spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_GE(RT.updatesApplied(), N);
  }

  Runtime RT;
  FlashedApp App{RT};
  std::unique_ptr<net::ReactorPool> Pool;
};

TEST_F(ReactorPoolTest, ServesAcrossWorkersOnOnePort) {
  // Concurrent persistent connections; with SO_REUSEPORT the kernel
  // spreads them over the workers.
  constexpr unsigned Loaders = 4;
  constexpr uint64_t PerLoader = 64;
  std::vector<std::thread> Threads;
  std::atomic<uint64_t> Failures{0};
  for (unsigned T = 0; T != Loaders; ++T)
    Threads.emplace_back([&] {
      Expected<LoadStats> S = runLoadKeepAlive(
          Pool->port(), {"/doc0.html", "/doc1.html"}, PerLoader, 2);
      if (!S)
        Failures.fetch_add(PerLoader);
      else
        Failures.fetch_add(S->Failures);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GE(Pool->requestsServed(), Loaders * PerLoader);
  EXPECT_GE(Pool->connectionsAccepted(), Loaders);
  // Aggregate equals the sum of the per-worker lock-free counters.
  uint64_t Sum = 0;
  for (unsigned I = 0; I != Pool->workers(); ++I)
    Sum += Pool->workerStats(I).Requests.load();
  EXPECT_EQ(Sum, Pool->requestsServed());
}

TEST_F(ReactorPoolTest, PatchCommitsExactlyOnceUnderConcurrentLoad) {
  // K loader threads hammer the v1-buggy target over persistent
  // connections while the parse-fix patch is POSTed through the admin
  // plane mid-traffic.
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Old{0}, New{0}, Odd{0};
  std::vector<std::thread> Loaders;
  for (unsigned T = 0; T != kWorkers; ++T)
    Loaders.emplace_back([&] {
      KeepAliveClient C;
      ASSERT_FALSE(C.connectTo(Pool->port()));
      while (!Stop.load()) {
        Expected<FetchResult> R = C.get("/doc.html?x=1");
        if (!R)
          break;
        if (R->Status == 404)
          Old.fetch_add(1); // v1: query string defeats the lookup
        else if (R->Status == 200 && R->Body == "<html>doc</html>")
          New.fetch_add(1); // v2: query string stripped
        else
          Odd.fetch_add(1);
      }
    });

  // Let traffic flow, then stage the patch off-thread via the admin
  // plane on its own connection.
  WAIT_FOR(Old.load() >= 50);
  Expected<FetchResult> Post = httpPost(
      Pool->port(), "/admin/patches", vtalParseFixPatchText(), "text/plain");
  ASSERT_TRUE(Post) << Post.takeError().str();
  EXPECT_EQ(Post->Status, 202);

  waitForApplied(1);
  // Commit happened exactly once — and, being code-only, as a
  // *rolling* commit: no barrier round formed and no worker parked.
  EXPECT_EQ(RT.updatesApplied(), 1u);
  EXPECT_EQ(RT.rollingCommits(), 1u);
  EXPECT_EQ(Pool->barrierRounds(), 0u);
  uint64_t Parks = 0;
  for (unsigned I = 0; I != Pool->workers(); ++I)
    Parks += Pool->workerStats(I).Pauses.load();
  EXPECT_EQ(Parks, 0u);

  // Every worker observes the new generation on its next request: keep
  // loading briefly and require fresh 200s with zero stragglers after.
  uint64_t NewAtCommit = New.load();
  WAIT_FOR(New.load() >= NewAtCommit + 50);
  Stop.store(true);
  for (std::thread &T : Loaders)
    T.join();
  EXPECT_GT(Old.load(), 0u);
  EXPECT_GT(New.load(), 0u);
  EXPECT_EQ(Odd.load(), 0u);

  // A 404 strictly after the commit would mean a worker served old code
  // past the barrier.  Verify with a fresh connection per worker's
  // share of the load.
  for (unsigned I = 0; I != 2 * kWorkers; ++I) {
    Expected<FetchResult> R = httpGet(Pool->port(), "/doc.html?x=1");
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Status, 200);
  }
}

TEST_F(ReactorPoolTest, RollbackFromAWorkerParksNoWorker) {
  // Apply P1 first.
  Expected<Patch> P1 = makePatchP1(App);
  ASSERT_TRUE(P1) << P1.takeError().str();
  RT.requestUpdate(std::move(*P1));
  Pool->wake();
  waitForApplied(1);
  Expected<FetchResult> Fixed = httpGet(Pool->port(), "/doc.html?x=1");
  ASSERT_TRUE(Fixed);
  EXPECT_EQ(Fixed->Status, 200);

  // POST /admin/rollback is served by a worker, which swings the slot
  // back as a rolling update: no worker parks, and each adopts the
  // restored code at its own next quiescent point.
  uint64_t Rounds0 = Pool->barrierRounds();
  Expected<FetchResult> R = httpPost(
      Pool->port(), "/admin/rollback?name=flashed.parse_target", "x");
  ASSERT_TRUE(R) << R.takeError().str();
  EXPECT_EQ(R->Status, 200);
  EXPECT_NE(R->Body.find("rolled_back"), std::string::npos);
  uint64_t Epoch = epoch::domain().globalEpoch();
  for (unsigned I = 0; I != kWorkers; ++I)
    WAIT_FOR(Pool->workerEpoch(I) >= Epoch);

  for (unsigned I = 0; I != 2 * kWorkers; ++I) {
    Expected<FetchResult> Reverted = httpGet(Pool->port(), "/doc.html?x=1");
    ASSERT_TRUE(Reverted);
    EXPECT_EQ(Reverted->Status, 404); // the v1 bug is back
  }
  EXPECT_EQ(Pool->barrierRounds() - Rounds0, 0u);
}

TEST_F(ReactorPoolTest, MetricsAndStatusReportPerWorkerState) {
  Expected<LoadStats> Load =
      runLoadKeepAlive(Pool->port(), {"/doc0.html"}, 32, 2);
  ASSERT_TRUE(Load) << Load.takeError().str();
  // Force one barrier round so the pause histogram is populated: a
  // code-only patch would commit rolling, so ship a state migration.
  defineMigratableCell(RT, "mcell", "m.cell");
  Expected<Patch> P = makeMigratingPatch(RT, "mcell", 1);
  ASSERT_TRUE(P) << P.takeError().str();
  RT.requestUpdate(std::move(*P));
  Pool->wake();
  waitForApplied(1);

  Expected<FetchResult> Status = httpGet(Pool->port(), "/admin/status");
  ASSERT_TRUE(Status) << Status.takeError().str();
  EXPECT_EQ(Status->Status, 200);
  EXPECT_NE(Status->Body.find("\"workers\": 3"), std::string::npos);
  EXPECT_NE(Status->Body.find("\"worker_state\""), std::string::npos);
  EXPECT_NE(Status->Body.find("\"barrier_rounds\""), std::string::npos);
  EXPECT_NE(Status->Body.find("\"rolling_commits\""), std::string::npos);
  EXPECT_NE(Status->Body.find("\"pending_commit\""), std::string::npos);
  EXPECT_NE(Status->Body.find("\"epoch_global\""), std::string::npos);
  EXPECT_EQ(countOccurrences(Status->Body, "\"state\": "), kWorkers);
  EXPECT_EQ(countOccurrences(Status->Body, "\"epoch\": "), kWorkers);
  EXPECT_EQ(countOccurrences(Status->Body, "\"cpu\": "), kWorkers);

  Expected<FetchResult> Metrics = httpGet(Pool->port(), "/admin/metrics");
  ASSERT_TRUE(Metrics) << Metrics.takeError().str();
  EXPECT_EQ(Metrics->Status, 200);
  EXPECT_NE(Metrics->Headers.find("text/plain"), std::string::npos);
  for (unsigned I = 0; I != kWorkers; ++I) {
    std::string Label = "{worker=\"" + std::to_string(I) + "\"}";
    EXPECT_GE(countOccurrences(Metrics->Body,
                               "dsu_worker_requests_total" + Label),
              1u);
    EXPECT_GE(countOccurrences(Metrics->Body,
                               "dsu_update_pause_us_count" + Label),
              1u);
  }
  EXPECT_NE(Metrics->Body.find("dsu_update_pause_us_bucket"),
            std::string::npos);
  EXPECT_NE(Metrics->Body.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(Metrics->Body.find("dsu_rolling_commits_total"),
            std::string::npos);
  EXPECT_NE(Metrics->Body.find("dsu_stage_to_commit_us_count"),
            std::string::npos);
  EXPECT_NE(Metrics->Body.find("dsu_worker_epoch_lag"),
            std::string::npos);
  // One committed barrier: every live worker recorded a pause.
  uint64_t Pauses = 0;
  for (unsigned I = 0; I != kWorkers; ++I)
    Pauses += Pool->workerStats(I).Pauses.load();
  EXPECT_GE(Pauses, kWorkers);
}

// --- Barrier semantics on a bare runtime (no FlashEd) -------------------

int64_t firstV1(int64_t) { return 1; }
int64_t secondV1(int64_t) { return 1; }
int64_t firstV2(int64_t) { return 2; }
int64_t secondV2(int64_t) { return 2; }

/// A pool whose handler calls TWO updateables per request; a patch that
/// swings both must never be observed half-applied.  The patch is
/// code-only, so it commits *rolling* — each worker's view swings at
/// its own quiescent point, with zero barrier rounds and zero parks —
/// and the atomicity guarantee must survive without the barrier.
TEST(ReactorPoolBarrierTest, NoRequestObservesAHalfCommittedBinding) {
  Runtime RT;
  auto First = RT.defineUpdateable("pair.first", &firstV1);
  auto Second = RT.defineUpdateable("pair.second", &secondV1);
  ASSERT_TRUE(First);
  ASSERT_TRUE(Second);

  net::PoolOptions O;
  O.Workers = kWorkers;
  O.PollTimeoutMs = 2;
  net::ReactorPool Pool(
      [&](const RequestHead &Head, std::string_view, std::string &Out,
          SharedBody &) {
        std::string Body = std::to_string((*First)(0)) + "," +
                           std::to_string((*Second)(0));
        appendHttpResponse(Out, 200, "text/plain", Body, Head.KeepAlive);
      },
      O);
  Pool.setUpdateRuntime(RT);
  ASSERT_FALSE(Pool.start());

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> OldOld{0}, NewNew{0}, Torn{0};
  std::vector<std::thread> Loaders;
  for (unsigned T = 0; T != kWorkers; ++T)
    Loaders.emplace_back([&] {
      KeepAliveClient C;
      ASSERT_FALSE(C.connectTo(Pool.port()));
      while (!Stop.load()) {
        Expected<FetchResult> R = C.get("/pair");
        if (!R)
          break;
        if (R->Body == "1,1")
          OldOld.fetch_add(1);
        else if (R->Body == "2,2")
          NewNew.fetch_add(1);
        else
          Torn.fetch_add(1); // "1,2" / "2,1": half-committed binding
      }
    });

  WAIT_FOR(OldOld.load() >= 50);
  Expected<Patch> P = PatchBuilder(RT.types(), "pair-v2")
                          .describe("swing both bindings atomically")
                          .provide("pair.first", &firstV2)
                          .provide("pair.second", &secondV2)
                          .build();
  ASSERT_TRUE(P) << P.takeError().str();
  RT.requestUpdate(std::move(*P));
  Pool.wake();
  for (int Spin = 0; Spin != 2000 && RT.updatesApplied() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(RT.updatesApplied(), 1u);
  WAIT_FOR(NewNew.load() >= 50);
  Stop.store(true);
  for (std::thread &T : Loaders)
    T.join();
  Pool.stop();

  EXPECT_GT(OldOld.load(), 0u);
  EXPECT_GT(NewNew.load(), 0u);
  EXPECT_EQ(Torn.load(), 0u);
  // The commit was rolling: no barrier, no parked worker.
  EXPECT_EQ(RT.rollingCommits(), 1u);
  EXPECT_EQ(Pool.barrierRounds(), 0u);
  uint64_t Parks = 0;
  for (unsigned I = 0; I != Pool.workers(); ++I)
    Parks += Pool.workerStats(I).Pauses.load();
  EXPECT_EQ(Parks, 0u);
}

/// A worker stuck mid-request must DELAY the barrier (the update waits
/// for quiescence), never be skipped over.  The patch ships a state
/// migration: code-only patches no longer need the barrier at all.
TEST(ReactorPoolBarrierTest, StuckWorkerDelaysTheBarrier) {
  Runtime RT;
  auto Fn = RT.defineUpdateable("slow.fn", &firstV1);
  ASSERT_TRUE(Fn);
  defineMigratableCell(RT, "slowcell", "slow.cell");

  std::mutex GateMu;
  std::condition_variable GateCV;
  bool GateOpen = false;
  std::atomic<bool> HandlerEntered{false};

  net::PoolOptions O;
  O.Workers = 2;
  O.PollTimeoutMs = 2;
  net::ReactorPool Pool(
      [&](const RequestHead &Head, std::string_view, std::string &Out,
          SharedBody &) {
        if (Head.Target == "/block") {
          HandlerEntered.store(true);
          std::unique_lock<std::mutex> L(GateMu);
          GateCV.wait(L, [&] { return GateOpen; });
        }
        appendHttpResponse(Out, 200, "text/plain",
                           std::to_string((*Fn)(0)), Head.KeepAlive);
      },
      O);
  Pool.setUpdateRuntime(RT);
  ASSERT_FALSE(Pool.start());

  // Occupy one worker mid-request.
  std::thread Blocked([&] {
    Expected<FetchResult> R = httpGet(Pool.port(), "/block");
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Status, 200);
  });
  WAIT_FOR(HandlerEntered.load());

  // Queue a state-migrating update: it must NOT commit while the
  // worker is stuck (the barrier waits for quiescence).
  Expected<Patch> P = makeMigratingPatch(RT, "slowcell", 1);
  ASSERT_TRUE(P);
  RT.requestUpdate(std::move(*P));
  Pool.wake();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(RT.updatesApplied(), 0u)
      << "barrier committed while a worker was mid-request";
  EXPECT_TRUE(RT.updatePending());

  // Release the stuck worker: the barrier forms and the update lands.
  {
    std::lock_guard<std::mutex> L(GateMu);
    GateOpen = true;
  }
  GateCV.notify_all();
  Blocked.join();
  for (int Spin = 0; Spin != 2000 && RT.updatesApplied() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(RT.updatesApplied(), 1u);
  Pool.stop();
}

/// Graceful pool stop: buffered pipelined requests are served and
/// flushed before the connection closes; the listener closes first.
TEST(ReactorPoolBarrierTest, StopDrainsInFlightPipelinedRequests) {
  std::mutex GateMu;
  std::condition_variable GateCV;
  bool GateOpen = false;
  std::atomic<bool> HandlerEntered{false};

  net::PoolOptions O;
  O.Workers = 2;
  O.PollTimeoutMs = 2;
  net::ReactorPool Pool(
      [&](const RequestHead &Head, std::string_view, std::string &Out,
          SharedBody &) {
        if (Head.Target == "/block" && !HandlerEntered.exchange(true)) {
          std::unique_lock<std::mutex> L(GateMu);
          GateCV.wait(L, [&] { return GateOpen; });
        }
        appendHttpResponse(Out, 200, "text/plain", "ok", Head.KeepAlive);
      },
      O);
  ASSERT_FALSE(Pool.start());

  int Fd = rawConnect(Pool.port());
  ASSERT_GE(Fd, 0);
  // Three pipelined requests in one burst; the first parks the worker
  // so all three are guaranteed to be in the server's buffer when stop
  // begins.
  std::string Burst;
  for (const char *T : {"/block", "/a", "/b"})
    Burst += std::string("GET ") + T + " HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(Fd, Burst.data(), Burst.size(), 0),
            static_cast<ssize_t>(Burst.size()));
  WAIT_FOR(HandlerEntered.load());

  std::thread Stopper([&] { Pool.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> L(GateMu);
    GateOpen = true;
  }
  GateCV.notify_all();
  Stopper.join();

  // All three responses arrived, then EOF — nothing was dropped by the
  // shutdown race.
  std::string All = readAll(Fd);
  ::close(Fd);
  EXPECT_EQ(countOccurrences(All, "HTTP/1.1 200"), 3u);
  EXPECT_EQ(countOccurrences(All, "ok"), 3u);
}

} // namespace
