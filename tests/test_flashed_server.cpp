//===- tests/test_flashed_server.cpp - Live-server tests ------*- C++ -*-===//
///
/// FlashEd over real sockets: a 1-worker ReactorPool — the production
/// front end — serves loopback clients and applies dynamic patches at
/// its update point, between requests: the paper's headline scenario
/// (updating a running web server with zero downtime).  The tests of
/// reactor mechanics (buffer caps, graceful drain, listener lifecycle)
/// drive a bare net::Reactor, the layer that implements them.

#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/Patches.h"
#include "net/ReactorPool.h"
#include "patch/PatchLoader.h"
#include "runtime/UpdateController.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace dsu;
using namespace dsu::flashed;

namespace {

/// The request handler every server in this file runs: FlashEd's one
/// served path, for one-shot and keep-alive connections alike.
net::Reactor::FastHandler appHandler(FlashedApp &App) {
  return [&App](const RequestHead &Head, std::string_view Raw,
                std::string &Out, SharedBody &Body) {
    App.handleInto(Head, Raw, Out, Body);
  };
}

/// A bare net::Reactor polled on its own thread until a requested drain
/// completes: no pool and no update point around it.
struct ReactorLoop {
  explicit ReactorLoop(FlashedApp &App) : R(appHandler(App)) {}
  ~ReactorLoop() {
    R.requestStop();
    join();
  }
  ReactorLoop(const ReactorLoop &) = delete;
  ReactorLoop &operator=(const ReactorLoop &) = delete;

  Error start(const net::ReactorOptions &O = {}) {
    if (Error E = R.open(O))
      return E;
    Loop = std::thread([this] {
      while (!R.drainComplete()) {
        Expected<int> N = R.pollOnce(5);
        if (!N) {
          ADD_FAILURE() << N.takeError().str();
          return;
        }
      }
    });
    return Error::success();
  }

  void join() {
    if (Loop.joinable())
      Loop.join();
  }

  net::Reactor R;
  std::thread Loop;
};

/// Writes \p Bytes to a fresh loopback connection in one send and
/// returns everything the server answers until it closes.  \p Closed is
/// false when the server kept the connection open for 2 s instead.
std::string exchangeUntilClose(uint16_t Port, const std::string &Bytes,
                               bool &Closed) {
  Closed = false;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return {};
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  timeval Tv{2, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  std::string Raw;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
          0 &&
      ::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(Bytes.size())) {
    char Buf[4096];
    while (true) {
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N <= 0) {
        Closed = N == 0;
        break;
      }
      Raw.append(Buf, static_cast<size_t>(N));
    }
  }
  ::close(Fd);
  return Raw;
}

/// How many responses \p Raw holds, by status line.
size_t countResponses(std::string_view Raw) {
  size_t N = 0;
  for (size_t At = Raw.find("HTTP/1.1 "); At != std::string_view::npos;
       At = Raw.find("HTTP/1.1 ", At + 1))
    ++N;
  return N;
}

/// FlashEd on a 1-worker ReactorPool wired to its runtime: the worker
/// commits staged updates at its update point, which on a persistent
/// connection falls between two requests.  The pool is declared last,
/// so its destructor stops it before the app and runtime go away.
class ServerTest : public ::testing::Test {
protected:
  void SetUp() override {
    DocStore Docs;
    Docs.put("/index.html", "<html>home</html>");
    Docs.put("/doc.html", "<html>doc</html>");
    Docs.fillSynthetic(4, 1024);
    ASSERT_FALSE(App.init(std::move(Docs)));

    Srv = std::make_unique<net::ReactorPool>(appHandler(App));
    Srv->setUpdateRuntime(RT);
    ASSERT_FALSE(Srv->start());
  }

  Runtime RT;
  FlashedApp App{RT};
  std::unique_ptr<net::ReactorPool> Srv;
};

TEST_F(ServerTest, ServesOverLoopback) {
  Expected<FetchResult> R = httpGet(Srv->port(), "/doc.html");
  ASSERT_TRUE(R) << R.takeError().str();
  EXPECT_EQ(R->Status, 200);
  EXPECT_EQ(R->Body, "<html>doc</html>");
  EXPECT_NE(R->Headers.find("Content-Type: text/html"), std::string::npos);
}

TEST_F(ServerTest, SequentialRequests) {
  for (int I = 0; I != 32; ++I) {
    Expected<FetchResult> R = httpGet(Srv->port(), "/doc0.html");
    ASSERT_TRUE(R) << R.takeError().str();
    EXPECT_EQ(R->Status, 200);
    EXPECT_EQ(R->Body.size(), 1024u);
  }
  EXPECT_GE(Srv->requestsServed(), 32u);
}

TEST_F(ServerTest, NotFoundAndErrors) {
  Expected<FetchResult> R = httpGet(Srv->port(), "/missing.html");
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Status, 404);
}

TEST_F(ServerTest, LoadGenerator) {
  Expected<LoadStats> S =
      runLoad(Srv->port(), {"/doc0.html", "/doc1.html"}, 64);
  ASSERT_TRUE(S) << S.takeError().str();
  EXPECT_EQ(S->Requests, 64u);
  EXPECT_EQ(S->Failures, 0u);
  EXPECT_GT(S->requestsPerSecond(), 0.0);
  EXPECT_GT(S->BytesReceived, 64u * 1024u);
}

TEST_F(ServerTest, LiveUpdateBetweenRequests) {
  // The seeded v1 bug, observed over the wire.
  Expected<FetchResult> Before = httpGet(Srv->port(), "/doc.html?x=1");
  ASSERT_TRUE(Before);
  EXPECT_EQ(Before->Status, 404);

  // Queue P1 from this (client) thread; the worker applies it at its
  // next update point.
  Expected<Patch> P1 = makePatchP1(App);
  ASSERT_TRUE(P1) << P1.takeError().str();
  RT.requestUpdate(std::move(*P1));

  // The update point runs within one poll cycle.
  for (int Spin = 0; Spin != 100 && RT.updatesApplied() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(RT.updatesApplied(), 1u);

  Expected<FetchResult> After = httpGet(Srv->port(), "/doc.html?x=1");
  ASSERT_TRUE(After);
  EXPECT_EQ(After->Status, 200);
  EXPECT_EQ(After->Body, "<html>doc</html>");
}

TEST_F(ServerTest, FullEvolutionUnderTraffic) {
  // Interleave the whole P1..P5 series with live requests.
  Expected<std::vector<Patch>> Series = makePatchSeries(App);
  ASSERT_TRUE(Series) << Series.takeError().str();

  unsigned Expected200 = 0, Got200 = 0;
  for (Patch &P : *Series) {
    RT.requestUpdate(std::move(P));
    unsigned Want = RT.updatesApplied() + 1;
    for (int Spin = 0; Spin != 200 && RT.updatesApplied() < Want; ++Spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(RT.updatesApplied(), Want);

    for (int I = 0; I != 4; ++I) {
      ++Expected200;
      Expected<FetchResult> R = httpGet(Srv->port(), "/doc0.html");
      ASSERT_TRUE(R);
      if (R->Status == 200 && R->Body.size() == 1024)
        ++Got200;
    }
  }
  EXPECT_EQ(Got200, Expected200);
  EXPECT_EQ(RT.updatesApplied(), 5u);

  // Post-evolution: hit counting and logging observable over the wire.
  auto Count = cantFail(bindUpdateable<int64_t()>(
      RT.updateables(), RT.types(), "flashed.log_count"));
  EXPECT_GT(Count(), 0);
}

TEST(ServerLimitsTest, OverlongIncompleteRequestDisconnected) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/x.html", "x");
  ASSERT_FALSE(App.init(std::move(Docs)));
  ReactorLoop Srv(App);
  net::ReactorOptions O;
  O.MaxRequestBytes = 4096;
  ASSERT_FALSE(Srv.start(O));

  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Srv.R.port());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);

  // Header bytes with no terminating blank line, well past the cap.  A
  // client that streams bytes without ever completing a request must be
  // cut off.
  std::string Chunk(1024, 'A');
  bool Rejected = false;
  for (int I = 0; I != 64 && !Rejected; ++I) {
    ssize_t N = ::send(Fd, Chunk.data(), Chunk.size(), MSG_NOSIGNAL);
    if (N < 0)
      Rejected = true; // server already reset the connection
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!Rejected) {
    // The close must surface as EOF or a reset on our side; a receive
    // timeout (EAGAIN) means the cap was never enforced and the test
    // must fail.
    timeval Tv{2, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
    char Buf[64];
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    Rejected = N == 0 || (N < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }
  ::close(Fd);
  EXPECT_TRUE(Rejected);

  // Well-behaved clients are unaffected.
  Expected<FetchResult> R = httpGet(Srv.R.port(), "/x.html");
  ASSERT_TRUE(R) << R.takeError().str();
  EXPECT_EQ(R->Status, 200);
}

TEST(ServerStatsTest, EveryServedRequestIsTimedAndClassified) {
  // One-shot HTTP/1.0 and keep-alive HTTP/1.1 requests share one served
  // path, so every request is timed and classified: the per-worker
  // health a canary rollout's gates compare has no blind spot.
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/doc.html", "<html>doc</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));
  net::ReactorPool Srv([&App](const RequestHead &Head, std::string_view Raw,
                              std::string &Out, SharedBody &Body) {
    if (Head.Target == "/boom")
      appendHttpResponse(Out, 500, "text/plain", "boom\n", Head.KeepAlive);
    else
      App.handleInto(Head, Raw, Out, Body);
  });
  Srv.setUpdateRuntime(RT);
  ASSERT_FALSE(Srv.start());

  const char *Targets[] = {"/doc.html", "/boom", "/missing.html"};
  const int Statuses[] = {200, 500, 404};
  uint64_t Sent = 0, Sent500 = 0;
  for (int I = 0; I != 6; ++I) {
    Expected<FetchResult> R = httpGet(Srv.port(), Targets[I % 3]);
    ASSERT_TRUE(R) << R.takeError().str();
    EXPECT_EQ(R->Status, Statuses[I % 3]);
    EXPECT_NE(R->Headers.find("Connection: close"), std::string::npos);
    ++Sent;
    Sent500 += R->Status == 500;
  }
  KeepAliveClient C;
  ASSERT_FALSE(C.connectTo(Srv.port()));
  for (int I = 0; I != 9; ++I) {
    Expected<FetchResult> R = C.get(Targets[I % 3]);
    ASSERT_TRUE(R) << R.takeError().str();
    EXPECT_EQ(R->Status, Statuses[I % 3]);
    EXPECT_NE(R->Headers.find("Connection: keep-alive"), std::string::npos);
    ++Sent;
    Sent500 += R->Status == 500;
  }
  Srv.stop();

  const net::WorkerStats &S = Srv.workerStats(0);
  EXPECT_EQ(S.Requests.load(), Sent);
  EXPECT_EQ(S.Serves.load(), S.Requests.load());
  EXPECT_EQ(S.Errors5xx.load(), Sent500);
  EXPECT_EQ(Sent500, 5u);
  EXPECT_EQ(S.Connections.load(), 7u); // six one-shot plus one persistent
}

// --- Persistent-connection (keep-alive) tests ---------------------------

/// The same server as ServerTest; the suite name groups the keep-alive,
/// pipelining and graceful-stop cases.  The graceful-stop cases drain a
/// bare ReactorLoop of their own: ReactorPool::stop() blocks until the
/// drain ends, and these tests read from the server while it drains.
using FastServerTest = ServerTest;

TEST_F(FastServerTest, KeepAliveSequenceOnOneConnection) {
  KeepAliveClient C;
  ASSERT_FALSE(C.connectTo(Srv->port()));
  for (int I = 0; I != 32; ++I) {
    Expected<FetchResult> R = C.get("/doc0.html");
    ASSERT_TRUE(R) << R.takeError().str();
    EXPECT_EQ(R->Status, 200);
    EXPECT_EQ(R->Body.size(), 1024u);
    EXPECT_NE(R->Headers.find("Connection: keep-alive"),
              std::string::npos);
  }
  EXPECT_GE(Srv->requestsServed(), 32u);
  // All 32 requests rode one TCP connection.
  EXPECT_EQ(Srv->connectionsAccepted(), 1u);
}

TEST_F(FastServerTest, PipelinedRequestsInOneRead) {
  KeepAliveClient C;
  ASSERT_FALSE(C.connectTo(Srv->port()));
  Expected<std::vector<FetchResult>> Rs =
      C.pipeline({"/doc0.html", "/doc.html", "/index.html", "/doc1.html"});
  ASSERT_TRUE(Rs) << Rs.takeError().str();
  ASSERT_EQ(Rs->size(), 4u);
  // Responses come back in request order.
  EXPECT_EQ((*Rs)[0].Body.size(), 1024u);
  EXPECT_EQ((*Rs)[1].Body, "<html>doc</html>");
  EXPECT_EQ((*Rs)[2].Body, "<html>home</html>");
  EXPECT_EQ((*Rs)[3].Body.size(), 1024u);
  EXPECT_EQ(Srv->connectionsAccepted(), 1u);
}

TEST_F(FastServerTest, PipelinedBurstThenHalfCloseStillServed) {
  // A client may pipeline requests and immediately shut down its write
  // side; every buffered request must still be answered before the
  // server closes.
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Srv->port());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  std::string Burst;
  for (int I = 0; I != 3; ++I)
    Burst += "GET /doc.html HTTP/1.1\r\nHost: h\r\n\r\n";
  ASSERT_EQ(::send(Fd, Burst.data(), Burst.size(), 0),
            static_cast<ssize_t>(Burst.size()));
  ASSERT_EQ(::shutdown(Fd, SHUT_WR), 0);

  std::string Raw;
  char Buf[4096];
  while (true) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    Raw.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  size_t Hits = 0;
  for (size_t At = Raw.find("<html>doc</html>"); At != std::string::npos;
       At = Raw.find("<html>doc</html>", At + 1))
    ++Hits;
  EXPECT_EQ(Hits, 3u);
}

TEST_F(FastServerTest, ConnectionCloseHonored) {
  // A raw HTTP/1.1 exchange with "Connection: close": the server must
  // answer, echo the close, and actually close the socket (EOF).
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Srv->port());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  std::string Req = "GET /doc.html HTTP/1.1\r\nHost: h\r\n"
                    "Connection: close\r\n\r\n";
  ASSERT_EQ(::send(Fd, Req.data(), Req.size(), 0),
            static_cast<ssize_t>(Req.size()));

  std::string Raw;
  char Buf[4096];
  while (true) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break; // EOF: the server closed its side
    Raw.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  EXPECT_NE(Raw.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(Raw.find("Connection: close"), std::string::npos);
  EXPECT_NE(Raw.find("<html>doc</html>"), std::string::npos);
}

TEST_F(FastServerTest, InvalidContentLengthAnswers400AndCloses) {
  // RFC 9112 §6.3: the message framing is unknowable, so the server
  // answers 400 and closes.  No stage may serve the request.
  for (const char *Length : {"abc", "99999999999999999999999"}) {
    SCOPED_TRACE(Length);
    bool Closed = false;
    std::string Raw = exchangeUntilClose(
        Srv->port(),
        std::string("GET /doc.html HTTP/1.1\r\nHost: h\r\nContent-Length: ") +
            Length + "\r\n\r\n",
        Closed);
    EXPECT_TRUE(Closed);
    EXPECT_EQ(Raw.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << Raw;
    EXPECT_NE(Raw.find("Connection: close\r\n"), std::string::npos) << Raw;
    EXPECT_EQ(Raw.find("<html>doc</html>"), std::string::npos) << Raw;
  }
}

TEST_F(FastServerTest, RejectedHeaderLinesAnswer400AndDropWhatFollows) {
  // A header line without a colon, or one header line too many, gets a
  // 400 and a close; a valid request pipelined behind it in the same
  // write is never answered, since its framing is lost.
  std::string TooMany;
  for (unsigned I = 0; I != MaxHeaderLines + 1; ++I)
    TooMany += "X-H" + std::to_string(I) + ": v\r\n";
  const std::string Valid = "GET /doc.html HTTP/1.1\r\nHost: h\r\n\r\n";
  for (const std::string &Bad :
       {std::string("BadHeaderNoColon\r\n"), TooMany}) {
    bool Closed = false;
    std::string Raw = exchangeUntilClose(
        Srv->port(),
        "GET /doc.html HTTP/1.1\r\nHost: h\r\n" + Bad + "\r\n" + Valid,
        Closed);
    EXPECT_TRUE(Closed);
    EXPECT_EQ(countResponses(Raw), 1u) << Raw;
    EXPECT_EQ(Raw.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << Raw;
    EXPECT_NE(Raw.find("Connection: close\r\n"), std::string::npos) << Raw;
  }
}

TEST_F(FastServerTest, HeadErrorResponseEndsAtItsHead) {
  // RFC 9110 §9.3.2: a HEAD response carries no body, errors included.
  // Bytes after the head would desync the keep-alive connection, and the
  // GET behind it would not parse.
  const std::pair<const char *, const char *> Cases[] = {
      {"/ghost.html", "HTTP/1.1 404 Not Found\r\n"},
      {"/../etc/passwd", "HTTP/1.1 403 Forbidden\r\n"}};
  for (const auto &[Target, StatusLine] : Cases) {
    SCOPED_TRACE(Target);
    bool Closed = false;
    std::string Raw = exchangeUntilClose(
        Srv->port(),
        std::string("HEAD ") + Target +
            " HTTP/1.1\r\nHost: h\r\n\r\n"
            "GET /doc.html HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        Closed);
    EXPECT_TRUE(Closed);
    size_t HeadEnd = Raw.find("\r\n\r\n");
    ASSERT_NE(HeadEnd, std::string::npos) << Raw;
    std::string Head = Raw.substr(0, HeadEnd + 4);
    EXPECT_EQ(Head.rfind(StatusLine, 0), 0u) << Head;
    // The Content-Length a GET would have carried.
    EXPECT_NE(Head.find("Content-Length: 49\r\n"), std::string::npos) << Head;
    EXPECT_NE(Head.find("Connection: keep-alive\r\n"), std::string::npos);
    std::string Next = Raw.substr(HeadEnd + 4);
    EXPECT_EQ(Next.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << Next;
    EXPECT_EQ(Next.substr(Next.find("\r\n\r\n") + 4), "<html>doc</html>");
  }
}

TEST_F(FastServerTest, PartialWritesUnderTinyReceiveBuffer) {
  // An 8 MiB body against a deliberately tiny client receive window
  // forces the server through its EAGAIN/EPOLLOUT partial-write path
  // (writev of the shared body tail across many rounds).
  App.docs().put("/big.bin", syntheticBody(8u << 20, 42));

  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  int Tiny = 4096;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &Tiny, sizeof(Tiny));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Srv->port());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  std::string Req = "GET /big.bin HTTP/1.1\r\nHost: h\r\n\r\n";
  ASSERT_EQ(::send(Fd, Req.data(), Req.size(), 0),
            static_cast<ssize_t>(Req.size()));

  // Read the head, then drain exactly Content-Length body bytes.
  std::string Raw;
  char Buf[8192];
  size_t HeadEnd = std::string::npos;
  while ((HeadEnd = Raw.find("\r\n\r\n")) == std::string::npos) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    ASSERT_GT(N, 0);
    Raw.append(Buf, static_cast<size_t>(N));
  }
  ASSERT_NE(Raw.find("HTTP/1.1 200 OK"), std::string::npos);
  size_t Want = (8u << 20) + HeadEnd + 4;
  while (Raw.size() < Want) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    ASSERT_GT(N, 0);
    Raw.append(Buf, static_cast<size_t>(N));
  }
  EXPECT_EQ(Raw.size(), Want);
  EXPECT_EQ(Raw.substr(HeadEnd + 4), syntheticBody(8u << 20, 42));

  // The connection survived the backpressure and still serves.
  std::string Req2 = "GET /doc.html HTTP/1.1\r\nHost: h\r\n"
                     "Connection: close\r\n\r\n";
  ASSERT_EQ(::send(Fd, Req2.data(), Req2.size(), 0),
            static_cast<ssize_t>(Req2.size()));
  std::string Raw2;
  while (true) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    Raw2.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  EXPECT_NE(Raw2.find("<html>doc</html>"), std::string::npos);
}

TEST_F(FastServerTest, UpdateAppliesBetweenKeepAliveRequests) {
  // The paper's update point fires between two requests of the SAME
  // persistent connection: v1 bug before, patched behaviour after,
  // zero downtime and zero reconnects.
  KeepAliveClient C;
  ASSERT_FALSE(C.connectTo(Srv->port()));

  Expected<FetchResult> Before = C.get("/doc.html?x=1");
  ASSERT_TRUE(Before) << Before.takeError().str();
  EXPECT_EQ(Before->Status, 404); // the seeded v1 query-string bug

  Expected<Patch> P1 = makePatchP1(App);
  ASSERT_TRUE(P1) << P1.takeError().str();
  RT.requestUpdate(std::move(*P1));
  for (int Spin = 0; Spin != 100 && RT.updatesApplied() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(RT.updatesApplied(), 1u);

  Expected<FetchResult> After = C.get("/doc.html?x=1");
  ASSERT_TRUE(After) << After.takeError().str();
  EXPECT_EQ(After->Status, 200);
  EXPECT_EQ(After->Body, "<html>doc</html>");
  // Both exchanges used one connection: the update really happened
  // mid-connection.
  EXPECT_EQ(Srv->connectionsAccepted(), 1u);
}

TEST_F(FastServerTest, FreshConnectionAfterRollingCommitServesNewCode) {
  // A request is served only after an idle point that follows its
  // connection's accept.  Two workers with a long poll timeout: the one
  // that accepts the trigger connection commits the rolling VTAL parse
  // fix at its idle point, while the other sits in epoll_wait on the
  // epoch it observed before the commit.  Every fresh connection after
  // the commit, whichever worker the kernel hands it to, must run the
  // fix.
  Srv.reset();
  net::PoolOptions O;
  O.Workers = 2;
  O.PollTimeoutMs = 10000;
  Srv = std::make_unique<net::ReactorPool>(appHandler(App), O);
  Srv->setUpdateRuntime(RT);
  ASSERT_FALSE(Srv->start());

  Expected<Patch> P =
      loadVtalPatch(RT.types(), RT.exports(), vtalParseFixPatchText());
  ASSERT_TRUE(P) << P.takeError().str();
  RT.requestUpdate(std::move(*P));
  Expected<FetchResult> Trigger = httpGet(Srv->port(), "/index.html");
  ASSERT_TRUE(Trigger) << Trigger.takeError().str();
  for (int Spin = 0; Spin != 1000 && RT.updatesApplied() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(RT.updatesApplied(), 1u);
  EXPECT_EQ(RT.rollingCommits(), 1u);
  EXPECT_EQ(Srv->barrierRounds(), 0u);

  for (int I = 0; I != 50; ++I) {
    Expected<FetchResult> R = httpGet(Srv->port(), "/doc.html?x=1");
    ASSERT_TRUE(R) << R.takeError().str();
    EXPECT_EQ(R->Status, 200) << "request " << I;
  }
  // The kernel spread the connections over both workers.
  EXPECT_GT(Srv->workerStats(0).Requests.load(), 0u);
  EXPECT_GT(Srv->workerStats(1).Requests.load(), 0u);
}

// --- The /admin control plane over the wire ------------------------------

/// ServerTest plus the admin surface: POSTed patch artifacts are
/// staged off-thread and committed at the worker's update point.
class AdminServerTest : public ServerTest {
protected:
  void SetUp() override {
    // Enable the control plane before the event loop starts: the serve
    // thread reads the admin pointer on every request.
    App.enableAdmin(RT.controller());
    ServerTest::SetUp();
  }
};

TEST_F(AdminServerTest, PatchPostedMidTrafficAppliesOnSameConnection) {
  // The acceptance scenario end to end: one persistent connection
  // observes the v1 bug, ships the fix through POST /admin/patches, and
  // sees the patched behaviour — staging off-thread, commit at the
  // worker's update point, zero reconnects.
  KeepAliveClient C;
  ASSERT_FALSE(C.connectTo(Srv->port()));

  Expected<FetchResult> Before = C.get("/doc.html?x=1");
  ASSERT_TRUE(Before) << Before.takeError().str();
  EXPECT_EQ(Before->Status, 404); // the seeded v1 query-string bug

  Expected<FetchResult> Post =
      C.post("/admin/patches", vtalParseFixPatchText(),
             "application/x-dsu-patch");
  ASSERT_TRUE(Post) << Post.takeError().str();
  EXPECT_EQ(Post->Status, 202);
  EXPECT_NE(Post->Body.find("\"tx\""), std::string::npos);

  // The worker commits within a few poll cycles.
  for (int Spin = 0; Spin != 500 && RT.updatesApplied() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(RT.updatesApplied(), 1u);

  Expected<FetchResult> After = C.get("/doc.html?x=1");
  ASSERT_TRUE(After) << After.takeError().str();
  EXPECT_EQ(After->Status, 200);
  EXPECT_EQ(After->Body, "<html>doc</html>");
  // Every exchange — including the patch upload — rode one connection.
  EXPECT_EQ(Srv->connectionsAccepted(), 1u);

  // The update log reports the transaction with its stage/commit split.
  Expected<FetchResult> LogR = C.get("/admin/updates");
  ASSERT_TRUE(LogR) << LogR.takeError().str();
  EXPECT_EQ(LogR->Status, 200);
  EXPECT_NE(LogR->Body.find("\"phase\": \"committed\""),
            std::string::npos);
  EXPECT_NE(LogR->Body.find("P1-parse-query-fix-vtal"), std::string::npos);
  EXPECT_NE(LogR->Body.find("\"stage_ms\""), std::string::npos);
  EXPECT_NE(LogR->Body.find("\"commit_ms\""), std::string::npos);
}

TEST_F(AdminServerTest, MalformedArtifactSurfacesInUpdateLog) {
  KeepAliveClient C;
  ASSERT_FALSE(C.connectTo(Srv->port()));
  Expected<FetchResult> Post =
      C.post("/admin/patches", "(not a patch", "text/plain");
  ASSERT_TRUE(Post) << Post.takeError().str();
  EXPECT_EQ(Post->Status, 202); // accepted for staging...
  for (int Spin = 0; Spin != 500; ++Spin) {
    Expected<FetchResult> LogR = C.get("/admin/updates");
    ASSERT_TRUE(LogR);
    if (LogR->Body.find("stage-failed") != std::string::npos) {
      EXPECT_NE(LogR->Body.find("\"failure\""), std::string::npos);
      return; // ...and rejected by the staging worker, with a reason
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "stage failure never surfaced in /admin/updates";
}

TEST_F(AdminServerTest, StatusAndRollbackEndpoints) {
  KeepAliveClient C;
  ASSERT_FALSE(C.connectTo(Srv->port()));

  Expected<FetchResult> S = C.get("/admin/status");
  ASSERT_TRUE(S) << S.takeError().str();
  EXPECT_EQ(S->Status, 200);
  EXPECT_NE(S->Body.find("\"updates_applied\": 0"), std::string::npos);

  // Rolling back the initial version is a conflict (nothing prior)...
  Expected<FetchResult> R1 =
      C.post("/admin/rollback?name=flashed.mime_type", "");
  ASSERT_TRUE(R1);
  EXPECT_EQ(R1->Status, 409);
  // ...an unknown updateable is a 404...
  Expected<FetchResult> R2 = C.post("/admin/rollback?name=ghost", "");
  ASSERT_TRUE(R2);
  EXPECT_EQ(R2->Status, 404);

  // ...and after an update, rollback over the wire restores v1.
  Expected<Patch> P1 = makePatchP1(App);
  ASSERT_TRUE(P1);
  RT.requestUpdate(std::move(*P1));
  for (int Spin = 0; Spin != 500 && RT.updatesApplied() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(RT.updatesApplied(), 1u);
  ASSERT_EQ(C.get("/doc.html?x=1")->Status, 200);
  Expected<FetchResult> R3 =
      C.post("/admin/rollback?name=flashed.parse_target", "");
  ASSERT_TRUE(R3);
  EXPECT_EQ(R3->Status, 200);
  EXPECT_EQ(C.get("/doc.html?x=1")->Status, 404); // v1 bug is back

  // Unknown admin routes 404 without touching the updateable pipeline.
  Expected<FetchResult> R4 = C.get("/admin/nope");
  ASSERT_TRUE(R4);
  EXPECT_EQ(R4->Status, 404);
}

TEST(AdminStatusMappingTest, BusyIsRetryable) {
  // The EC_Busy -> 503 mapping the rollback endpoint relies on: busy is
  // retryable, link failures are 404, other rejections conflict.
  EXPECT_EQ(adminStatusForError(Error::success()), 200);
  EXPECT_EQ(adminStatusForError(
                Error::make(ErrorCode::EC_Busy, "active frames")),
            503);
  EXPECT_EQ(adminStatusForError(Error::make(ErrorCode::EC_Link, "none")),
            404);
  EXPECT_EQ(
      adminStatusForError(Error::make(ErrorCode::EC_Invalid, "initial")),
      409);
}

TEST(FastServerLimitsTest, BufferCapEnforcedOnPersistentConnection) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/x.html", "x");
  ASSERT_FALSE(App.init(std::move(Docs)));
  net::PoolOptions O;
  O.MaxRequestBytes = 4096;
  net::ReactorPool Srv(appHandler(App), O);
  Srv.setUpdateRuntime(RT);
  ASSERT_FALSE(Srv.start());

  // A well-formed keep-alive exchange first: the connection persists.
  KeepAliveClient C;
  ASSERT_FALSE(C.connectTo(Srv.port()));
  Expected<FetchResult> R = C.get("/x.html");
  ASSERT_TRUE(R) << R.takeError().str();
  EXPECT_EQ(R->Status, 200);

  // Then stream header bytes with no terminating blank line past the
  // cap on that same (persistent) connection: the server must cut it.
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Srv.port());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  std::string Ok = "GET /x.html HTTP/1.1\r\nHost: h\r\n\r\n";
  ASSERT_EQ(::send(Fd, Ok.data(), Ok.size(), 0),
            static_cast<ssize_t>(Ok.size()));
  // Consume the response so only garbage remains buffered server-side.
  char Buf[4096];
  std::string Head;
  while (Head.find("\r\n\r\n") == std::string::npos) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    ASSERT_GT(N, 0);
    Head.append(Buf, static_cast<size_t>(N));
  }

  std::string Chunk(1024, 'A');
  bool Rejected = false;
  for (int I = 0; I != 64 && !Rejected; ++I) {
    ssize_t N = ::send(Fd, Chunk.data(), Chunk.size(), MSG_NOSIGNAL);
    if (N < 0)
      Rejected = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!Rejected) {
    timeval Tv{2, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    Rejected = N == 0 || (N < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }
  ::close(Fd);
  EXPECT_TRUE(Rejected);
}

TEST_F(FastServerTest, GracefulStopDrainsBackpressuredPipelinedRequests) {
  // Four pipelined requests for a large body against a tiny client
  // receive window: at requestStop() time the server is guaranteed to
  // hold both unsent output and buffered not-yet-served requests.  A
  // graceful stop must serve and flush all of it before closing —
  // an immediate close() would drop them.
  App.docs().put("/big.bin", syntheticBody(1u << 20, 7));
  ReactorLoop Rx(App);
  ASSERT_FALSE(Rx.start());

  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  int Tiny = 4096;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &Tiny, sizeof(Tiny));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Rx.R.port());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  std::string Burst;
  for (int I = 0; I != 4; ++I)
    Burst += "GET /big.bin HTTP/1.1\r\nHost: h\r\n\r\n";
  ASSERT_EQ(::send(Fd, Burst.data(), Burst.size(), 0),
            static_cast<ssize_t>(Burst.size()));

  // Wait until at least one response started flowing, then stop while
  // later pipelined requests are still queued behind backpressure.
  for (int Spin = 0; Spin != 1000 && Rx.R.requestsServed() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GT(Rx.R.requestsServed(), 0u);
  Rx.R.requestStop();

  // Every byte of all four responses arrives, then EOF.
  std::string Raw;
  char Buf[8192];
  while (true) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    Raw.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  size_t Hits = 0;
  for (size_t Pos = Raw.find("HTTP/1.1 200 OK"); Pos != std::string::npos;
       Pos = Raw.find("HTTP/1.1 200 OK", Pos + 1))
    ++Hits;
  EXPECT_EQ(Hits, 4u);
  EXPECT_EQ(Raw.size(), 4 * ((1u << 20) + Raw.find("\r\n\r\n") + 4));

  // The loop thread exits on its own once the drain completes.
  Rx.join();
  EXPECT_TRUE(Rx.R.drainComplete());
}

TEST_F(FastServerTest, GracefulStopClosesIdleKeepAliveConnections) {
  ReactorLoop Rx(App);
  ASSERT_FALSE(Rx.start());
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Rx.R.port());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  std::string Req = "GET /doc.html HTTP/1.1\r\nHost: h\r\n\r\n";
  ASSERT_EQ(::send(Fd, Req.data(), Req.size(), 0),
            static_cast<ssize_t>(Req.size()));
  std::string Raw;
  char Buf[4096];
  while (Raw.find("</html>") == std::string::npos) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    ASSERT_GT(N, 0);
    Raw.append(Buf, static_cast<size_t>(N));
  }

  // The connection is now an idle keep-alive conn; requestStop() must
  // close it instead of leaving the client hanging.
  Rx.R.requestStop();
  ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
  EXPECT_EQ(N, 0); // clean EOF, not a timeout or reset
  ::close(Fd);
  Rx.join();
  EXPECT_TRUE(Rx.R.drainComplete());
}

TEST_F(FastServerTest, DrainDeadlineForceClosesStalledPeer) {
  // A client that requests a large body and then never reads it keeps
  // unsent output pending forever; the drain deadline must force-close
  // it so a stop cannot be wedged by one stalled peer.
  App.docs().put("/big.bin", syntheticBody(4u << 20, 9));
  ReactorLoop Rx(App);
  Rx.R.setDrainTimeout(100);
  ASSERT_FALSE(Rx.start());

  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  int Tiny = 4096;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &Tiny, sizeof(Tiny));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Rx.R.port());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  std::string Req = "GET /big.bin HTTP/1.1\r\nHost: h\r\n\r\n";
  ASSERT_EQ(::send(Fd, Req.data(), Req.size(), 0),
            static_cast<ssize_t>(Req.size()));
  for (int Spin = 0; Spin != 1000 && Rx.R.requestsServed() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  auto Begin = std::chrono::steady_clock::now();
  Rx.R.requestStop();
  Rx.join(); // must return: the stalled conn is cut at the deadline
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - Begin)
                .count();
  EXPECT_TRUE(Rx.R.drainComplete());
  EXPECT_LT(Ms, 3000);
  ::close(Fd);
}

TEST(ServerLifecycleTest, DoubleListenIsARealError) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/x.html", "x");
  ASSERT_FALSE(App.init(std::move(Docs)));
  net::Reactor R(appHandler(App));
  ASSERT_FALSE(R.open({}));
  uint16_t Port = R.port();
  // A second open must fail loudly (not assert, not leak an fd) and
  // leave the original listener serving.
  Error E = R.open({});
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.str().find("already listening"), std::string::npos);
  EXPECT_EQ(R.port(), Port);
  R.close();
}

TEST(ServerLifecycleTest, ShutdownAndRebind) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/x.html", "x");
  ASSERT_FALSE(App.init(std::move(Docs)));
  net::Reactor R(appHandler(App));
  ASSERT_FALSE(R.open({}));
  uint16_t Port = R.port();
  EXPECT_GT(Port, 0u);
  R.close();
  // Listening again picks a fresh ephemeral port.
  ASSERT_FALSE(R.open({}));
  EXPECT_GT(R.port(), 0u);
  R.close();
}

} // namespace
