//===- tests/syscall/test_syscall.cpp - Syscalls per request ---*- C++ -*-===//
///
/// \file
/// Pins how many times the reactor enters the kernel per served request,
/// by count rather than by time: a one-shot GET costs one accept4, one
/// read, one writev and one close, and never touches epoll_ctl or
/// setsockopt; a keep-alive GET after the first costs one read and one
/// writev.  A bare net::Reactor is driven through pollOnce(0) on the
/// test thread, and every client connects and sends before the first
/// poll, so the counts do not depend on scheduling.  The client side
/// uses send/recv, which are not counted.
///
/// The same binary checks the two kernel behaviours the reactor relies
/// on: an accepted socket inherits TCP_NODELAY from its listener, and a
/// socket closed without EPOLL_CTL_DEL leaves the epoll set.  It also
/// fails directory fsyncs on demand, to check that the update journal
/// refuses what it cannot make durable.
///
//===----------------------------------------------------------------------===//

#include "SyscallCount.h"

#include "net/Reactor.h"
#include "persist/Journal.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <cstdlib>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

using namespace dsu;

namespace {

/// A reactor that answers every request with a fixed "ok".
net::Reactor::FastHandler okHandler() {
  return [](const flashed::RequestHead &Head, std::string_view,
            std::string &Out, std::shared_ptr<const std::string> &) {
    flashed::appendHttpResponse(Out, 200, "text/plain", "ok",
                                Head.KeepAlive);
  };
}

int connectTo(uint16_t Port) {
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

bool sendAll(int Fd, const std::string &Bytes) {
  return ::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(Bytes.size());
}

/// Appends what \p Fd holds to \p Raw without blocking; true at EOF.
bool recvAvailable(int Fd, std::string &Raw) {
  char Buf[4096];
  while (true) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N == 0)
      return true;
    if (N < 0)
      return false;
    Raw.append(Buf, static_cast<size_t>(N));
  }
}

constexpr const char *kOneShotGet = "GET /x HTTP/1.0\r\n\r\n";
constexpr const char *kKeepAliveGet = "GET /x HTTP/1.1\r\nHost: t\r\n\r\n";
constexpr int kMaxPolls = 100;

/// Polls \p R until \p Done holds, at most kMaxPolls times.
template <typename Pred> bool pollUntil(net::Reactor &R, Pred Done) {
  for (int I = 0; I != kMaxPolls; ++I) {
    Expected<int> N = R.pollOnce(0);
    if (!N) {
      ADD_FAILURE() << N.takeError().str();
      return false;
    }
    if (Done())
      return true;
  }
  return false;
}

void accumulate(syscall_pin::Counts &Sum, const syscall_pin::Counts &C) {
  Sum.Accept4 += C.Accept4;
  Sum.Read += C.Read;
  Sum.Writev += C.Writev;
  Sum.Close += C.Close;
  Sum.EpollCtl += C.EpollCtl;
  Sum.EpollWait += C.EpollWait;
  Sum.Setsockopt += C.Setsockopt;
}

TEST(SyscallPinTest, OneShotGetCostsAcceptReadWritevClose) {
  net::Reactor R(okHandler());
  ASSERT_FALSE(R.open({}));
  constexpr uint64_t K = 16;
  syscall_pin::Counts Sum;
  for (uint64_t I = 0; I != K; ++I) {
    int Fd = connectTo(R.port());
    ASSERT_GE(Fd, 0);
    ASSERT_TRUE(sendAll(Fd, kOneShotGet));
    std::string Raw;
    syscall_pin::startCounting();
    bool Closed = pollUntil(R, [&] { return recvAvailable(Fd, Raw); });
    accumulate(Sum, syscall_pin::stopCounting());
    ::close(Fd);
    ASSERT_TRUE(Closed) << "no EOF after " << kMaxPolls << " polls";
    EXPECT_EQ(Raw.compare(0, 15, "HTTP/1.1 200 OK"), 0) << Raw;
  }
  EXPECT_EQ(R.requestsServed(), K);
  EXPECT_EQ(R.activeConnections(), 0u);
  EXPECT_EQ(Sum.Accept4, K);
  EXPECT_EQ(Sum.Read, K);
  EXPECT_EQ(Sum.Writev, K);
  EXPECT_EQ(Sum.Close, K);
  EXPECT_EQ(Sum.EpollCtl, 0u);
  EXPECT_EQ(Sum.Setsockopt, 0u);
}

TEST(SyscallPinTest, EachListenerEventAcceptsOneConnection) {
  // K connections wait in the backlog.  The level-triggered listener
  // fires once per poll while the backlog is non-empty, and each poll
  // serves the connection the previous one accepted, then accepts the
  // next: K + 1 epoll_waits, and no accept4 that returns EAGAIN.
  net::Reactor R(okHandler());
  ASSERT_FALSE(R.open({}));
  constexpr uint64_t K = 8;
  std::vector<int> Fds;
  for (uint64_t I = 0; I != K; ++I) {
    int Fd = connectTo(R.port());
    ASSERT_GE(Fd, 0);
    ASSERT_TRUE(sendAll(Fd, kOneShotGet));
    Fds.push_back(Fd);
  }
  std::vector<std::string> Raw(K);
  std::vector<bool> Closed(K, false);
  auto AllClosed = [&] {
    bool All = true;
    for (uint64_t I = 0; I != K; ++I) {
      if (!Closed[I])
        Closed[I] = recvAvailable(Fds[I], Raw[I]);
      All = All && Closed[I];
    }
    return All;
  };
  syscall_pin::startCounting();
  bool Done = pollUntil(R, AllClosed);
  syscall_pin::Counts C = syscall_pin::stopCounting();
  for (int Fd : Fds)
    ::close(Fd);
  ASSERT_TRUE(Done) << "connections left open after " << kMaxPolls
                    << " polls";
  for (const std::string &Response : Raw)
    EXPECT_EQ(Response.compare(0, 15, "HTTP/1.1 200 OK"), 0) << Response;
  EXPECT_EQ(R.requestsServed(), K);
  EXPECT_EQ(C.EpollWait, K + 1);
  EXPECT_EQ(C.Accept4, K);
  EXPECT_EQ(C.Read, K);
  EXPECT_EQ(C.Writev, K);
  EXPECT_EQ(C.Close, K);
  EXPECT_EQ(C.EpollCtl, 0u);
  EXPECT_EQ(C.Setsockopt, 0u);
}

TEST(SyscallPinTest, KeepAliveGetAfterTheFirstCostsReadAndWritev) {
  net::Reactor R(okHandler());
  ASSERT_FALSE(R.open({}));
  int Fd = connectTo(R.port());
  ASSERT_GE(Fd, 0);
  auto Answered = [&](std::string &Raw) {
    recvAvailable(Fd, Raw);
    return Raw.size() >= 2 && Raw.compare(Raw.size() - 2, 2, "ok") == 0;
  };

  // The first request: the connection stays open, so it is registered
  // with the epoll set exactly once.
  ASSERT_TRUE(sendAll(Fd, kKeepAliveGet));
  std::string Raw;
  syscall_pin::startCounting();
  ASSERT_TRUE(pollUntil(R, [&] { return Answered(Raw); }));
  syscall_pin::Counts First = syscall_pin::stopCounting();
  EXPECT_EQ(First.Accept4, 1u);
  EXPECT_EQ(First.Read, 1u);
  EXPECT_EQ(First.Writev, 1u);
  EXPECT_EQ(First.EpollCtl, 1u);
  EXPECT_EQ(First.Close, 0u);
  EXPECT_EQ(First.Setsockopt, 0u);

  constexpr uint64_t K = 16;
  syscall_pin::Counts Sum;
  for (uint64_t I = 0; I != K; ++I) {
    ASSERT_TRUE(sendAll(Fd, kKeepAliveGet));
    Raw.clear();
    syscall_pin::startCounting();
    bool Done = pollUntil(R, [&] { return Answered(Raw); });
    accumulate(Sum, syscall_pin::stopCounting());
    ASSERT_TRUE(Done) << "no response after " << kMaxPolls << " polls";
  }
  ::close(Fd);
  EXPECT_EQ(R.requestsServed(), K + 1);
  EXPECT_EQ(Sum.Read, K);
  EXPECT_EQ(Sum.Writev, K);
  EXPECT_EQ(Sum.EpollCtl, 0u);
  EXPECT_EQ(Sum.Accept4, 0u);
  EXPECT_EQ(Sum.Close, 0u);
}

/// A loopback listener on an ephemeral port, with TCP_NODELAY or not.
int listenLoopback(bool NoDelay, uint16_t &Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  int One = 1;
  if (NoDelay)
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t Len = sizeof(Addr);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 8) < 0 ||
      ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) < 0) {
    ::close(Fd);
    return -1;
  }
  Port = ntohs(Addr.sin_port);
  return Fd;
}

int noDelayOf(int Fd) {
  int V = -1;
  socklen_t Len = sizeof(V);
  if (::getsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &V, &Len) < 0)
    return -1;
  return V;
}

TEST(KernelAssumptionTest, AcceptedSocketInheritsListenerNoDelay) {
  for (bool NoDelay : {false, true}) {
    uint16_t Port = 0;
    int L = listenLoopback(NoDelay, Port);
    ASSERT_GE(L, 0);
    int C = connectTo(Port);
    ASSERT_GE(C, 0);
    int A = ::accept4(L, nullptr, nullptr, SOCK_CLOEXEC);
    ASSERT_GE(A, 0);
    EXPECT_EQ(noDelayOf(A), NoDelay ? 1 : 0)
        << "listener TCP_NODELAY=" << NoDelay;
    ::close(A);
    ::close(C);
    ::close(L);
  }
}

TEST(KernelAssumptionTest, SocketClosedWithoutEpollCtlDelLeavesTheSet) {
  uint16_t Port = 0;
  int L = listenLoopback(true, Port);
  ASSERT_GE(L, 0);
  int C = connectTo(Port);
  ASSERT_GE(C, 0);
  int A = ::accept4(L, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  ASSERT_GE(A, 0);
  int Ep = ::epoll_create1(EPOLL_CLOEXEC);
  ASSERT_GE(Ep, 0);
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.fd = A;
  ASSERT_EQ(::epoll_ctl(Ep, EPOLL_CTL_ADD, A, &Ev), 0);

  // Registered and readable: the set reports it.
  ASSERT_TRUE(sendAll(C, "x"));
  epoll_event Out[4];
  EXPECT_EQ(::epoll_wait(Ep, Out, 4, 100), 1);

  // Closed without EPOLL_CTL_DEL: neither unread input, nor more input,
  // nor the peer's close produces an event.
  ::close(A);
  EXPECT_EQ(::epoll_wait(Ep, Out, 4, 0), 0);
  sendAll(C, "y");
  ::shutdown(C, SHUT_RDWR);
  EXPECT_EQ(::epoll_wait(Ep, Out, 4, 50), 0);
  ::close(C);
  EXPECT_EQ(::epoll_wait(Ep, Out, 4, 50), 0);
  ::close(Ep);
  ::close(L);
}

/// An empty journal directory under the test temp dir.
std::string freshJournalDir(const std::string &Name) {
  std::string D = ::testing::TempDir() + "dsu_syscall_" + Name;
  std::system(("rm -rf '" + D + "'").c_str());
  return D;
}

TEST(JournalDirSyncTest, FailedStoreSyncRefusesTheIntent) {
  // The artifact's rename into the store is durable only once the store
  // directory is synced.  When that sync fails, no Intent may name the
  // artifact: replay after a power loss could not read it back.
  Expected<std::unique_ptr<persist::UpdateJournal>> J =
      persist::UpdateJournal::open(freshJournalDir("intent"));
  ASSERT_TRUE(J) << J.takeError().str();
  const std::string Art = "(patch (id \"dirsync\"))";
  syscall_pin::failDirFsync(true);
  Expected<uint64_t> Seq =
      (*J)->appendIntent("dirsync", Art, persist::IntentOrigin::Operator);
  syscall_pin::failDirFsync(false);
  ASSERT_FALSE(Seq) << "Intent " << *Seq << " appended without a store sync";
  EXPECT_EQ(Seq.error().code(), ErrorCode::EC_IO);
  for (const persist::JournalRecord &R : (*J)->records())
    EXPECT_NE(R.Kind, persist::RecordKind::Intent);

  // Once the directory syncs again, a retry publishes and logs it.
  Seq = (*J)->appendIntent("dirsync", Art, persist::IntentOrigin::Operator);
  ASSERT_TRUE(Seq) << Seq.takeError().str();
  Expected<std::string> Back =
      (*J)->readArtifact(persist::UpdateJournal::artifactHash(Art));
  ASSERT_TRUE(Back) << Back.takeError().str();
  EXPECT_EQ(*Back, Art);
}

TEST(JournalDirSyncTest, FailedDirectorySyncRefusesOpen) {
  syscall_pin::failDirFsync(true);
  Expected<std::unique_ptr<persist::UpdateJournal>> J =
      persist::UpdateJournal::open(freshJournalDir("open"));
  syscall_pin::failDirFsync(false);
  ASSERT_FALSE(J) << "journal opened without syncing its directory";
  EXPECT_EQ(J.error().code(), ErrorCode::EC_IO);
}

} // namespace
