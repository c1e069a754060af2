//===- net/Reactor.cpp ----------------------------------------*- C++ -*-===//

#include "net/Reactor.h"

#include "support/Logging.h"

#include <arpa/inet.h>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace dsu;
using namespace dsu::net;
using dsu::flashed::RequestHead;
using dsu::flashed::scanRequestHead;

namespace {

Error sysError(const char *What) {
  return Error::make(ErrorCode::EC_IO, "%s: %s", What,
                     std::strerror(errno));
}

/// How long the listener stays out of the epoll set after a persistent
/// accept failure (EMFILE and friends) before retrying.
constexpr std::chrono::milliseconds AcceptBackoffMs{100};

/// The most buffer capacity a closed connection keeps for the next
/// client: typical heads and responses fit, so recycled conns allocate
/// nothing, while a near-cap partial head does not stay resident.
constexpr size_t KeptBufferBytes = 64 << 10;

void releaseIfLarge(std::string &Buf) {
  if (Buf.capacity() > KeptBufferBytes)
    std::string().swap(Buf);
}

} // namespace

Reactor::~Reactor() { close(); }

void Reactor::close() {
  for (const std::unique_ptr<Conn> &C : Pool)
    if (C->Fd >= 0)
      ::close(C->Fd);
  Pool.clear();
  FreeList = nullptr;
  Fresh.clear();
  PendingRelease.clear();
  ActiveConns = 0;
  AcceptPaused = false;
  AcceptErrorLogged = false;
  Draining = false;
  StopRequested.store(false, std::memory_order_release);
  DrainDone.store(false, std::memory_order_release);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (WakeFd >= 0) {
    ::close(WakeFd);
    WakeFd = -1;
  }
  if (EpollFd >= 0) {
    ::close(EpollFd);
    EpollFd = -1;
  }
}

Error Reactor::open(const ReactorOptions &O) {
  if (ListenFd >= 0)
    return Error::make(ErrorCode::EC_IO,
                       "open: reactor is already listening on port %u",
                       BoundPort);
  // A completed graceful drain closes only the listener and the
  // connections; reclaim the epoll/wake fds (and reset drain state)
  // before building new ones, or a stop()-then-open() cycle leaks
  // two fds per iteration.
  if (EpollFd >= 0 || WakeFd >= 0)
    close();
  MaxRequestBytes = O.MaxRequestBytes;
  // Unwind partial setup on failure so a failed listen neither leaks
  // fds nor leaves the reactor claiming to be listening.
  auto Fail = [this](const char *What) {
    Error E = sysError(What);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    if (WakeFd >= 0) {
      ::close(WakeFd);
      WakeFd = -1;
    }
    if (EpollFd >= 0) {
      ::close(EpollFd);
      EpollFd = -1;
    }
    return E;
  };
  ListenFd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return Fail("socket");
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  // Linux copies TCP_NODELAY from the listener to every socket it
  // accepts, so no accepted connection needs a setsockopt of its own.
  ::setsockopt(ListenFd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  if (O.ReusePort &&
      ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEPORT, &One, sizeof(One)) <
          0)
    return Fail("setsockopt(SO_REUSEPORT)");

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(O.Port);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0)
    return Fail("bind");
  if (::listen(ListenFd, 256) < 0)
    return Fail("listen");
  socklen_t Len = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) < 0)
    return Fail("getsockname");
  BoundPort = ntohs(Addr.sin_port);

  EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
  if (EpollFd < 0)
    return Fail("epoll_create1");
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.ptr = nullptr; // nullptr marks the listener
  if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, ListenFd, &Ev) < 0)
    return Fail("epoll_ctl(listen)");

  WakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (WakeFd < 0)
    return Fail("eventfd");
  Ev.events = EPOLLIN;
  Ev.data.ptr = &WakeFd; // sentinel distinct from listener and conns
  if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeFd, &Ev) < 0)
    return Fail("epoll_ctl(wake)");

  Draining = false;
  StopRequested.store(false, std::memory_order_release);
  DrainDone.store(false, std::memory_order_release);
  DSU_LOG_INFO("reactor listening on 127.0.0.1:%u%s", BoundPort,
               O.ReusePort ? " (SO_REUSEPORT)" : "");
  return Error::success();
}

void Reactor::wake() {
  if (WakeFd < 0)
    return;
  uint64_t One = 1;
  ssize_t N = ::write(WakeFd, &One, sizeof(One));
  (void)N; // EAGAIN means the counter is already nonzero: wakeup pending
}

void Reactor::requestStop() {
  StopRequested.store(true, std::memory_order_release);
  wake();
}

Reactor::Conn *Reactor::allocConn(int Fd) {
  Conn *C;
  if (FreeList) {
    C = FreeList;
    FreeList = C->NextFree;
  } else {
    Pool.push_back(std::make_unique<Conn>());
    C = Pool.back().get();
  }
  C->Fd = Fd;
  C->In.clear(); // clear() keeps capacity: closeConn bounded it
  C->InPos = 0;
  C->Out.clear();
  C->OutPos = 0;
  C->Tail.reset();
  C->TailPos = 0;
  C->WriteArmed = false;
  C->Registered = false;
  C->CloseAfter = false;
  C->PeerClosed = false;
  C->NextFree = nullptr;
  return C;
}

void Reactor::setListenerEvents(uint32_t Events) {
  epoll_event Ev{};
  Ev.events = Events;
  Ev.data.ptr = nullptr;
  ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, ListenFd, &Ev);
}

void Reactor::pauseAccepting() {
  setListenerEvents(0);
  AcceptPaused = true;
  AcceptResumeAt = std::chrono::steady_clock::now() + AcceptBackoffMs;
}

void Reactor::resumeAcceptingIfDue() {
  if (!AcceptPaused || ListenFd < 0 ||
      std::chrono::steady_clock::now() < AcceptResumeAt)
    return;
  setListenerEvents(EPOLLIN);
  AcceptPaused = false;
}

void Reactor::acceptOne() {
  // One accept per listener event: the listener is level-triggered, so
  // it fires again while its backlog is non-empty, and no trailing
  // accept4 has to return EAGAIN.
  int Fd =
      ::accept4(ListenFd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (Fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED)
      return; // transient
    // Persistent errors (EMFILE, ENFILE, ENOBUFS, ENOMEM): spinning on
    // a level-triggered listener would peg the loop, so log once and
    // mute the listener for a short backoff.
    if (!AcceptErrorLogged) {
      DSU_LOG_WARN("reactor accept: %s; backing off", std::strerror(errno));
      AcceptErrorLogged = true;
    }
    pauseAccepting();
    return;
  }
  AcceptErrorLogged = false;
  Conn *C = allocConn(Fd);
  ++ActiveConns;
  Stats.noteConnection();
  // A client sends its request as soon as it connects, so read it now.
  // Serving waits for the next pollOnce(), after the caller's idle
  // point: a request never runs code older than the last update that
  // committed before its connection was accepted.
  if (!readInput(C))
    return;
  if (C->In.empty() && !C->PeerClosed)
    registerConn(C);
  else
    Fresh.push_back(C);
}

void Reactor::registerConn(Conn *C) {
  epoll_event Ev{};
  Ev.events = C->WriteArmed ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  Ev.data.ptr = C;
  if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, C->Fd, &Ev) < 0) {
    closeConn(C);
    return;
  }
  C->Registered = true;
}

void Reactor::serveFresh() {
  for (Conn *C : Fresh) {
    processConn(C);
    // Only a connection that stays open (keep-alive, a partial request,
    // backpressured output) enters the epoll set.
    if (C->Fd >= 0)
      registerConn(C);
  }
  Fresh.clear();
}

void Reactor::armWrite(Conn *C, bool Enable) {
  if (C->WriteArmed == Enable)
    return;
  C->WriteArmed = Enable;
  if (!C->Registered)
    return; // registerConn() takes the mask from WriteArmed
  epoll_event Ev{};
  Ev.events = Enable ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  Ev.data.ptr = C;
  ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, C->Fd, &Ev);
}

void Reactor::closeConn(Conn *C) {
  // No epoll_ctl: the fd is CLOEXEC and never duplicated, so close(2)
  // drops the last reference to the socket and the kernel removes its
  // epoll registration with it.
  ::close(C->Fd);
  C->Fd = -1;
  C->Tail.reset();
  releaseIfLarge(C->In);
  releaseIfLarge(C->Out);
  assert(ActiveConns > 0 && "closing more conns than were accepted");
  --ActiveConns;
  if (!C->Registered) {
    C->NextFree = FreeList; // never in the epoll set: no stale events
    FreeList = C;
    return;
  }
  // Deferred recycling: a stale event for this conn may still sit later
  // in the current epoll_wait batch.
  C->Registered = false;
  PendingRelease.push_back(C);
}

namespace {

/// Status code of the response serialized at \p At in \p Out ("HTTP/1.1
/// NNN ..."), or 0 when the bytes there are not a status line (raw
/// handlers may emit anything).
int responseStatusAt(const std::string &Out, size_t At) {
  if (Out.size() < At + 12 || Out.compare(At, 5, "HTTP/") != 0)
    return 0;
  size_t Sp = Out.find(' ', At);
  if (Sp == std::string::npos || Out.size() < Sp + 4)
    return 0;
  int Status = 0;
  for (size_t I = Sp + 1; I != Sp + 4; ++I) {
    char Ch = Out[I];
    if (Ch < '0' || Ch > '9')
      return 0;
    Status = Status * 10 + (Ch - '0');
  }
  return Status;
}

} // namespace

void Reactor::serveOne(Conn *C, const RequestHead &Head,
                       std::string_view Raw) {
  assert(!C->hasPendingOutput() && "serving while output is pending");
  Stats.noteRequest();
  // Time the handler and classify its response so per-worker health
  // (5xx rate, mean serve latency) is attributable to this worker — the
  // signals a canary rollout's gates compare across workers.
  size_t Pre = C->Out.size();
  auto T0 = std::chrono::steady_clock::now();
  Handle(Head, Raw, C->Out, C->Tail);
  auto Us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  int Status = responseStatusAt(C->Out, Pre);
  Stats.noteServe(static_cast<uint64_t>(Us), Status >= 500);
  C->CloseAfter = Head.Malformed || !Head.KeepAlive;
}

bool Reactor::flushOutput(Conn *C) {
  while (C->hasPendingOutput()) {
    iovec Iov[2];
    int NIov = 0;
    if (C->OutPos < C->Out.size()) {
      Iov[NIov].iov_base = const_cast<char *>(C->Out.data()) + C->OutPos;
      Iov[NIov].iov_len = C->Out.size() - C->OutPos;
      ++NIov;
    }
    if (C->Tail && C->TailPos < C->Tail->size()) {
      Iov[NIov].iov_base =
          const_cast<char *>(C->Tail->data()) + C->TailPos;
      Iov[NIov].iov_len = C->Tail->size() - C->TailPos;
      ++NIov;
    }
    ssize_t N = ::writev(C->Fd, Iov, NIov);
    if (N < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return true;
      if (errno == EINTR)
        continue;
      closeConn(C);
      return false;
    }
    Stats.noteBytesSent(static_cast<uint64_t>(N));
    size_t Left = static_cast<size_t>(N);
    size_t HeadLeft = C->Out.size() - C->OutPos;
    size_t Adv = Left < HeadLeft ? Left : HeadLeft;
    C->OutPos += Adv;
    Left -= Adv;
    if (C->Tail)
      C->TailPos += Left;
  }
  C->Out.clear();
  C->OutPos = 0;
  C->Tail.reset();
  C->TailPos = 0;
  return true;
}

void Reactor::processConn(Conn *C) {
  while (true) {
    if (C->hasPendingOutput()) {
      if (!flushOutput(C))
        return;
      if (C->hasPendingOutput()) {
        // Kernel send buffer is full.  Stop serving further pipelined
        // requests until it drains, and cut off a client that keeps
        // streaming input past the cap meanwhile.
        if (C->In.size() - C->InPos > MaxRequestBytes) {
          closeConn(C);
          return;
        }
        armWrite(C, true);
        return;
      }
    }
    if (C->CloseAfter) {
      closeConn(C);
      return;
    }
    armWrite(C, false);

    std::string_view Pending(C->In.data() + C->InPos,
                             C->In.size() - C->InPos);
    RequestHead Head = scanRequestHead(Pending);
    if (!Head.Complete ||
        (!Head.Malformed && Pending.size() < Head.totalBytes())) {
      // Need more input.  A half-closed peer cannot send any, so the
      // connection is done (its buffered requests were served above);
      // a draining reactor likewise serves only what is buffered and
      // closes instead of waiting for a next request.
      if (C->PeerClosed || Draining) {
        closeConn(C);
        return;
      }
      // Enforce the buffering cap, then compact the consumed prefix so
      // the buffer does not creep upward forever.
      if (Pending.size() > MaxRequestBytes) {
        closeConn(C);
        return;
      }
      if (C->InPos) {
        C->In.erase(0, C->InPos);
        C->InPos = 0;
      }
      return;
    }
    // A malformed head has unreliable framing: serve the error response
    // the handler produces and consume everything (the conn closes).
    size_t Consumed = Head.Malformed ? Pending.size() : Head.totalBytes();
    serveOne(C, Head, Pending.substr(0, Consumed));
    C->InPos += Consumed;
  }
}

bool Reactor::readInput(Conn *C) {
  char Buf[1 << 16];
  while (true) {
    ssize_t N = ::read(C->Fd, Buf, sizeof(Buf));
    if (N > 0) {
      C->In.append(Buf, static_cast<size_t>(N));
      if (static_cast<size_t>(N) < sizeof(Buf))
        return true; // short read: the socket is drained
      continue;
    }
    if (N == 0) {
      // Half-close: the client may have pipelined requests and shut
      // down its write side; serve what is buffered before closing.
      C->PeerClosed = true;
      return true;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return true;
    if (errno == EINTR)
      continue;
    closeConn(C);
    return false;
  }
}

void Reactor::beginDrain() {
  Draining = true;
  DrainDeadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(DrainTimeoutMs);
  // Stop accepting: closing the listener takes it out of the epoll set
  // and frees the port while existing connections drain.
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    AcceptPaused = false;
  }
  // Sweep every live connection once: idle keep-alive conns close here;
  // conns with buffered requests serve them; conns with backpressured
  // output stay armed for EPOLLOUT and finish via the loop.
  for (const std::unique_ptr<Conn> &C : Pool)
    if (C->Fd >= 0)
      processConn(C.get());
}

Expected<int> Reactor::pollOnce(int TimeoutMs) {
  if (EpollFd < 0)
    return Error::make(ErrorCode::EC_IO, "pollOnce before open");
  serveFresh();
  if (StopRequested.load(std::memory_order_acquire) && !Draining)
    beginDrain();
  if (Draining && ActiveConns != 0 &&
      std::chrono::steady_clock::now() >= DrainDeadline) {
    // A stalled peer (never reads its backpressured response, never
    // sends the rest of a request) must not wedge shutdown forever.
    DSU_LOG_WARN("reactor drain deadline: force-closing %zu conn(s)",
                 ActiveConns);
    for (const std::unique_ptr<Conn> &C : Pool)
      if (C->Fd >= 0)
        closeConn(C.get());
  }
  if (Draining && ActiveConns == 0) {
    DrainDone.store(true, std::memory_order_release);
    return 0;
  }
  // While draining, poll in short slices so the deadline is honored
  // even when the caller passed a long (or infinite) timeout.
  if (Draining && (TimeoutMs < 0 || TimeoutMs > 50))
    TimeoutMs = 50;
  resumeAcceptingIfDue();
  if (AcceptPaused) {
    // The paused listener generates no events; cap the wait so the
    // backoff actually expires even under a long (or infinite) timeout.
    auto Remain = std::chrono::duration_cast<std::chrono::milliseconds>(
                      AcceptResumeAt - std::chrono::steady_clock::now())
                      .count() +
                  1;
    int RemainMs = Remain < 0 ? 0 : static_cast<int>(Remain);
    if (TimeoutMs < 0 || TimeoutMs > RemainMs)
      TimeoutMs = RemainMs;
  }
  epoll_event Events[128];
  int N = ::epoll_wait(EpollFd, Events, 128, TimeoutMs);
  if (N < 0) {
    if (errno == EINTR)
      N = 0;
    else
      return sysError("epoll_wait");
  }
  for (int I = 0; I != N; ++I) {
    void *P = Events[I].data.ptr;
    if (!P) {
      acceptOne();
      continue;
    }
    if (P == &WakeFd) {
      uint64_t X;
      while (::read(WakeFd, &X, sizeof(X)) > 0)
        ;
      continue;
    }
    Conn *C = static_cast<Conn *>(P);
    if (C->Fd < 0)
      continue; // closed earlier in this batch
    if (Events[I].events & (EPOLLHUP | EPOLLERR)) {
      closeConn(C);
      continue;
    }
    if (Events[I].events & EPOLLIN) {
      if (!readInput(C))
        continue;
      processConn(C);
      if (C->Fd < 0)
        continue;
    }
    if (Events[I].events & EPOLLOUT)
      processConn(C);
  }
  for (Conn *C : PendingRelease) {
    C->NextFree = FreeList;
    FreeList = C;
  }
  PendingRelease.clear();
  if (Draining && ActiveConns == 0)
    DrainDone.store(true, std::memory_order_release);
  return N;
}
