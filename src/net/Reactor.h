//===- net/Reactor.h - One epoll event-loop worker ------------*- C++ -*-===//
///
/// \file
/// A Reactor is one epoll-based, nonblocking HTTP event loop: the unit
/// a ReactorPool replicates per core.  The pool drives pollOnce() and
/// runs the update point between polls; a 1-worker pool is FlashEd's
/// single-threaded server.  Each reactor owns its own listening socket
/// (optionally SO_REUSEPORT, so N reactors share one port and the
/// kernel spreads accepts), its own connection table reached directly
/// through `epoll_event.data.ptr`, free-listed connection objects with
/// recycled buffers, and a wakeup eventfd that lets other threads
/// interrupt epoll_wait — the mechanism the pool's cross-worker update
/// barrier uses to park a worker promptly.
///
/// Every request goes through one writer-style FastHandler, and every
/// response is timed and classified into the worker's serving stats.
/// The serving hot path is allocation- and lookup-free in steady state;
/// persistent (HTTP/1.1 keep-alive) connections are drained request by
/// request, including pipelined requests arriving in one read, and a
/// one-shot (HTTP/1.0) exchange is the same path with the connection
/// closed after its response.  pollOnce() returns between requests:
/// its caller's loop is where the per-worker update point runs.
///
/// A one-shot request costs five syscalls: a share of one `epoll_wait`
/// (the listener event), `accept4`, `read`, `writev` and `close`.  The
/// listener carries TCP_NODELAY, which accepted sockets inherit; each
/// listener event accepts one connection and reads what its client
/// already sent.  A connection with buffered input waits on the Fresh
/// list and is served at the start of the next pollOnce(), after the
/// caller's idle point, so it runs the code of every update committed
/// before it was accepted.  Only a connection still open after that
/// (keep-alive, a partial request, backpressured output) enters the
/// epoll set, and close(2) alone takes it out again.
///
/// Shutdown is graceful by default: requestStop() (callable from any
/// thread) closes the listener, serves every already-buffered pipelined
/// request, flushes backpressured output, closes idle keep-alive
/// connections, and only then reports drainComplete().  close() remains
/// the immediate teardown.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_NET_REACTOR_H
#define DSU_NET_REACTOR_H

#include "flashed/Http.h"
#include "net/WorkerStats.h"
#include "support/Error.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dsu {
namespace net {

/// Listener configuration for one reactor.
struct ReactorOptions {
  uint16_t Port = 0;     ///< 0 picks an ephemeral port
  bool ReusePort = false; ///< SO_REUSEPORT (pool members share one port)
  /// Caps per-connection buffering: a client that streams bytes
  /// forever cannot grow memory without bound.
  size_t MaxRequestBytes = 1 << 20;
};

/// One epoll event-loop worker.
class Reactor {
public:
  /// The request handler.  It serializes the response head (and any
  /// inline body) into \p Out — the connection's reusable output buffer —
  /// and may set \p Body to a shared payload written after \p Out
  /// without copying.  Whether the connection persists follows the
  /// request head (HTTP/1.1 keep-alive unless "Connection: close",
  /// HTTP/1.0 one-shot unless "Connection: keep-alive").
  using FastHandler = std::function<void(
      const flashed::RequestHead &Req, std::string_view Raw,
      std::string &Out, std::shared_ptr<const std::string> &Body)>;

  explicit Reactor(FastHandler H) : Handle(std::move(H)) {}
  ~Reactor();
  Reactor(const Reactor &) = delete;
  Reactor &operator=(const Reactor &) = delete;

  /// Binds and listens on 127.0.0.1 per \p O and creates the epoll set
  /// and wakeup eventfd.  Fails with EC_IO when already listening.
  Error open(const ReactorOptions &O);

  /// The bound port (valid after open()).
  uint16_t port() const { return BoundPort; }

  /// Runs one event-loop iteration with the given poll timeout.
  /// Returns the number of events processed.  After a requestStop(),
  /// the caller loops until drainComplete().
  Expected<int> pollOnce(int TimeoutMs);

  /// Begins a graceful drain (thread-safe): the loop stops accepting,
  /// serves buffered pipelined requests, flushes pending output, closes
  /// idle connections, then drainComplete() turns true.  A peer that
  /// refuses to read its backpressured response cannot wedge shutdown:
  /// connections still alive after the drain deadline are force-closed.
  void requestStop();

  /// Bounds how long a graceful drain waits for stalled connections
  /// before force-closing them (default 5000 ms).
  void setDrainTimeout(int Ms) { DrainTimeoutMs = Ms; }

  /// True once a requested drain has finished (no live connections).
  bool drainComplete() const {
    return DrainDone.load(std::memory_order_acquire);
  }

  /// Interrupts a blocking epoll_wait (thread-safe while open).  Used by
  /// the pool's update barrier so a worker parked in epoll_wait reaches
  /// its update point promptly.
  void wake();

  /// Closes all sockets immediately; open() may be called again.
  void close();

  const WorkerStats &stats() const { return Stats; }
  WorkerStats &mutableStats() { return Stats; }

  uint64_t requestsServed() const {
    return Stats.Requests.load(std::memory_order_relaxed);
  }
  uint64_t bytesSent() const {
    return Stats.BytesSent.load(std::memory_order_relaxed);
  }
  uint64_t connectionsAccepted() const {
    return Stats.Connections.load(std::memory_order_relaxed);
  }

  /// Live (accepted, not yet closed) connections.
  size_t activeConnections() const { return ActiveConns; }

private:
  /// One pooled connection.  Reached via epoll_event.data.ptr; buffers
  /// keep their capacity across tenants (free-list recycling).
  struct Conn {
    int Fd = -1;
    std::string In; ///< inbound bytes; [InPos, size) not yet consumed
    size_t InPos = 0;
    std::string Out; ///< serialized output; [OutPos, size) unwritten
    size_t OutPos = 0;
    std::shared_ptr<const std::string> Tail; ///< zero-copy body after Out
    size_t TailPos = 0;
    bool WriteArmed = false; ///< wants EPOLLOUT (backpressured output)
    bool Registered = false; ///< in the epoll set
    bool CloseAfter = false;
    bool PeerClosed = false; ///< read side saw EOF (client half-close)
    Conn *NextFree = nullptr;

    bool hasPendingOutput() const {
      return OutPos < Out.size() || (Tail && TailPos < Tail->size());
    }
  };

  Conn *allocConn(int Fd);
  /// Accepts one connection and reads what its client already sent.
  void acceptOne();
  /// Serves the Fresh list and registers the conns that stay open.
  void serveFresh();
  void registerConn(Conn *C);
  void setListenerEvents(uint32_t Events);
  void pauseAccepting();
  void resumeAcceptingIfDue();
  void beginDrain();
  /// Reads everything the socket holds; false when a read error closed
  /// the connection.
  bool readInput(Conn *C);
  /// Serves every buffered request backpressure allows, then flushes.
  void processConn(Conn *C);
  void serveOne(Conn *C, const flashed::RequestHead &Head,
                std::string_view Raw);
  /// Returns false when the connection was closed by a write error.
  bool flushOutput(Conn *C);
  void closeConn(Conn *C);
  void armWrite(Conn *C, bool Enable);

  FastHandler Handle;
  int EpollFd = -1;
  int ListenFd = -1;
  int WakeFd = -1;
  uint16_t BoundPort = 0;
  size_t MaxRequestBytes = 1 << 20;

  std::vector<std::unique_ptr<Conn>> Pool;
  Conn *FreeList = nullptr;
  /// Conns accepted with buffered input (or EOF), not yet registered:
  /// served at the start of the next pollOnce(), after the caller's
  /// idle point.
  std::vector<Conn *> Fresh;
  /// Registered conns closed mid-batch; recycled only after the batch
  /// so stale events in the same epoll_wait return cannot hit a reused
  /// object.
  std::vector<Conn *> PendingRelease;
  size_t ActiveConns = 0;

  bool AcceptPaused = false;
  bool AcceptErrorLogged = false;
  std::chrono::steady_clock::time_point AcceptResumeAt{};

  std::atomic<bool> StopRequested{false}; ///< set from any thread
  bool Draining = false;                  ///< loop-local drain state
  std::atomic<bool> DrainDone{false};
  int DrainTimeoutMs = 5000;
  std::chrono::steady_clock::time_point DrainDeadline{};

  WorkerStats Stats;
};

} // namespace net
} // namespace dsu

#endif // DSU_NET_REACTOR_H
