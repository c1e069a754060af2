//===- flashed/Server.h - Event-driven HTTP server ------------*- C++ -*-===//
///
/// \file
/// FlashEd's single-threaded server: one net::Reactor driven inline (the
/// caller owns the loop thread), in the architectural style of the Flash
/// web server the PLDI 2001 evaluation retrofits.  The loop invokes an
/// injected handler per complete request and an idle hook once per
/// iteration — the natural update point, exactly where FlashEd places
/// its `update` call.  The handler is the reactor's writer-style
/// FastHandler, the same one ReactorPool workers run: one-shot HTTP/1.0
/// and keep-alive HTTP/1.1 requests share one served path, and both
/// land in stats().
///
/// All event-loop mechanics — the pooled O(1) connection table, recycled
/// buffers, zero-copy writev tail, keep-alive/pipelined draining,
/// accept backoff — live in net/Reactor.h; this class is the
/// single-worker facade that preserves FlashEd's original embedding API.
/// The multi-core serving plane is net::ReactorPool, which replicates
/// the same reactor per worker and adds the cross-worker update barrier.
///
/// stop() is the graceful shutdown: buffered pipelined requests are
/// served, backpressured output is flushed, idle keep-alive connections
/// close, and runUntil() then returns — it never races the event loop.
/// shutdown() remains the immediate teardown.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_FLASHED_SERVER_H
#define DSU_FLASHED_SERVER_H

#include "epoch/Epoch.h"
#include "net/Reactor.h"

namespace dsu {
namespace flashed {

/// Single-threaded HTTP server over one reactor.
class Server {
public:
  using FastHandler = net::Reactor::FastHandler;
  using IdleHook = net::Reactor::IdleHook;

  explicit Server(FastHandler H) : R(std::move(H)) {}
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens on 127.0.0.1:\p Port (0 picks an ephemeral port).
  /// Fails with EC_IO when the server is already listening.
  Error listenOn(uint16_t Port = 0) {
    net::ReactorOptions O;
    O.Port = Port;
    O.MaxRequestBytes = MaxRequestBytes;
    return R.open(O);
  }

  /// The bound port (valid after listenOn()).
  uint16_t port() const { return R.port(); }

  void setIdleHook(IdleHook Hook) { R.setIdleHook(std::move(Hook)); }

  /// Caps per-connection buffering (default 1 MiB).
  void setMaxRequestBytes(size_t Bytes) {
    MaxRequestBytes = Bytes;
    R.setMaxRequestBytes(Bytes);
  }

  /// Runs one event-loop iteration with the given poll timeout.
  Expected<int> pollOnce(int TimeoutMs) { return R.pollOnce(TimeoutMs); }

  /// Loops until \p Stop returns true or a stop() drain completes.  The
  /// loop thread is registered as an epoch worker for the duration: its
  /// per-iteration quiescent point ticks the reclamation domain, so the
  /// single-worker facade gets the same lock-free DocStore/cache reads
  /// as the pool.
  Error runUntil(const std::function<bool()> &Stop, int TimeoutMs = 10) {
    epoch::WorkerReg Epoch;
    return R.runUntil(
        [&] {
          Epoch.quiesce();
          return Stop();
        },
        TimeoutMs);
  }

  /// Graceful stop (thread-safe): drains in-flight pipelined requests,
  /// flushes pending output, closes idle keep-alive connections, then
  /// runUntil() returns.
  void stop() { R.requestStop(); }

  /// True once a stop() drain has finished.
  bool drained() const { return R.drainComplete(); }

  /// Bounds how long stop() waits for stalled connections (default
  /// 5000 ms) before force-closing them.
  void setDrainTimeout(int Ms) { R.setDrainTimeout(Ms); }

  uint64_t requestsServed() const { return R.requestsServed(); }
  uint64_t bytesSent() const { return R.bytesSent(); }
  uint64_t connectionsAccepted() const {
    return R.connectionsAccepted();
  }

  /// The reactor's serving counters (lock-free; see net/WorkerStats.h).
  const net::WorkerStats &stats() const { return R.stats(); }

  /// Closes all sockets immediately; listenOn() may be called again.
  void shutdown() { R.close(); }

private:
  net::Reactor R;
  size_t MaxRequestBytes = 1 << 20;
};

} // namespace flashed
} // namespace dsu

#endif // DSU_FLASHED_SERVER_H
