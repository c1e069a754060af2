//===- net/WorkerStats.h - Lock-free per-worker serving counters -*- C++ -*-//
///
/// \file
/// One cache-line-aligned block of counters per reactor worker.  The
/// owning worker is the only writer; the admin plane (GET /admin/metrics,
/// GET /admin/status) reads concurrently.  All fields are relaxed
/// atomics: every value is an independent monotonic counter, so readers
/// need no ordering between fields — a metrics scrape is allowed to be a
/// torn-across-counters snapshot, exactly like any Prometheus target.
///
/// Two histograms live here, both on support/Histogram.h's one bucket
/// ladder: the update pause — how long each barrier park lasted (see
/// net/ReactorPool.h), the per-worker cost of one dynamic update — and
/// the request-handler latency.  Pauses, PauseTotalUs and PauseMaxUs
/// are also read whole by /admin/status and the benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_NET_WORKERSTATS_H
#define DSU_NET_WORKERSTATS_H

#include "support/Histogram.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dsu {
namespace net {

/// Counters owned by one reactor worker.  Writer: the worker thread.
/// Readers: anyone, with relaxed loads.
struct alignas(64) WorkerStats {
  std::atomic<uint64_t> Requests{0};    ///< complete requests served
  std::atomic<uint64_t> Connections{0}; ///< connections accepted
  std::atomic<uint64_t> BytesSent{0};   ///< payload bytes written

  // Health signals a canary rollout gates on: server-fault responses and
  // handler latency, both attributable to one worker so a rollout can
  // compare its canary group against the control group.
  std::atomic<uint64_t> Errors5xx{0};    ///< responses with status >= 500
  std::atomic<uint64_t> ServeTotalUs{0}; ///< sum of handler durations
  std::atomic<uint64_t> Serves{0};       ///< handler invocations timed

  // Both histograms sit on support/Histogram.h's shared bucket ladder.
  LatencyBuckets PauseBuckets{};         ///< dsu_update_pause_us
  std::atomic<uint64_t> Pauses{0};       ///< barrier parks recorded
  std::atomic<uint64_t> PauseTotalUs{0}; ///< sum of park durations
  std::atomic<uint64_t> PauseMaxUs{0};   ///< worst single park
  std::atomic<uint64_t> Commits{0};      ///< barriers this worker committed
  LatencyBuckets ServeBuckets{};         ///< dsu_request_duration_us

  void notePause(uint64_t Us) {
    noteBucketed(PauseBuckets, Us);
    Pauses.fetch_add(1, std::memory_order_relaxed);
    PauseTotalUs.fetch_add(Us, std::memory_order_relaxed);
    // Single writer: a plain compare-then-store cannot lose a maximum.
    if (Us > PauseMaxUs.load(std::memory_order_relaxed))
      PauseMaxUs.store(Us, std::memory_order_relaxed);
  }

  void noteRequest() { Requests.fetch_add(1, std::memory_order_relaxed); }

  /// Records one handler invocation: its duration and whether it
  /// produced a server fault.
  void noteServe(uint64_t Us, bool ServerError) {
    Serves.fetch_add(1, std::memory_order_relaxed);
    ServeTotalUs.fetch_add(Us, std::memory_order_relaxed);
    noteBucketed(ServeBuckets, Us);
    if (ServerError)
      Errors5xx.fetch_add(1, std::memory_order_relaxed);
  }

  void noteConnection() {
    Connections.fetch_add(1, std::memory_order_relaxed);
  }
  void noteBytesSent(uint64_t N) {
    BytesSent.fetch_add(N, std::memory_order_relaxed);
  }
};

} // namespace net
} // namespace dsu

#endif // DSU_NET_WORKERSTATS_H
