//===- support/Histogram.h - Lock-free latency histogram ------*- C++ -*-===//
///
/// \file
/// A fixed-bucket microsecond histogram with relaxed-atomic counters, and
/// the bucket-and-max recording step it shares with net/WorkerStats.h's
/// pause and request-latency histograms: any thread records,
/// any thread reads, and a metrics scrape is allowed to be a
/// torn-across-counters snapshot.  Used for the stage->commit latency of
/// dynamic updates (`dsu_stage_to_commit_us` in /admin/metrics).
///
//===----------------------------------------------------------------------===//

#ifndef DSU_SUPPORT_HISTOGRAM_H
#define DSU_SUPPORT_HISTOGRAM_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dsu {

/// Records \p Us in a fixed-bucket histogram: counts it in the first
/// bucket whose upper bound \p BoundsUs covers it and raises \p MaxUs
/// if it is a new worst.  Relaxed atomics throughout; the caller keeps
/// its own count and sum.
template <size_t N>
inline void noteBucketed(const uint64_t (&BoundsUs)[N],
                         std::atomic<uint64_t> (&Buckets)[N],
                         std::atomic<uint64_t> &MaxUs, uint64_t Us) {
  for (size_t I = 0; I != N; ++I)
    if (Us <= BoundsUs[I]) {
      Buckets[I].fetch_add(1, std::memory_order_relaxed);
      break;
    }
  uint64_t Prev = MaxUs.load(std::memory_order_relaxed);
  while (Us > Prev &&
         !MaxUs.compare_exchange_weak(Prev, Us, std::memory_order_relaxed))
    ;
}

/// Microsecond histogram; the final bucket is +Inf.
struct LatencyHistogram {
  static constexpr size_t NumBuckets = 8;
  static constexpr uint64_t BucketUs[NumBuckets] = {
      100, 500, 1000, 5000, 10000, 50000, 250000, UINT64_MAX};

  std::atomic<uint64_t> Buckets[NumBuckets]{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> TotalUs{0};
  std::atomic<uint64_t> MaxUs{0};

  void note(uint64_t Us) {
    noteBucketed(BucketUs, Buckets, MaxUs, Us);
    Count.fetch_add(1, std::memory_order_relaxed);
    TotalUs.fetch_add(Us, std::memory_order_relaxed);
  }
};

} // namespace dsu

#endif // DSU_SUPPORT_HISTOGRAM_H
