//===- support/Histogram.h - Lock-free latency histogram ------*- C++ -*-===//
///
/// \file
/// The one bucket ladder every latency histogram in the process uses,
/// and the relaxed-atomic recording step on it.  Three families sit on
/// it: the update-phase histograms (trace/Trace.h, which also render
/// `dsu_stage_to_commit_us` from the queue-wait phase) and net/
/// WorkerStats.h's per-worker barrier-park and request-handler
/// histograms.  Any thread records, any thread reads, and a metrics
/// scrape is allowed to be a torn-across-counters snapshot.
///
/// The ladder starts at 1 us because the samples it must tell apart
/// live there: on a 4-core x86-64 box an update's verify, link prepare,
/// state build and commit phases take 2-13 us at the median, the
/// stage->commit wait about 20 us, a barrier park about 30 us, and a
/// keep-alive handler run 1.5-6 us.  It runs 1-2.5-5 per decade to
/// 250 ms, then +Inf.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_SUPPORT_HISTOGRAM_H
#define DSU_SUPPORT_HISTOGRAM_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dsu {

/// Upper bounds (microseconds) of every latency histogram's buckets; the
/// final bucket is +Inf.
constexpr size_t NumLatencyBuckets = 18;
constexpr uint64_t LatencyBucketUs[NumLatencyBuckets] = {
    1,     2,     5,     10,     25,     50,     100,    250,  500,
    1000,  2500,  5000,  10000,  25000,  50000,  100000, 250000, UINT64_MAX};

/// The bucket counters of one histogram on the shared ladder.
using LatencyBuckets = std::atomic<uint64_t>[NumLatencyBuckets];

/// Counts \p Us in the first bucket whose upper bound covers it.  The
/// caller keeps its own sum.
inline void noteBucketed(LatencyBuckets &Buckets, uint64_t Us) {
  size_t I = 0;
  while (Us > LatencyBucketUs[I])
    ++I; // the +Inf bound stops the scan
  Buckets[I].fetch_add(1, std::memory_order_relaxed);
}

/// Microsecond histogram with a running sum.
struct LatencyHistogram {
  LatencyBuckets Buckets{};
  std::atomic<uint64_t> TotalUs{0};

  void note(uint64_t Us) {
    noteBucketed(Buckets, Us);
    TotalUs.fetch_add(Us, std::memory_order_relaxed);
  }

  /// The number of samples: the `+Inf` cumulative count.
  uint64_t count() const {
    uint64_t N = 0;
    for (const std::atomic<uint64_t> &B : Buckets)
      N += B.load(std::memory_order_relaxed);
    return N;
  }
};

} // namespace dsu

#endif // DSU_SUPPORT_HISTOGRAM_H
