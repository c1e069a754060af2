//===- trace/Trace.h - Update-pipeline flight recorder ---------*- C++ -*-===//
///
/// \file
/// A lock-free, per-thread ring-buffer flight recorder for the update
/// pipeline.  Every stage of an update's life — controller job pickup,
/// artifact load, analysis, per-function verification, link prepare,
/// queue wait, the commit itself (barrier parks or rolling adoptions,
/// per worker), rollout gate polls and verdict, journal Intent/Seal
/// fsyncs — records a span here, so `GET /admin/trace?id=N` can render
/// the complete tree from operator POST to sealed outcome, and
/// `GET /admin/trace?export=chrome` can emit a Perfetto-loadable
/// Chrome trace-event JSON.
///
/// Design constraints, in order:
///
///  - **Zero allocation on the hot path.**  Each thread owns a
///    fixed-size ring of event slots; recording is an index bump plus
///    plain stores.  Rings are recycled through a free list when
///    threads exit, so memory is bounded by the peak thread count.
///  - **Drop-oldest.**  The ring wraps; a reader that arrives late sees
///    the most recent `SlotsPerThread` events per thread and an exact
///    count of what it missed.
///  - **Torn-proof snapshots without locks.**  Every slot is a tiny
///    seqlock: the writer invalidates (Seq=0), fills the fields, then
///    publishes a globally ordered serial with release semantics.  A
///    reader that observes the same non-zero serial before and after
///    copying has a consistent event.  All slot fields are relaxed
///    atomics so the protocol is also data-race-free under TSan.
///
/// Spans nest by scope on one thread (TRACE_SPAN / trace::Span) and are
/// keyed across threads by the *update id*: a thread-local current
/// update id (ScopedUpdateId) tags every event recorded in its scope,
/// and explicit begin()/end() events stitch intervals whose two ends
/// live on different threads (operator POST -> controller pickup).
///
/// A span is also the stopwatch of the interval it covers: the
/// nanosecond duration its finish() returns is what the update and
/// rollout records and the `dsu_update_phase_us` histograms hold, so
/// each interval is timed once.  Timed *decisions* (the staging
/// watchdog, the rollout window, the stall gate) keep their own clocks.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_TRACE_TRACE_H
#define DSU_TRACE_TRACE_H

#include "support/Histogram.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dsu {
namespace trace {

/// What one recorded event is.
enum class EventKind : uint8_t {
  Complete, ///< a span with a start and a duration, one thread
  Instant,  ///< a point in time (barrier armed, verdict reached)
  Begin,    ///< opening half of a cross-thread interval, keyed by update
  End,      ///< closing half of a cross-thread interval, keyed by update
};

/// A validated copy of one event, as returned by Recorder::snapshot().
struct EventCopy {
  uint64_t Serial;      ///< global publication order (1-based)
  const char *Category; ///< static or interned string
  const char *Name;     ///< static or interned string
  uint64_t StartUs;     ///< microseconds since the recorder epoch
  uint64_t DurUs;       ///< 0 for Instant/Begin/End
  uint64_t UpdateId;    ///< owning update transaction, 0 = none
  uint64_t Arg;         ///< event-specific detail (worker index, count…)
  uint32_t Tid;         ///< recorder thread id (stable small integer)
  EventKind Kind;
};

/// The process-wide flight recorder.
class Recorder {
public:
  /// Events per thread ring; one slot is 64 bytes, so each thread that
  /// ever records costs 64 KiB (recycled across thread lifetimes).
  static constexpr size_t SlotsPerThread = 1024;

  static Recorder &instance();

  /// Nanoseconds / microseconds since the recorder's epoch (one
  /// process-wide steady timebase; all event timestamps share it).
  uint64_t nowNs() const;
  uint64_t nowUs() const { return nowNs() / 1000; }

  /// Records a completed span [StartUs, StartUs+DurUs) on this thread,
  /// tagged with the thread's current update id.
  void complete(const char *Cat, const char *Name, uint64_t StartUs,
                uint64_t DurUs, uint64_t Arg = 0);

  /// Records a point event on this thread.
  void instant(const char *Cat, const char *Name, uint64_t Arg = 0);

  /// Opens/closes a cross-thread interval keyed by (Cat, Name,
  /// UpdateId).  The two halves may land on different threads; the
  /// span-tree builder pairs them in publication order.
  void begin(const char *Cat, const char *Name, uint64_t UpdateId,
             uint64_t Arg = 0);
  void end(const char *Cat, const char *Name, uint64_t UpdateId,
           uint64_t Arg = 0);

  /// Copies out every currently valid event, sorted by Serial.  Safe to
  /// call from any thread while writers are recording; torn slots are
  /// skipped.
  std::vector<EventCopy> snapshot() const;

  /// Total events overwritten before ever being snapshotted (drop-oldest
  /// evidence across all rings).
  uint64_t dropped() const;

  /// Invalidates every slot (test isolation helper; concurrent writers
  /// simply re-publish into the cleared ring).
  void clear();

private:
  struct Slot {
    std::atomic<uint64_t> Seq{0}; ///< 0 = invalid/being written
    std::atomic<const char *> Category{nullptr};
    std::atomic<const char *> Name{nullptr};
    std::atomic<uint64_t> StartUs{0};
    std::atomic<uint64_t> DurUs{0};
    std::atomic<uint64_t> UpdateId{0};
    std::atomic<uint64_t> Arg{0};
    std::atomic<uint8_t> Kind{0};
  };
  struct Ring {
    explicit Ring(uint32_t Tid) : Tid(Tid), Slots(SlotsPerThread) {}
    const uint32_t Tid;
    std::atomic<uint64_t> Next{0}; ///< monotone write cursor (mod size)
    std::atomic<bool> InUse{true};
    std::vector<Slot> Slots;
  };

  Recorder();
  Ring *acquireRing();
  void releaseRing(Ring *R);
  void record(EventKind K, const char *Cat, const char *Name,
              uint64_t StartUs, uint64_t DurUs, uint64_t UpdateId,
              uint64_t Arg);

  friend struct RingHandle;

  uint64_t EpochNs; ///< steady_clock anchor for nowUs()
  std::atomic<uint64_t> Serial{0};
  mutable std::mutex RegMu;
  std::vector<std::unique_ptr<Ring>> Rings; ///< never shrinks; recycled
};

/// The update transaction id events on this thread are tagged with
/// (0 = none).
uint64_t currentUpdateId();

/// Tags every event recorded on this thread with \p Id for the guard's
/// lifetime; restores the previous id on destruction (guards nest).
class ScopedUpdateId {
public:
  explicit ScopedUpdateId(uint64_t Id);
  ~ScopedUpdateId();
  ScopedUpdateId(const ScopedUpdateId &) = delete;
  ScopedUpdateId &operator=(const ScopedUpdateId &) = delete;

private:
  uint64_t Prev;
};

// --- Per-phase latency histograms (dsu_update_phase_us) -----------------

/// The update pipeline phases the metrics exposition breaks latency
/// down by.  Each phase owns a LatencyHistogram.  A phase one thread
/// times is fed by its span's finish(Phase); the two cross-thread
/// intervals (queue wait, rolling adopt) are noted from recorder
/// timestamps.
enum class Phase : unsigned {
  Analysis,      ///< whole-patch analyzer
  Verify,        ///< VTAL verification
  LinkPrepare,   ///< link preparation within staging
  StateBuild,    ///< state-transform build within staging
  QueueWait,     ///< phase Ready -> commit landing
  Commit,        ///< the atomic swing at the update point
  BarrierPark,   ///< one worker's park at the commit barrier
  RollingAdopt,  ///< one worker's adoption delay after a rolling commit
  JournalIntent, ///< durable Intent append (write + fsync)
  JournalSeal,   ///< durable Seal append (write + fsync)
  NumPhases,
};

/// The Prometheus `phase` label value ("analysis", "queue_wait", …).
const char *phaseName(Phase P);

/// The process-wide histogram for \p P.
LatencyHistogram &phaseHistogram(Phase P);

/// Convenience: phaseHistogram(P).note(Us).
void notePhase(Phase P, uint64_t Us);

/// RAII span: records a Complete event covering its scope.  A span is
/// the update lifecycle's only stopwatch: finish() returns the duration
/// its own two clock reads measured, in nanoseconds, and that one value
/// feeds both the caller's record field and (finish(Phase)) the phase
/// histogram.  The ring event keeps the recorder's microsecond
/// timebase, so it reads within 1 us of the returned duration.
class Span {
public:
  Span(const char *Cat, const char *Name, uint64_t Arg = 0)
      : Cat(Cat), Name(Name), Arg(Arg),
        StartNs(Recorder::instance().nowNs()) {}
  ~Span() { finish(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void setArg(uint64_t A) { Arg = A; }

  /// Nanoseconds since the span opened; a mark inside a running span.
  uint64_t elapsedNs() const {
    return Recorder::instance().nowNs() - StartNs;
  }

  /// Ends the span now (the destructor then records nothing) and returns
  /// its duration in nanoseconds; a second call returns the same value.
  uint64_t finish() {
    if (Finished)
      return DurNs;
    Finished = true;
    Recorder &R = Recorder::instance();
    uint64_t EndNs = R.nowNs();
    DurNs = EndNs - StartNs;
    R.complete(Cat, Name, StartNs / 1000, EndNs / 1000 - StartNs / 1000, Arg);
    return DurNs;
  }

  /// finish(), and notes the duration as one sample of phase \p P.
  uint64_t finish(Phase P);

private:
  const char *Cat;
  const char *Name;
  uint64_t Arg;
  uint64_t StartNs;
  uint64_t DurNs = 0;
  bool Finished = false;
};

/// Interns \p S into a process-lifetime string pool and returns a stable
/// pointer, so dynamically named spans (per-function verification) can
/// outlive the module that named them.  Not for hot paths.
const char *intern(const std::string &S);

// --- JSON views ---------------------------------------------------------

/// The span tree of update \p UpdateId: Complete events nested by time
/// containment per thread, Begin/End pairs synthesized into spans,
/// Instant events as leaves.  `{"update": N, "events": M, "spans": [...]}`.
std::string spanTreeJson(uint64_t UpdateId);

/// All recorded events in Chrome trace-event JSON (Perfetto-loadable):
/// `{"traceEvents": [{"ph": "X", "ts": …, "dur": …, …}, …]}`.  When
/// \p FilterUpdateId is nonzero only that update's events are emitted.
std::string chromeTraceJson(uint64_t FilterUpdateId = 0);

} // namespace trace
} // namespace dsu

#define DSU_TRACE_CONCAT_IMPL(A, B) A##B
#define DSU_TRACE_CONCAT(A, B) DSU_TRACE_CONCAT_IMPL(A, B)

/// Records a Complete span covering the enclosing scope, tagged with
/// this thread's current update id.  Cat/Name must be static strings
/// (or trace::intern()ed).
#define TRACE_SPAN(Cat, Name)                                              \
  ::dsu::trace::Span DSU_TRACE_CONCAT(DsuTraceSpan_, __LINE__)(Cat, Name)

#endif // DSU_TRACE_TRACE_H
