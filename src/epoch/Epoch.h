//===- epoch/Epoch.h - Epoch-based quiescence and reclamation -*- C++ -*-===//
///
/// \file
/// The epoch subsystem: quiescent-state-based grace periods over the
/// reactor workers, deferred reclamation, and wait-free published
/// pointers — the mechanism that lets code-only dynamic updates commit
/// *without* the cross-worker barrier and lets the serving hot path read
/// shared state without a single mutex.
///
/// The model is QSBR (quiescent-state-based reclamation), which this
/// system gets almost for free: the paper's update discipline already
/// forces every reactor worker through an explicit quiescent point — the
/// instant between poll iterations when no request is mid-handler.  Each
/// registered worker announces that point by copying the domain's global
/// epoch into its own counter (`Domain::quiesce`).  A retired object is
/// tagged with the global epoch at retire time and freed once every
/// participant has observed a *later* epoch — by then no reader can
/// still hold a reference obtained before the object was unlinked.
///
/// Participants come in two kinds:
///
///  - *Workers* (reactor threads): permanently registered; their counter
///    always bounds the grace period, because between two quiesces a
///    worker may be holding references obtained at its last announced
///    epoch.  A worker stuck in a long request therefore *delays*
///    reclamation — never unsoundly permits it.
///  - *Pinned guards* (everything else: the admin path, the staging
///    controller, tests): an `epoch::Guard` pins the calling thread to
///    the current epoch for a scope; between guards the thread does not
///    constrain the grace period at all.  On a registered worker thread
///    a Guard degrades to a no-op — the worker's own counter already
///    protects it.
///
/// `epoch::Ptr<T>` is the publication primitive built on top: writers
/// copy-update-publish (atomic exchange + retire of the old payload);
/// readers take a guard and load one atomic pointer — no lock, no
/// reference count, no fence on the worker fast path.
///
/// The *global epoch* additionally serves as the visibility clock for
/// rolling (barrier-free) code-only updates: `advanceWith` installs new
/// bindings under the domain lock and then publishes a new epoch, so a
/// reader thread switches to the new code exactly when it announces its
/// next quiescent point — never in the middle of a request
/// (runtime/UpdateableRegistry.h, RollEntry).
///
//===----------------------------------------------------------------------===//

#ifndef DSU_EPOCH_EPOCH_H
#define DSU_EPOCH_EPOCH_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

namespace dsu {
namespace epoch {

/// One reclamation domain: a set of participants, a global epoch, and a
/// limbo list of retired objects awaiting their grace period.  The
/// process has one default domain (epoch::domain()); tests may create
/// private ones.  A Domain must outlive every thread that participates
/// in it.
class Domain {
public:
  /// Sentinel for "not pinned": an idle guard slot constrains nothing.
  static constexpr uint64_t kIdle = UINT64_MAX;

  /// One participant's cache-line-aligned announcement cell.  Owned by
  /// the domain; handed out to workers (registerWorker) and to threads
  /// pinning guards (internally).
  struct alignas(64) Slot {
    std::atomic<uint64_t> Observed{kIdle};
    bool Worker = false;   ///< counts toward min even between quiesces
    bool Active = false;   ///< registered (guarded by the domain lock)
    unsigned PinDepth = 0; ///< guard nesting (owner thread only)
    uint64_t PinnedEpoch = 0; ///< epoch of the outermost pin (owner only)
    Slot *NextFree = nullptr;
  };

  Domain();
  ~Domain(); ///< drains the limbo list; no participant may still read
  Domain(const Domain &) = delete;
  Domain &operator=(const Domain &) = delete;

  // -- Participants --------------------------------------------------------

  /// Registers the calling thread as a worker participant.  The worker
  /// announces quiescent points with quiesce(); its counter bounds every
  /// grace period until deregisterWorker().
  Slot *registerWorker();
  void deregisterWorker(Slot *S);

  /// Announces a quiescent point for worker \p S: no reference obtained
  /// before this call survives past it.  Returns the epoch observed.
  /// Amortized reclamation runs here (try-lock only; never blocks the
  /// serving loop on another worker's reclaim).
  uint64_t quiesce(Slot *S);

  /// The epoch worker \p S last announced (introspection/metrics).
  uint64_t slotEpoch(const Slot *S) const {
    return S->Observed.load(std::memory_order_relaxed);
  }

  /// Pins the calling thread (guard entry).  Prefer epoch::Guard.
  Slot *pinThread();
  void unpinThread(Slot *S);

  // -- The epoch clock -----------------------------------------------------

  uint64_t globalEpoch() const {
    return Global.load(std::memory_order_acquire);
  }

  /// Atomically advances the global epoch to E = current + 1, running
  /// \p Install(E) under the domain lock *before* E becomes visible.
  /// This is the rolling-update primitive: Install publishes new state
  /// tagged E while every concurrently sampled epoch is still < E, so a
  /// reader observes either none of the installation (its epoch < E) or
  /// all of it (it sampled E, which is published release-after).
  /// Install must not call back into this domain.  Returns E.
  uint64_t advanceWith(void (*Install)(uint64_t, void *), void *Ctx);
  uint64_t advance() { return advanceWith(nullptr, nullptr); }

  // -- Deferred reclamation ------------------------------------------------

  /// Defers destruction of \p P (via \p Del) until every participant has
  /// passed a quiescent point / unpinned since now.  The caller must
  /// have already unlinked \p P from every published structure.  Each
  /// retire also advances the global epoch, so grace periods complete
  /// without a dedicated ticker thread.
  void retire(void *P, void (*Del)(void *));

  /// Attempts reclamation now (blocking on the domain lock); returns the
  /// number of objects freed.
  size_t reclaim();

  /// Frees every retired object unconditionally.  Callers assert no
  /// participant is reading (used at teardown; the destructor calls it).
  void drain();

  // -- Introspection -------------------------------------------------------

  size_t limboSize() const {
    return LimboCount.load(std::memory_order_relaxed);
  }
  uint64_t retiredTotal() const {
    return Retires.load(std::memory_order_relaxed);
  }
  uint64_t reclaimedTotal() const {
    return Reclaims.load(std::memory_order_relaxed);
  }

  /// The smallest epoch any participant may still be reading under
  /// (kIdle when nobody constrains the grace period).
  uint64_t minObservedEpoch() const;

private:
  struct Retired {
    void *P = nullptr;
    void (*Del)(void *) = nullptr;
    uint64_t Epoch = 0;
  };

  class ExpiredBatch;

  Slot *allocSlotLocked();
  void releaseSlotLocked(Slot *S);
  uint64_t minObservedLocked() const;
  /// Collects every limbo entry whose grace period has passed into
  /// \p Out (deleters run by the caller, outside the lock).
  void collectExpiredLocked(std::vector<Retired> &Out);
  void runDeleters(std::vector<Retired> &Batch);
  size_t tryReclaim();

  friend struct ThreadSlotCacheAccess;

  /// Process-unique identity, never reused: the per-thread guard-slot
  /// cache keys on (address, Id) so a later Domain allocated at a dead
  /// one's address can never match a stale cache entry.
  const uint64_t Id;

  std::atomic<uint64_t> Global{1};
  std::atomic<size_t> LimboCount{0};
  std::atomic<uint64_t> Retires{0};
  std::atomic<uint64_t> Reclaims{0};

  mutable std::mutex Mu; ///< slots vector, free list, limbo, epoch bumps
  std::vector<std::unique_ptr<Slot>> Slots;
  Slot *FreeSlots = nullptr;
  std::deque<Retired> Limbo; ///< retire tags are nondecreasing -> sorted
};

/// The process-wide default domain.  Function-local static: destroyed at
/// exit (after main's locals and the pool threads are gone), draining
/// any still-deferred objects so sanitizer runs see no leaks.
Domain &domain();

// -- The default-domain thread epoch (the binding-resolution clock) -------

/// The epoch this thread is pinned at in the *default* domain: set by a
/// worker at each quiesce and by a Guard for its scope; 0 when the
/// thread is neither.  (The storage is internal to Epoch.cpp — an
/// extern thread_local would go through a TLS wrapper call per access
/// anyway, and cross-TU wrappers trip UBSan.)
uint64_t threadPinnedEpoch();

// -- RAII helpers ---------------------------------------------------------

/// Registers the calling thread as a worker of \p D for the object's
/// lifetime.  Created by each ReactorPool worker; quiesce() is the
/// per-iteration epoch tick.
class WorkerReg {
public:
  explicit WorkerReg(Domain &D = domain());
  ~WorkerReg();
  WorkerReg(const WorkerReg &) = delete;
  WorkerReg &operator=(const WorkerReg &) = delete;

  /// Announces the quiescent point; returns the epoch observed.
  uint64_t quiesce();

  Domain::Slot *slot() const { return S; }

private:
  Domain &D;
  Domain::Slot *S;
  bool IsDefault;
};

/// Pins the calling thread for a scope so epoch::Ptr loads (and the raw
/// pointers derived from them) stay valid.  Free on a registered worker
/// thread of the same domain; a pin + seq_cst fence elsewhere.  Nests.
class Guard {
public:
  /// Pins the default domain; on a registered worker this is one
  /// thread-local load and a branch.
  Guard();
  explicit Guard(Domain &D);
  ~Guard();
  Guard(const Guard &) = delete;
  Guard &operator=(const Guard &) = delete;

private:
  void pin(Domain &Dom, bool IsDefault);

  Domain *D = nullptr;
  Domain::Slot *S = nullptr;
  uint64_t SavedTL = 0;
  bool RestoreTL = false;
};

/// Retires a heap object with its natural deleter.
template <typename T> void retireObject(T *Obj, Domain &D = domain()) {
  using Mutable = std::remove_const_t<T>;
  D.retire(const_cast<Mutable *>(Obj),
           [](void *X) { delete static_cast<Mutable *>(X); });
}

// -- Published pointers ---------------------------------------------------

/// An atomically published pointer with epoch-deferred reclamation of
/// superseded values: the lock-free replacement for a reader/writer
/// lock around read-mostly state.  Readers hold a Guard (or are
/// workers) across load() and every dereference of the result; writers
/// build a new value, publish(), and the old value is retired.
/// The Ptr owns the current value (deleted in the destructor); writers
/// serialize among themselves externally.
template <typename T> class Ptr {
public:
  Ptr() = default;
  explicit Ptr(T *Initial) : P(Initial) {}
  ~Ptr() {
    using Mutable = std::remove_const_t<T>;
    delete const_cast<Mutable *>(P.load(std::memory_order_relaxed));
  }
  Ptr(const Ptr &) = delete;
  Ptr &operator=(const Ptr &) = delete;

  /// The current value.  Caller must be pinned (Guard) or a worker of
  /// the retiring domain for the full lifetime of the returned pointer.
  T *load() const { return P.load(std::memory_order_acquire); }

  /// Publishes \p New and retires the previous value into \p D.
  void publish(T *New, Domain &D = domain()) {
    T *Old = P.exchange(New, std::memory_order_seq_cst);
    if (Old)
      retireObject(Old, D);
  }

  /// Swaps without retiring (single-threaded setup/move paths only).
  T *exchange(T *New) {
    return P.exchange(New, std::memory_order_seq_cst);
  }

private:
  std::atomic<T *> P{nullptr};
};

} // namespace epoch
} // namespace dsu

#endif // DSU_EPOCH_EPOCH_H
