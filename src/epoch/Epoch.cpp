//===- epoch/Epoch.cpp ----------------------------------------*- C++ -*-===//

#include "epoch/Epoch.h"

#include <algorithm>
#include <unordered_map>

using namespace dsu;
using namespace dsu::epoch;

namespace {

/// The default-domain thread epoch and worker flag.  File-local: every
/// access goes through the accessor functions below, so no cross-TU
/// TLS wrapper is ever emitted.
thread_local uint64_t TLEpoch = 0;
thread_local bool TLIsWorker = false;

} // namespace

uint64_t dsu::epoch::threadPinnedEpoch() { return TLEpoch; }
bool dsu::epoch::onWorkerThread() { return TLIsWorker; }

namespace {

/// Registry of live domains (address -> identity), consulted by
/// thread-exit cleanup so a thread that outlives a (test-local) Domain
/// does not touch freed memory; the identity check additionally defeats
/// address reuse.  Intentionally leaked: still reachable at exit, so it
/// never races static destruction and LSan does not flag it.
std::mutex &liveDomainsMu() {
  static std::mutex *M = new std::mutex;
  return *M;
}
std::unordered_map<Domain *, uint64_t> &liveDomains() {
  static auto *S = new std::unordered_map<Domain *, uint64_t>;
  return *S;
}

uint64_t nextDomainId() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

namespace dsu {
namespace epoch {

/// Per-thread cache of this thread's guard slot in each domain it has
/// pinned.  The destructor (thread exit) returns the slots to domains
/// that still exist.
struct ThreadSlotCacheAccess {
  struct Entry {
    Domain *D;
    uint64_t Id; ///< the domain's identity when the slot was cached
    Domain::Slot *S;
  };
  std::vector<Entry> Entries;

  /// Matches on address AND identity; a stale entry for a dead domain
  /// whose address was reused is evicted, never returned.
  Domain::Slot *find(const Domain *D, uint64_t Id) {
    for (size_t I = 0; I != Entries.size(); ++I) {
      if (Entries[I].D != D)
        continue;
      if (Entries[I].Id == Id)
        return Entries[I].S;
      Entries.erase(Entries.begin() + static_cast<ptrdiff_t>(I));
      return nullptr;
    }
    return nullptr;
  }

  ~ThreadSlotCacheAccess() {
    std::lock_guard<std::mutex> G(liveDomainsMu());
    for (const Entry &E : Entries) {
      auto It = liveDomains().find(E.D);
      if (It == liveDomains().end() || It->second != E.Id)
        continue; // domain died (or was replaced at the same address)
      std::lock_guard<std::mutex> L(E.D->Mu);
      E.D->releaseSlotLocked(E.S);
    }
  }
};

} // namespace epoch
} // namespace dsu

namespace {
thread_local ThreadSlotCacheAccess TLGuardSlots;
} // namespace

/// The calling thread's reusable buffer of expired entries, lent for one
/// collection: after the first collection on a thread, freeing a batch
/// allocates nothing.  A deleter that retires or reclaims in turn finds
/// the spare lent out and uses a buffer of its own.
class Domain::ExpiredBatch {
public:
  ExpiredBatch() : Entries(std::move(spare())) { spare().clear(); }
  ~ExpiredBatch() {
    Entries.clear();
    spare() = std::move(Entries);
  }
  ExpiredBatch(const ExpiredBatch &) = delete;
  ExpiredBatch &operator=(const ExpiredBatch &) = delete;

  std::vector<Retired> Entries;

private:
  static std::vector<Retired> &spare() {
    thread_local std::vector<Retired> Spare;
    return Spare;
  }
};

// --- Domain lifecycle ----------------------------------------------------

Domain::Domain() : Id(nextDomainId()) {
  std::lock_guard<std::mutex> G(liveDomainsMu());
  liveDomains().emplace(this, Id);
}

Domain::~Domain() {
  {
    std::lock_guard<std::mutex> G(liveDomainsMu());
    liveDomains().erase(this);
  }
  drain();
}

Domain &dsu::epoch::domain() {
  static Domain D;
  return D;
}

// --- Slot management -----------------------------------------------------

Domain::Slot *Domain::allocSlotLocked() {
  if (FreeSlots) {
    Slot *S = FreeSlots;
    FreeSlots = S->NextFree;
    S->NextFree = nullptr;
    S->Active = true;
    S->Worker = false;
    S->PinDepth = 0;
    S->Observed.store(kIdle, std::memory_order_relaxed);
    return S;
  }
  Slots.push_back(std::make_unique<Slot>());
  Slot *S = Slots.back().get();
  S->Active = true;
  return S;
}

void Domain::releaseSlotLocked(Slot *S) {
  S->Active = false;
  S->Worker = false;
  S->Observed.store(kIdle, std::memory_order_relaxed);
  S->NextFree = FreeSlots;
  FreeSlots = S;
}

Domain::Slot *Domain::registerWorker() {
  std::lock_guard<std::mutex> G(Mu);
  Slot *S = allocSlotLocked();
  S->Worker = true;
  S->Observed.store(Global.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  return S;
}

void Domain::deregisterWorker(Slot *S) {
  ExpiredBatch Expired;
  {
    std::lock_guard<std::mutex> G(Mu);
    releaseSlotLocked(S);
    // This worker may have been the one holding a grace period open.
    collectExpiredLocked(Expired.Entries);
  }
  runDeleters(Expired.Entries);
}

uint64_t Domain::quiesce(Slot *S) {
  uint64_t G = Global.load(std::memory_order_acquire);
  // Release: every payload read of the *finished* iteration is ordered
  // before this announcement, so a reclaimer that acquires it (the min
  // scan) frees only after those reads completed.
  S->Observed.store(G, std::memory_order_release);
  // And order the announcement before any pointer load of the *next*
  // serving iteration, against a concurrent retirer's scan (Dekker
  // pairing with the fence in collectExpiredLocked).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (LimboCount.load(std::memory_order_relaxed))
    tryReclaim();
  return G;
}

// --- Guard pinning -------------------------------------------------------

Domain::Slot *Domain::pinThread() {
  Slot *S = TLGuardSlots.find(this, Id);
  if (!S) {
    {
      std::lock_guard<std::mutex> G(Mu);
      S = allocSlotLocked();
    }
    TLGuardSlots.Entries.push_back({this, Id, S});
  }
  if (S->PinDepth++ == 0) {
    uint64_t G = Global.load(std::memory_order_acquire);
    // Release, like quiesce(): a reclaimer whose scan reads this pin
    // has every read of this thread's previous pin ordered before its
    // free (free on x86; sanitizers do not model the fence below).
    S->Observed.store(G, std::memory_order_release);
    // The pin must be visible to any reclaimer before we load protected
    // pointers (pairs with the fence in tryReclaim).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    S->PinnedEpoch = G;
  }
  return S;
}

void Domain::unpinThread(Slot *S) {
  if (--S->PinDepth != 0)
    return;
  S->Observed.store(kIdle, std::memory_order_release);
  if (LimboCount.load(std::memory_order_relaxed))
    tryReclaim();
}

// --- The epoch clock -----------------------------------------------------

uint64_t Domain::advanceWith(void (*Install)(uint64_t, void *), void *Ctx) {
  uint64_t E;
  {
    std::lock_guard<std::mutex> G(Mu);
    E = Global.load(std::memory_order_relaxed) + 1;
    if (Install)
      Install(E, Ctx);
    // Publish only after the installation: a reader sampling E is
    // guaranteed (release->acquire on Global) to see everything Install
    // wrote; a reader still on an older sample sees epoch < E.
    Global.store(E, std::memory_order_release);
  }
  return E;
}

// --- Deferred reclamation ------------------------------------------------

void Domain::retire(void *P, void (*Del)(void *)) {
  ExpiredBatch Expired;
  {
    std::lock_guard<std::mutex> G(Mu);
    uint64_t Tag = Global.load(std::memory_order_relaxed);
    Limbo.push_back(Retired{P, Del, Tag});
    // Advance the clock so this grace period can complete as soon as
    // every participant quiesces once more — no ticker thread needed.
    Global.store(Tag + 1, std::memory_order_release);
    // Reap anything already graced in the same critical section — a
    // second blocking acquisition per retire would serialize unrelated
    // writers twice on this one mutex.  Deleters run outside the lock.
    collectExpiredLocked(Expired.Entries);
  }
  Retires.fetch_add(1, std::memory_order_relaxed);
  runDeleters(Expired.Entries);
}

uint64_t Domain::minObservedLocked() const {
  uint64_t Min = kIdle;
  for (const std::unique_ptr<Slot> &S : Slots) {
    if (!S->Active)
      continue;
    // Acquire pairs with the release announcement in quiesce()/unpin:
    // a free justified by this value happens-after every payload read
    // the announcing thread performed before it.
    uint64_t O = S->Observed.load(std::memory_order_acquire);
    if (O < Min)
      Min = O;
  }
  return Min;
}

uint64_t Domain::minObservedEpoch() const {
  // Order the scan after every unlink this thread made before the call
  // (pairs with the pin/quiesce fences), as collectExpiredLocked does.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::lock_guard<std::mutex> G(Mu);
  return minObservedLocked();
}

void Domain::collectExpiredLocked(std::vector<Retired> &Out) {
  if (Limbo.empty())
    return;
  // Order the participant scan after any published unlink this thread
  // races with (pairs with the pin/quiesce fences).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  uint64_t Min = minObservedLocked();
  // A retired object tagged E was unlinked while the epoch was E; any
  // reader that could have obtained it announced an epoch <= E.  Free
  // once every participant has moved strictly past the tag.
  while (!Limbo.empty() && Limbo.front().Epoch < Min) {
    Out.push_back(Limbo.front());
    Limbo.pop_front();
  }
  LimboCount.store(Limbo.size(), std::memory_order_relaxed);
}

void Domain::runDeleters(std::vector<Retired> &Batch) {
  for (Retired &R : Batch)
    if (R.Del)
      R.Del(R.P);
  Reclaims.fetch_add(Batch.size(), std::memory_order_relaxed);
}

size_t Domain::tryReclaim() {
  ExpiredBatch Expired;
  {
    std::unique_lock<std::mutex> G(Mu, std::try_to_lock);
    if (!G.owns_lock())
      return 0;
    collectExpiredLocked(Expired.Entries);
  }
  size_t N = Expired.Entries.size();
  runDeleters(Expired.Entries);
  return N;
}

size_t Domain::reclaim() {
  ExpiredBatch Expired;
  {
    std::lock_guard<std::mutex> G(Mu);
    collectExpiredLocked(Expired.Entries);
  }
  size_t N = Expired.Entries.size();
  runDeleters(Expired.Entries);
  return N;
}

void Domain::drain() {
  std::vector<Retired> All;
  {
    std::lock_guard<std::mutex> G(Mu);
    All.assign(Limbo.begin(), Limbo.end());
    Limbo.clear();
    LimboCount.store(0, std::memory_order_relaxed);
  }
  runDeleters(All);
}

// --- WorkerReg -----------------------------------------------------------

WorkerReg::WorkerReg(Domain &D)
    : D(D), S(D.registerWorker()), IsDefault(&D == &domain()) {
  if (IsDefault) {
    TLIsWorker = true;
    TLEpoch = D.slotEpoch(S);
  }
}

WorkerReg::~WorkerReg() {
  D.deregisterWorker(S);
  if (IsDefault) {
    TLIsWorker = false;
    TLEpoch = 0;
  }
}

uint64_t WorkerReg::quiesce() {
  uint64_t G = D.quiesce(S);
  if (IsDefault)
    TLEpoch = G;
  return G;
}

// --- Guard ---------------------------------------------------------------

Guard::Guard() {
  if (TLIsWorker)
    return; // the worker's own announcement cell already protects us
  pin(domain(), /*IsDefault=*/true);
}

Guard::Guard(Domain &Dom) {
  bool IsDefault = &Dom == &domain();
  if (IsDefault && TLIsWorker)
    return;
  pin(Dom, IsDefault);
}

void Guard::pin(Domain &Dom, bool IsDefault) {
  D = &Dom;
  S = Dom.pinThread();
  if (IsDefault) {
    SavedTL = TLEpoch;
    TLEpoch = S->PinnedEpoch;
    RestoreTL = true;
  }
}

Guard::~Guard() {
  if (!D)
    return;
  if (RestoreTL)
    TLEpoch = SavedTL;
  D->unpinThread(S);
}
