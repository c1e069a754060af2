//===- runtime/UpdateableRegistry.h - Indirection slots -------*- C++ -*-===//
///
/// \file
/// The updateable-symbol table: named, typed slots each holding the
/// current Binding of one updateable function.
///
/// This is the reproduction of the PLDI 2001 compilation strategy in
/// which references to updateable definitions are indirected through a
/// table the dynamic linker may rebind.  Readers (calls) take one atomic
/// acquire load.  Every writer — a linker commit's swing, barrier or
/// rolling, and a rollback, which is always rolling — goes through one
/// append-and-publish step under the registry mutex: number the
/// binding, append it to the slot's history, publish it with a release
/// store.  The type-compatibility judgement runs before that, in
/// Linker::prepare().
///
/// A slot keeps a bounded window of two bindings: the current one and
/// the rollback target.  A binding pushed out of that window stays
/// resident while a live RollEntry of the slot still names it, then for
/// one epoch grace period; flushGracedRolls() frees it, at a commit or
/// a pool worker's idle point, with everything its KeepAlive owns (a
/// VTAL instance, a dlopen'd library).  Callers must therefore be epoch participants:
/// Updateable<Sig>::operator() takes an epoch::Guard, which is free on a
/// reactor worker.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_RUNTIME_UPDATEABLEREGISTRY_H
#define DSU_RUNTIME_UPDATEABLEREGISTRY_H

#include "epoch/Epoch.h"
#include "runtime/Binding.h"
#include "support/Error.h"
#include "support/WorkerId.h"
#include "types/Compat.h"
#include "types/Type.h"

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

namespace dsu {

/// The per-epoch redirection record of one rolling (barrier-free)
/// binding swing: readers whose default-domain epoch predates Epoch are
/// routed to the superseded binding, so a worker mid-request keeps one
/// consistent code generation and switches only at its own quiescent
/// point.  Entries chain (Prev) when rolls outpace grace periods; a
/// fully graced chain is detached at the next swing and epoch-retired.
struct RollEntry {
  const Binding *Old = nullptr;
  /// Readers with epoch < Epoch use Old.  Installed as kUnpublished
  /// (everyone -> Old) and lowered to the real swing epoch inside
  /// Domain::advanceWith, before that epoch becomes observable.
  std::atomic<uint64_t> Epoch{UINT64_MAX};
  std::atomic<RollEntry *> Prev{nullptr};

  /// Canary gate.  UINT64_MAX = ungated (the common case; every reader
  /// past Epoch adopts the new binding).  Otherwise bit i grants worker
  /// i the new binding while the rollout observes; every other reader —
  /// control workers and unidentified threads alike — stays on Old
  /// until PromoteEpoch resolves the gate.
  std::atomic<uint64_t> CanaryMask{UINT64_MAX};

  /// Epoch at which a canary gate resolved.  UINT64_MAX while the
  /// rollout is still observing; lowered inside Domain::advanceWith on
  /// promotion, or in the same advance that publishes a rollback's
  /// swing, so gate resolution is per-reader atomic at the reader's
  /// next quiesce.
  std::atomic<uint64_t> PromoteEpoch{UINT64_MAX};

  /// Whether a reader pinned at epoch \p E must be redirected to Old.
  bool redirects(uint64_t E) const {
    if (E < Epoch.load(std::memory_order_acquire))
      return true; // swing not yet observable for this reader
    uint64_t Mask = CanaryMask.load(std::memory_order_acquire);
    if (Mask == UINT64_MAX)
      return false; // ungated: the pre-canary fast answer
    if (E >= PromoteEpoch.load(std::memory_order_acquire))
      return false; // gate resolved; everyone adopts Current
    int W = currentWorkerId();
    return W < 0 || W >= 64 || !((Mask >> W) & 1);
  }

  /// Whether every reader is past this entry: the swing epoch has been
  /// graced AND any canary gate has resolved and been graced.  Only then
  /// may the entry be detached from its slot's chain.
  bool graced(uint64_t MinObservedEpoch) const {
    uint64_t E = Epoch.load(std::memory_order_relaxed);
    if (E == UINT64_MAX || E > MinObservedEpoch)
      return false;
    if (CanaryMask.load(std::memory_order_relaxed) == UINT64_MAX)
      return true;
    uint64_t P = PromoteEpoch.load(std::memory_order_relaxed);
    return P != UINT64_MAX && P <= MinObservedEpoch;
  }
};

/// One updateable function's slot.  Created by UpdateableRegistry and
/// never destroyed before the registry, so raw Slot pointers handed to
/// Updateable<Sig> handles stay valid for the program's life.
class UpdateableSlot {
public:
  /// How many bindings a slot keeps: the current one and the one
  /// rollback() restores.  Rollback depth is 1 by design.
  static constexpr size_t kWindow = 2;

  UpdateableSlot(std::string Name, const Type *FnTy,
                 std::unique_ptr<Binding> Initial)
      : Name(std::move(Name)), FnTy(FnTy), Current(Initial.get()) {
    History.push_back(std::move(Initial));
    TypeHistory.push_back(FnTy);
  }

  ~UpdateableSlot() {
    // Any remaining roll chain is torn down with the registry; no
    // reader can outlive it.
    RollEntry *R = Roll.load(std::memory_order_relaxed);
    while (R) {
      RollEntry *P = R->Prev.load(std::memory_order_relaxed);
      delete R;
      R = P;
    }
  }

  const std::string &name() const { return Name; }

  /// The slot's recorded type.  Atomic: link preparation reads it from
  /// staging threads while the update thread rebinds.
  const Type *type() const { return FnTy.load(std::memory_order_acquire); }

  /// The hot path: acquire-load of the current binding, plus — only
  /// while a rolling update's grace period is open on this slot — the
  /// per-epoch redirection that keeps an in-flight request on the code
  /// generation it started with.  Steady-state cost over the original
  /// single load is one predictable null check.
  ///
  /// The caller must be an epoch participant (a registered worker, or
  /// a thread inside an epoch::Guard) for as long as it uses the
  /// result: its pin keeps detached chain entries and superseded
  /// bindings alive, and its pinned epoch is the consistency anchor.
  /// An unpinned thread is invisible to grace periods; it takes the
  /// newest binding without walking the chain, and that binding may be
  /// freed under it once two more swings pass.
  const Binding *current() const {
    const Binding *B = Current.load(std::memory_order_acquire);
    const RollEntry *R = Roll.load(std::memory_order_acquire);
    if (R) {
      uint64_t E = epoch::threadPinnedEpoch();
      if (E != 0)
        while (R && R->redirects(E)) {
          B = R->Old;
          R = R->Prev.load(std::memory_order_acquire);
        }
    }
    return B;
  }

  uint32_t currentVersion() const {
    epoch::Guard G;
    return current()->Version;
  }

  /// The newest installed binding, ignoring any epoch redirection.
  /// Registry internals derive version numbers from this — the
  /// epoch-aware current() could return a superseded binding on a
  /// thread still pinned inside an older epoch (e.g. a rollback
  /// executing on a worker whose epoch predates a rolling commit),
  /// minting a duplicate version.
  const Binding *newest() const {
    return Current.load(std::memory_order_acquire);
  }

  /// Number of bindings ever installed (including the initial one).
  size_t historySize() const {
    return Installed.load(std::memory_order_relaxed);
  }

  /// Live entries of the rolling redirection chain (0 in steady state).
  size_t rollDepth() const;

private:
  friend class UpdateableRegistry;

  std::string Name;
  std::atomic<const Type *> FnTy; // may be rebound on version-bumped updates
  std::atomic<const Binding *> Current;
  std::atomic<RollEntry *> Roll{nullptr}; ///< newest rolling swing first
  std::atomic<size_t> Installed{1};       ///< bindings ever installed

  // Guarded by the registry lock.
  /// The rollback window, oldest first: at most kWindow bindings.
  std::vector<std::unique_ptr<Binding>> History;
  std::vector<const Type *> TypeHistory; ///< parallel to History

  /// A binding pushed out of the window, awaiting its free.
  struct Dropped {
    /// FreeAt while a live RollEntry still names B.
    static constexpr uint64_t kNamed = UINT64_MAX;

    std::unique_ptr<Binding> B;
    /// The epoch from which no reader can hold B: published by the
    /// advance that follows its last unlink.
    uint64_t FreeAt = kNamed;
  };
  std::vector<Dropped> DroppedBindings;
};

/// Registry of all updateable slots of one runtime.
class UpdateableRegistry {
public:
  UpdateableRegistry() = default;
  UpdateableRegistry(const UpdateableRegistry &) = delete;
  UpdateableRegistry &operator=(const UpdateableRegistry &) = delete;

  /// Creates slot \p Name of function type \p FnTy with its version-1
  /// implementation.  Fails if the name exists or \p FnTy is not a
  /// function type.
  Expected<UpdateableSlot *> define(const std::string &Name,
                                    const Type *FnTy, Binding Initial);

  /// Looks up a slot; nullptr when absent.
  UpdateableSlot *lookup(const std::string &Name);
  const UpdateableSlot *lookup(const std::string &Name) const;

  /// The commit half of the linker's prepare/commit split, and the one
  /// replacement swing: installs a binding the linker already validated
  /// and heap-allocated at prepare time into a slot it already resolved,
  /// so the update-point pause pays neither the compatibility judgement,
  /// nor an allocation, nor a name lookup.  Sound only for plans
  /// validated by Linker::prepare() under the single-updater discipline
  /// (stale plans are re-prepared before commit).
  ///
  /// With \p Rolling set (a barrier-free commit), a RollEntry is put in
  /// front of the new binding, epoch still unpublished, so every reader
  /// keeps the superseded binding until the caller lowers the entry's
  /// epoch inside Domain::advanceWith; the entry is returned.  Without
  /// it the swing is observable at once and nullptr is returned.
  RollEntry *swingPreparedSlot(UpdateableSlot &Slot, const Type *NewTy,
                               std::unique_ptr<Binding> NewBinding,
                               bool Rolling);

  /// swingPreparedSlot()'s sibling for slots the plan *defines*: links
  /// a slot the linker constructed at prepare time into the registry.
  Expected<UpdateableSlot *>
  installPreparedSlot(std::unique_ptr<UpdateableSlot> Slot);

  /// Detaches every slot's rolling-redirection chain whose newest entry
  /// has been fully graced (epoch <= \p MinObservedEpoch, and any canary
  /// gate resolved), restoring the single-load fast path; the detached
  /// entries are appended to \p DetachedOut for epoch-retirement by the
  /// caller.
  ///
  /// Then it reclaims the bindings pushed out of each slot's window.  A
  /// dropped binding that no live chain entry names any more is
  /// unreachable: one epoch advance stamps every such binding with the
  /// epoch it publishes, and a binding is freed here, on the calling
  /// thread (a committer, or a pool worker at its idle point), once
  /// every participant has observed that epoch.  Never from an epoch
  /// deleter, which any retire, unpin or quiesce may run: freeing a .so
  /// binding may dlclose.
  void flushGracedRolls(uint64_t MinObservedEpoch,
                        std::vector<RollEntry *> &DetachedOut);

  /// Whether flushGracedRolls() has anything to do: a slot carries a
  /// rolling-redirection chain or a dropped binding awaits its free.
  /// Lock free (one relaxed load): each pool worker polls this at every
  /// idle point, and must not contend with the serving path.
  bool hasPendingReclaim() const {
    return Pending.load(std::memory_order_relaxed) != 0;
  }

  /// Bindings of \p Slot still allocated: its window plus the dropped
  /// ones not yet freed (introspection and tests).
  size_t residentBindings(const UpdateableSlot &Slot) const;

  /// Reverts \p Name to the implementation (and recorded type) it had
  /// before its most recent swing.  The rollback is itself an update:
  /// it appends a fresh binding rather than erasing history, so a
  /// rollback can be rolled back.  It is a rolling swing like any other
  /// (swingPreparedSlot with Rolling set): the returned entry is still
  /// unpublished, and the caller lowers its epoch inside
  /// Domain::advanceWith.  Like the linker's swings, it is sound under
  /// the single-updater discipline.  Code-only — state transformers are
  /// one-way, so a binding installed by a state-migrating commit refuses
  /// with EC_Invalid, naming the patch.  (Reverse transformers are
  /// future work in the PLDI 2001 paper.)
  Expected<RollEntry *> rollback(const std::string &Name);

  /// Snapshot of all slot names (sorted; for the linker's export table
  /// and for diagnostics).
  std::vector<std::string> slotNames() const;

  size_t size() const;

private:
  /// The one append-and-publish step behind every binding swing (the
  /// caller holds Lock): numbers \p B past the slot's newest version,
  /// appends it and \p Ty to the slot's window, publishes the type and
  /// then the binding, and moves the binding that leaves the window to
  /// the slot's dropped list.
  void appendAndPublish(UpdateableSlot &Slot, const Type *Ty,
                        std::unique_ptr<Binding> B);

  mutable std::mutex Lock;
  std::map<std::string, std::unique_ptr<UpdateableSlot>> Slots;
  /// Live roll chains plus dropped bindings, over all slots; maintained
  /// under Lock, read lock-free by hasPendingReclaim().
  std::atomic<size_t> Pending{0};
};

/// Thread-local count of updateable activations on the current thread's
/// stack.  updatePoint() consults this to refuse updates requested while
/// old code is still active on this thread — the paper's "activeness"
/// check for update timing safety.
class ActivationTracker {
public:
  /// RAII frame marker; cheap (one thread-local increment/decrement).
  class Frame {
  public:
    Frame() { ++depth(); }
    ~Frame() { --depth(); }
    Frame(const Frame &) = delete;
    Frame &operator=(const Frame &) = delete;
  };

  /// Number of updateable frames live on this thread.
  static unsigned currentDepth() { return depth(); }

private:
  static unsigned &depth() {
    thread_local unsigned Depth = 0;
    return Depth;
  }
};

} // namespace dsu

#endif // DSU_RUNTIME_UPDATEABLEREGISTRY_H
