//===- runtime/UpdateableRegistry.cpp -------------------------*- C++ -*-===//

#include "runtime/UpdateableRegistry.h"

#include "support/Logging.h"

using namespace dsu;

namespace {

/// A chain is detachable only when *every* entry is graced: epochs are
/// monotonically older down the chain, but a canary gate anywhere in it
/// may still be redirecting control workers regardless of age.
bool chainGraced(const RollEntry *Head, uint64_t MinObservedEpoch) {
  for (const RollEntry *R = Head; R;
       R = R->Prev.load(std::memory_order_relaxed))
    if (!R->graced(MinObservedEpoch))
      return false;
  return true;
}

/// Whether an entry of the live chain at \p Head still redirects
/// readers to \p B.
bool chainNames(const RollEntry *Head, const Binding *B) {
  for (const RollEntry *R = Head; R;
       R = R->Prev.load(std::memory_order_relaxed))
    if (R->Old == B)
      return true;
  return false;
}

} // namespace

size_t UpdateableSlot::rollDepth() const {
  size_t N = 0;
  for (const RollEntry *R = Roll.load(std::memory_order_acquire); R;
       R = R->Prev.load(std::memory_order_acquire))
    ++N;
  return N;
}

Expected<UpdateableSlot *>
UpdateableRegistry::define(const std::string &Name, const Type *FnTy,
                           Binding Initial) {
  if (!FnTy || !FnTy->isFunction())
    return Error::make(ErrorCode::EC_Invalid,
                       "updateable '%s' requires a function type",
                       Name.c_str());
  if (!Initial.Invoker || !Initial.Ctx)
    return Error::make(ErrorCode::EC_Invalid,
                       "updateable '%s' requires an initial implementation",
                       Name.c_str());

  std::lock_guard<std::mutex> G(Lock);
  if (Slots.count(Name))
    return Error::make(ErrorCode::EC_Invalid,
                       "updateable '%s' is already defined", Name.c_str());
  auto Slot = std::make_unique<UpdateableSlot>(
      Name, FnTy, std::make_unique<Binding>(std::move(Initial)));
  UpdateableSlot *Raw = Slot.get();
  Slots.emplace(Name, std::move(Slot));
  return Raw;
}

UpdateableSlot *UpdateableRegistry::lookup(const std::string &Name) {
  std::lock_guard<std::mutex> G(Lock);
  auto It = Slots.find(Name);
  return It == Slots.end() ? nullptr : It->second.get();
}

const UpdateableSlot *
UpdateableRegistry::lookup(const std::string &Name) const {
  std::lock_guard<std::mutex> G(Lock);
  auto It = Slots.find(Name);
  return It == Slots.end() ? nullptr : It->second.get();
}

void UpdateableRegistry::appendAndPublish(UpdateableSlot &Slot,
                                          const Type *Ty,
                                          std::unique_ptr<Binding> B) {
  if (B->Version <= Slot.newest()->Version)
    B->Version = Slot.newest()->Version + 1;
  const Binding *Raw = B.get();
  Slot.History.push_back(std::move(B));
  Slot.TypeHistory.push_back(Ty);
  Slot.FnTy.store(Ty, std::memory_order_release);
  Slot.Current.store(Raw, std::memory_order_release);
  Slot.Installed.fetch_add(1, std::memory_order_relaxed);
  if (Slot.History.size() > UpdateableSlot::kWindow) {
    // Unlinked from the window, but a reader may still hold it, and a
    // live chain entry may still redirect readers to it:
    // flushGracedRolls() decides when it is freed.
    Slot.DroppedBindings.push_back({std::move(Slot.History.front())});
    Slot.History.erase(Slot.History.begin());
    Slot.TypeHistory.erase(Slot.TypeHistory.begin());
    Pending.fetch_add(1, std::memory_order_relaxed);
  }
}

RollEntry *UpdateableRegistry::swingPreparedSlot(
    UpdateableSlot &Slot, const Type *NewTy,
    std::unique_ptr<Binding> NewBinding, bool Rolling) {
  std::lock_guard<std::mutex> G(Lock);
  RollEntry *Entry = nullptr;
  if (Rolling) {
    // The current binding stays reachable two ways: through the slot's
    // window (it becomes the rollback target) and through the RollEntry
    // for readers still inside an older epoch.  Epoch
    // stays kUnpublished (UINT64_MAX): every reader resolves to Old
    // until the caller lowers it inside Domain::advanceWith.
    Entry = new RollEntry();
    Entry->Old = Slot.Current.load(std::memory_order_relaxed);
    RollEntry *Head = Slot.Roll.load(std::memory_order_relaxed);
    Entry->Prev.store(Head, std::memory_order_relaxed);
    if (!Head)
      Pending.fetch_add(1, std::memory_order_relaxed);
    // Entry before Current: a reader that sees the new Current is
    // guaranteed (release/acquire on Current) to also see the entry and
    // be redirected while its epoch predates the swing.
    Slot.Roll.store(Entry, std::memory_order_release);
  }
  appendAndPublish(Slot, NewTy, std::move(NewBinding));
  return Entry;
}

Expected<UpdateableSlot *> UpdateableRegistry::installPreparedSlot(
    std::unique_ptr<UpdateableSlot> Slot) {
  std::lock_guard<std::mutex> G(Lock);
  const std::string &Name = Slot->name();
  if (Slots.count(Name))
    return Error::make(ErrorCode::EC_Invalid,
                       "updateable '%s' is already defined", Name.c_str());
  UpdateableSlot *Raw = Slot.get();
  Slots.emplace(Name, std::move(Slot));
  return Raw;
}

void UpdateableRegistry::flushGracedRolls(
    uint64_t MinObservedEpoch, std::vector<RollEntry *> &DetachedOut) {
  std::vector<std::unique_ptr<Binding>> Freed;
  {
    std::lock_guard<std::mutex> G(Lock);
    if (!Pending.load(std::memory_order_relaxed))
      return;
    // Dropped bindings whose last unlink happened by now; they wait for
    // the epoch the advance below publishes.
    std::vector<UpdateableSlot::Dropped *> Unlinked;
    bool AwaitingGrace = false;
    for (auto &[Name, Slot] : Slots) {
      (void)Name;
      RollEntry *Head = Slot->Roll.load(std::memory_order_relaxed);
      // Mid-publication, within a reader's grace window, or carrying an
      // unresolved canary gate (control workers still depend on the
      // redirection): the chain must stay.
      if (Head && chainGraced(Head, MinObservedEpoch)) {
        for (RollEntry *R = Head; R;
             R = R->Prev.load(std::memory_order_relaxed))
          DetachedOut.push_back(R);
        Slot->Roll.store(nullptr, std::memory_order_release);
        Pending.fetch_sub(1, std::memory_order_relaxed);
        Head = nullptr;
      }
      for (UpdateableSlot::Dropped &D : Slot->DroppedBindings) {
        if (D.FreeAt != UpdateableSlot::Dropped::kNamed)
          AwaitingGrace = true;
        else if (!chainNames(Head, D.B.get()))
          Unlinked.push_back(&D);
      }
    }
    if (Unlinked.empty() && !AwaitingGrace)
      return;
    epoch::Domain &Dom = epoch::domain();
    if (!Unlinked.empty()) {
      // A reader that observes the published epoch E loaded the slot
      // and its chain after every unlink above, so it cannot reach
      // these bindings; one that may still hold one announces < E.
      Dom.advanceWith(
          [](uint64_t E, void *Raw) {
            for (UpdateableSlot::Dropped *D :
                 *static_cast<std::vector<UpdateableSlot::Dropped *> *>(Raw))
              D->FreeAt = E;
          },
          &Unlinked);
    }
    // Freshly sampled: a minimum read before the advance could predate
    // a reader that pinned in between.  With no participant it is
    // kIdle, which frees every stamped binding but no named one.
    uint64_t Min = Dom.minObservedEpoch();
    for (auto &[Name, Slot] : Slots) {
      (void)Name;
      std::vector<UpdateableSlot::Dropped> &Ds = Slot->DroppedBindings;
      size_t Kept = 0;
      for (size_t I = 0; I != Ds.size(); ++I) {
        if (Ds[I].FreeAt != UpdateableSlot::Dropped::kNamed &&
            Ds[I].FreeAt <= Min)
          Freed.push_back(std::move(Ds[I].B));
        else
          Ds[Kept++] = std::move(Ds[I]);
      }
      Pending.fetch_sub(Ds.size() - Kept, std::memory_order_relaxed);
      Ds.resize(Kept);
    }
  }
  // Freed outside the lock: a VTAL instance's teardown or a dlclose
  // must not hold up staging threads that look slots up.
}

size_t UpdateableRegistry::residentBindings(const UpdateableSlot &Slot) const {
  std::lock_guard<std::mutex> G(Lock);
  return Slot.History.size() + Slot.DroppedBindings.size();
}

Expected<RollEntry *> UpdateableRegistry::rollback(const std::string &Name) {
  std::unique_ptr<Binding> Owned;
  const Type *PrevTy = nullptr;
  UpdateableSlot *Slot = nullptr;
  {
    std::lock_guard<std::mutex> G(Lock);
    auto It = Slots.find(Name);
    if (It == Slots.end())
      return Error::make(ErrorCode::EC_Link,
                         "cannot roll back unknown updateable '%s'",
                         Name.c_str());
    Slot = It->second.get();
    size_t N = Slot->History.size();
    if (N < 2)
      return Error::make(ErrorCode::EC_Invalid,
                         "'%s' has no prior version to roll back to",
                         Name.c_str());
    const Binding &Last = *Slot->History[N - 1];
    if (!Last.MigratedBy.empty())
      return Error::make(ErrorCode::EC_Invalid,
                         "'%s' cannot roll back past patch %s: that patch "
                         "migrated state, and the prior code was written "
                         "for the old representation",
                         Name.c_str(), Last.MigratedBy.c_str());

    // Reinstall the previous implementation as a *new* version.
    const Binding &Prev = *Slot->History[N - 2];
    Owned = std::make_unique<Binding>(Prev);
    Owned->Origin = "rollback-of:" + Last.Origin;
    Owned->MigratedBy.clear(); // a rollback itself migrates nothing
    PrevTy = Slot->TypeHistory[N - 2];
    DSU_LOG_INFO("rollback '%s' to the v%u implementation (as v%u)",
                 Name.c_str(), Prev.Version, Slot->newest()->Version + 1);
  }
  return swingPreparedSlot(*Slot, PrevTy, std::move(Owned),
                           /*Rolling=*/true);
}

std::vector<std::string> UpdateableRegistry::slotNames() const {
  std::lock_guard<std::mutex> G(Lock);
  std::vector<std::string> Names;
  Names.reserve(Slots.size());
  for (const auto &[Name, Slot] : Slots) {
    (void)Slot;
    Names.push_back(Name);
  }
  return Names;
}

size_t UpdateableRegistry::size() const {
  std::lock_guard<std::mutex> G(Lock);
  return Slots.size();
}
