//===- link/Linker.cpp ----------------------------------------*- C++ -*-===//

#include "link/Linker.h"

#include "support/Logging.h"
#include "trace/Trace.h"

#include <algorithm>
#include <set>

using namespace dsu;

Expected<LinkPlan> Linker::prepare(LinkUnit Unit) const {
  LinkPlan Plan;

  // Every import must resolve, with an identical type, before we look at
  // provides at all.
  for (const ImportRequest &Imp : Unit.Imports) {
    if (!Imp.Ty)
      return Error::make(ErrorCode::EC_Invalid,
                         "%s: import '%s' carries no type",
                         Unit.Name.c_str(), Imp.Name.c_str());
    Expected<const SymbolDef *> Def = Symbols.resolve(Imp.Name, Imp.Ty);
    if (!Def)
      return Def.takeError().withContext(Unit.Name);
    Plan.ResolvedImports.push_back(*Def);
  }

  // Provides must be well-formed, unique within the unit, and each
  // replacement must pass the compatibility judgement.
  std::set<std::string> Seen;
  for (const ProvideRequest &Prov : Unit.Provides) {
    if (!Prov.Ty || !Prov.Ty->isFunction())
      return Error::make(ErrorCode::EC_Invalid,
                         "%s: provide '%s' needs a function type",
                         Unit.Name.c_str(), Prov.Name.c_str());
    if (!Prov.Code.Invoker || !Prov.Code.Ctx)
      return Error::make(ErrorCode::EC_Invalid,
                         "%s: provide '%s' carries no code",
                         Unit.Name.c_str(), Prov.Name.c_str());
    if (!Seen.insert(Prov.Name).second)
      return Error::make(ErrorCode::EC_Invalid,
                         "%s: duplicate provide '%s'", Unit.Name.c_str(),
                         Prov.Name.c_str());

    UpdateableSlot *Slot = Registry.lookup(Prov.Name);
    Plan.IsReplacement.push_back(Slot != nullptr);
    Plan.ResolvedSlots.push_back(Slot);
    if (!Slot)
      continue;

    ReplaceCheck Check = checkReplacement(Slot->type(), Prov.Ty);
    if (!Check.ok())
      return Error::make(ErrorCode::EC_TypeMismatch,
                         "%s: provide '%s' rejected: %s",
                         Unit.Name.c_str(), Prov.Name.c_str(),
                         Check.Reason.c_str());
    for (const VersionBump &B : Check.Bumps)
      if (std::find(Plan.RequiredBumps.begin(), Plan.RequiredBumps.end(),
                    B) == Plan.RequiredBumps.end())
        Plan.RequiredBumps.push_back(B);
  }

  // Pre-allocate every binding — and pre-construct the slots of new
  // definitions — now, at stage time, so the commit pause is only
  // pointer swings plus one registry insert per new name.
  Plan.PreparedCode.reserve(Unit.Provides.size());
  Plan.PreparedSlots.reserve(Unit.Provides.size());
  for (size_t I = 0; I != Unit.Provides.size(); ++I) {
    ProvideRequest &Prov = Unit.Provides[I];
    Plan.PreparedCode.push_back(
        std::make_unique<Binding>(std::move(Prov.Code)));
    Plan.PreparedSlots.push_back(
        Plan.IsReplacement[I]
            ? nullptr
            : std::make_unique<UpdateableSlot>(
                  Prov.Name, Prov.Ty,
                  std::make_unique<Binding>(*Plan.PreparedCode[I])));
  }

  Plan.Unit = std::move(Unit);
  return Plan;
}

Error Linker::commit(LinkPlan Plan, bool Rolling, uint64_t CanaryMask,
                     std::vector<RollEntry *> *GatedOut) {
  trace::Span Sp("link", Rolling ? "commit.rolling" : "commit.barrier",
                 Plan.Unit.Provides.size());
  assert(Plan.PreparedCode.size() == Plan.Unit.Provides.size() &&
         "commit needs the plan prepare() produced");

  // New definitions first: they are the only fallible installs, and a
  // name nobody references yet has no readers to keep consistent — so a
  // failure here rejects the patch before any replacement swings.  (A
  // slot defined before the failure stays: handles may already name it,
  // and a dangling new definition changes no behaviour.)
  for (size_t I = 0; I != Plan.Unit.Provides.size(); ++I) {
    if (Plan.IsReplacement[I])
      continue;
    Expected<UpdateableSlot *> Slot =
        Registry.installPreparedSlot(std::move(Plan.PreparedSlots[I]));
    if (!Slot)
      return Slot.takeError().withContext(
          Plan.Unit.Name + ": commit rejected before any binding swung");
  }

  // Replacements: nothing below can fail.  The prepared swing skips the
  // compatibility judgement: prepare() already ran it, and stale plans
  // are re-prepared before commit.  A rolling swing first detaches the
  // fully graced redirection chains, then leaves each slot behind a
  // still-unpublished RollEntry (all readers keep resolving to the old
  // binding).
  std::vector<RollEntry *> NewEntries, Detached;
  if (Rolling)
    Registry.flushGracedRolls(epoch::domain().minObservedEpoch(), Detached);
  for (size_t I = 0; I != Plan.Unit.Provides.size(); ++I)
    if (Plan.IsReplacement[I])
      if (RollEntry *R = Registry.swingPreparedSlot(
              *Plan.ResolvedSlots[I], Plan.Unit.Provides[I].Ty,
              std::move(Plan.PreparedCode[I]), Rolling))
        NewEntries.push_back(R);

  if (!NewEntries.empty()) {
    // Canary gating: arm the gate while each entry's epoch is still
    // unpublished (everyone resolves to Old regardless of mask), so no
    // reader can observe a swing epoch without also observing the gate.
    // Only gated entries are handed out: an ungated one may be detached
    // and retired as soon as it is graced.
    if (CanaryMask != UINT64_MAX) {
      for (RollEntry *R : NewEntries)
        R->CanaryMask.store(CanaryMask, std::memory_order_release);
      if (GatedOut)
        GatedOut->insert(GatedOut->end(), NewEntries.begin(),
                         NewEntries.end());
    }
    // Lower every entry's epoch to E inside one advanceWith — the
    // instant E becomes observable, all of them switch together.  A
    // reader therefore sees the whole patch or none of it, decided by
    // its own quiescent point.
    epoch::domain().advanceWith(
        [](uint64_t E, void *Raw) {
          for (RollEntry *R : *static_cast<std::vector<RollEntry *> *>(Raw))
            R->Epoch.store(E, std::memory_order_release);
        },
        &NewEntries);
  }

  // Superseded redirection records whose grace period has fully
  // passed: retired, not freed — an in-flight chain traversal may still
  // touch them.
  for (RollEntry *R : Detached)
    epoch::retireObject(R);

  DSU_LOG_DEBUG("%s: linked %zu provide(s), %zu import(s)%s",
                Plan.Unit.Name.c_str(), Plan.Unit.Provides.size(),
                Plan.Unit.Imports.size(),
                Rolling ? " without a barrier" : "");
  return Error::success();
}
