//===- link/Linker.h - Two-phase type-directed linking --------*- C++ -*-===//
///
/// \file
/// The dynamic linker proper: takes a LinkUnit (what a patch provides and
/// imports), checks everything against the running program, and only then
/// mutates the updateable registry.
///
/// The two phases reproduce the atomicity property of the PLDI 2001
/// system: a patch that fails any check (unresolved import, type
/// mismatch, missing transformer) is rejected *before* any binding
/// changes, so the program is never left half-updated.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_LINK_LINKER_H
#define DSU_LINK_LINKER_H

#include "link/SymbolTable.h"
#include "runtime/UpdateableRegistry.h"
#include "types/Compat.h"

#include <memory>
#include <string>
#include <vector>

namespace dsu {

/// One definition a patch supplies.
struct ProvideRequest {
  std::string Name;
  const Type *Ty = nullptr;
  Binding Code;
};

/// One symbol a patch needs from the running program.
struct ImportRequest {
  std::string Name;
  const Type *Ty = nullptr;
};

/// Everything a patch asks of the linker.
struct LinkUnit {
  std::string Name; ///< diagnostic label (usually the patch id)
  std::vector<ProvideRequest> Provides;
  std::vector<ImportRequest> Imports;
};

/// The validated plan produced by Linker::prepare().
struct LinkPlan {
  LinkUnit Unit;
  /// Resolved import definitions, parallel to Unit.Imports.
  std::vector<const SymbolDef *> ResolvedImports;
  /// Provides that replace an existing slot (vs. define a new one).
  std::vector<bool> IsReplacement;
  /// The resolved slot of each replacement (nullptr for defines),
  /// parallel to Unit.Provides.  Slot pointers are stable for the
  /// program's life, so commit swings them without a name lookup.
  std::vector<UpdateableSlot *> ResolvedSlots;
  /// Named-type version bumps across all replacements; the update engine
  /// must hold a transformer for each before committing.
  std::vector<VersionBump> RequiredBumps;
  /// Each provide's binding, heap-allocated at prepare time (parallel to
  /// Unit.Provides, whose Code fields it was moved from) so the commit
  /// pause pays no allocation.  restoreCode() puts the code back for a
  /// re-prepare of the same unit.
  std::vector<std::unique_ptr<Binding>> PreparedCode;
  /// Fully constructed slots for the provides that *define* (nullptr for
  /// replacements), also built at prepare time; commit only links each
  /// into the registry.  They hold a copy of the binding, so
  /// PreparedCode stays intact for restoreCode().
  std::vector<std::unique_ptr<UpdateableSlot>> PreparedSlots;

  /// Moves PreparedCode back into Unit.Provides so the unit can be
  /// re-prepared (plan revalidation after another commit landed).
  void restoreCode() {
    for (size_t I = 0; I != PreparedCode.size() && I != Unit.Provides.size();
         ++I)
      if (PreparedCode[I])
        Unit.Provides[I].Code = std::move(*PreparedCode[I]);
    PreparedCode.clear();
  }
};

/// Stateless two-phase linker over a registry and export table.
class Linker {
public:
  Linker(UpdateableRegistry &Reg, SymbolTable &Syms)
      : Registry(Reg), Symbols(Syms) {}

  /// Phase 1: checks the whole unit.  No program state changes.
  Expected<LinkPlan> prepare(LinkUnit Unit) const;

  /// Phase 2: installs every provide.  Must be called with the plan from
  /// prepare(); by the single-updater discipline (updates apply at update
  /// points), nothing can invalidate the plan in between.  All or
  /// nothing, by order rather than by undo: new definitions are
  /// installed first, because that is the only step that can fail, and
  /// only then do the replacements swing.  A failed commit therefore
  /// leaves every replaced slot's binding, version and history as they
  /// were.
  ///
  /// With \p Rolling set (code-only patches, no global quiescence), the
  /// replacements swing through per-slot RollEntries and one epoch
  /// advance: a reader thread adopts the whole patch at its own next
  /// quiescent point, never mid-request, and the superseded redirection
  /// records are epoch-retired instead of freed.  Callers guarantee a
  /// rolling plan migrates no state and bumps no types.
  ///
  /// \p CanaryMask gates a rolling commit on worker identity: with a
  /// mask other than UINT64_MAX, only workers whose bit is set adopt the
  /// new bindings — every other reader stays redirected to the old code
  /// until the rollout controller resolves the gate (lowers each
  /// entry's PromoteEpoch, on promotion or in the rollback's own epoch
  /// advance).  The gated entries are appended to \p GatedOut, the
  /// controller's handle for resolving them.
  Error commit(LinkPlan Plan, bool Rolling = false,
               uint64_t CanaryMask = UINT64_MAX,
               std::vector<RollEntry *> *GatedOut = nullptr);

private:
  UpdateableRegistry &Registry;
  SymbolTable &Symbols;
};

} // namespace dsu

#endif // DSU_LINK_LINKER_H
