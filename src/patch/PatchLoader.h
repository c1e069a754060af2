//===- patch/PatchLoader.h - Loading patch artifacts ----------*- C++ -*-===//
///
/// \file
/// Turns on-disk patch artifacts into ready-to-apply Patch values.
///
/// Two artifact forms exist, mirroring the PLDI 2001 system's "verifiable
/// native code loaded by TAL/Load":
///  - *Native patches* (`.so`): dlopen'd shared objects exporting a
///    manifest and uniform-ABI code stubs (see patch/NativeAbi.h).  This
///    is the same-dlopen-path reproduction.
///  - *VTAL patches* (`.dsup`): a manifest file with an embedded VTAL
///    module.  Code is machine-verified before linking and runs in the
///    interpreter; imports call back into the program through the typed
///    export table.
///
/// Loading performs no program mutation; the returned Patch is inert
/// until the update engine applies it at an update point.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_PATCH_PATCHLOADER_H
#define DSU_PATCH_PATCHLOADER_H

#include "link/SymbolTable.h"
#include "patch/Manifest.h"
#include "patch/Patch.h"

#include <string>

namespace dsu {

/// Loads a native patch shared object at \p SoPath.
Expected<Patch> loadNativePatch(TypeContext &Ctx, const std::string &SoPath);

/// Materializes a patch from manifest text with an embedded VTAL module.
/// \p Syms supplies host implementations for the module's imports (their
/// types are re-checked by the linker before commit).
Expected<Patch> loadVtalPatch(TypeContext &Ctx, const SymbolTable &Syms,
                              const std::string &ManifestText,
                              const std::string &SourcePath = "<text>");

/// Loads either artifact kind by file extension (".so" native, anything
/// else treated as a VTAL/manifest patch file).
Expected<Patch> loadPatchFile(TypeContext &Ctx, const SymbolTable &Syms,
                              const std::string &Path);

} // namespace dsu

#endif // DSU_PATCH_PATCHLOADER_H
