//===- core/DSU.h - Umbrella header ---------------------------*- C++ -*-===//
///
/// \file
/// Convenience umbrella for embedders: pulls in the full public API of
/// the dsu library (a C++ reproduction of "Dynamic Software Updating",
/// Hicks/Moore/Nettles, PLDI 2001).
///
/// Typical embedding:
/// \code
///   dsu::Runtime RT;
///   auto Greet = dsu::cantFail(
///       RT.defineUpdateable<SharedStr, SharedStr>("greet", &greetV1));
///   ...
///   while (Running) {
///     RT.updatePoint();           // applies queued patches when safe
///     serveOneRequest(Greet);
///   }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DSU_CORE_DSU_H
#define DSU_CORE_DSU_H

#include "core/Runtime.h"
#include "patch/Generator.h"
#include "patch/Manifest.h"
#include "patch/Patch.h"
#include "patch/PatchBuilder.h"
#include "patch/PatchLoader.h"
#include "runtime/Updateable.h"
#include "state/Transform.h"
#include "support/Error.h"
#include "types/Compat.h"
#include "types/Type.h"
#include "types/TypeParser.h"
#include "vtal/Assembler.h"
#include "vtal/Interp.h"
#include "vtal/Verifier.h"

#endif // DSU_CORE_DSU_H
