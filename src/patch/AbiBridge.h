//===- patch/AbiBridge.h - Marshalling patch code to bindings -*- C++ -*-===//
///
/// \file
/// Bridges the two patch code backends onto the uniform Binding ABI the
/// updateable runtime calls through.
///
/// *Native backend*: patch shared objects export their provides with C
/// linkage in the "uniform invoker ABI" — the C++ ABI signature
/// `R sym(void *reserved, Args...)` where the scalar mapping is
/// int -> int64_t, float -> double, bool -> bool, string -> SharedStr,
/// unit -> void.  The leading reserved pointer makes the exported symbol
/// directly installable as Binding::Invoker with zero per-call adaptation
/// (and sidesteps C++ name mangling, the friction point of doing the
/// PLDI 2001 dlopen approach in C++).  Patch authors do not write these
/// stubs by hand: the patch generator emits them.
///
/// *VTAL backend*: provides are functions of the embedded VTAL module.
/// makeValueBinding() wraps a vtal::HostFn-shaped callable in a typed
/// trampoline selected at runtime from the function's dsu type.  The
/// trampoline table covers all scalar signatures up to arity 3 — the
/// shape budget of VTAL patch code.  A string crosses in either
/// direction as a pointer copy: vtal::Value holds the same shared buffer
/// a SharedStr does.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_PATCH_ABIBRIDGE_H
#define DSU_PATCH_ABIBRIDGE_H

#include "runtime/Binding.h"
#include "support/Error.h"
#include "types/Type.h"
#include "vtal/Interp.h"

#include <string>

namespace dsu {

/// Wraps a uniform-ABI native symbol as a binding.  \p Addr must point to
/// a function of shape `R(void *, Args...)` consistent with \p FnTy.
Expected<Binding> makeUniformBinding(const Type *FnTy, void *Addr,
                                     uint32_t Version, std::string Origin);

/// Wraps a Value-level callable (e.g. "call this VTAL function in this
/// interpreter") as a typed binding for signature \p FnTy.  Fails when
/// \p FnTy is outside the supported scalar-signature table.
Expected<Binding> makeValueBinding(TypeContext &Ctx, const Type *FnTy,
                                   vtal::HostFn Impl, uint32_t Version,
                                   std::string Origin);

/// True when \p FnTy is within the scalar-signature table (arity <= 3
/// over int/float/bool/string with any scalar-or-unit result).
bool isBridgeableFnType(const Type *FnTy);

} // namespace dsu

#endif // DSU_PATCH_ABIBRIDGE_H
