//===- patch/NativeAbi.h - ABI contract for native patches ----*- C++ -*-===//
///
/// \file
/// The C-linkage contract between the dsu runtime and native patch shared
/// objects.  Patch authors (and the patch generator, which emits these
/// stubs) include this header from patch sources.
///
/// A native patch exports:
///  - `const char *dsu_patch_manifest(void)` returning the s-expression
///    manifest;
///  - one uniform-ABI function per provide:
///    `R sym(void *reserved, Args...)` with the scalar mapping
///    int -> int64_t, float -> double, bool -> bool,
///    string -> dsu::SharedStr (by value; support/SharedStr.h), unit -> void;
///  - one `DsuNativeTransformOut sym(void *old_data)` per transformer.
///
/// All exports use `extern "C"` so dlsym never sees C++ mangled names —
/// the stated friction point for reproducing the PLDI 2001 dlopen path
/// in C++.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_PATCH_NATIVEABI_H
#define DSU_PATCH_NATIVEABI_H

#include "support/SharedStr.h"

extern "C" {

/// Result of a native state transformer.
///
/// On success, `NewData` is a heap object to be owned by the runtime and
/// destroyed with `Deleter`, and `ErrorText` is null.  On failure,
/// `ErrorText` points to a static or leaked string describing the
/// problem and `NewData` is null.  The old payload is never freed by the
/// transformer — the runtime still owns it (and keeps it if the update
/// is abandoned).
struct DsuNativeTransformOut {
  void *NewData;
  void (*Deleter)(void *);
  const char *ErrorText;
};

/// Signature of a native transformer export.
typedef DsuNativeTransformOut (*DsuNativeTransformFn)(void *OldData);

} // extern "C"

#endif // DSU_PATCH_NATIVEABI_H
