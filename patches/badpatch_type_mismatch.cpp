//===- patches/badpatch_type_mismatch.cpp - Rejection test patch -*- C++ -*-//
///
/// \file
/// A deliberately ill-typed native patch: it claims to replace
/// "math.fib" with a definition of a *different* type.  The dynamic
/// linker must reject it at prepare time with no program mutation —
/// the type-safety property of the PLDI 2001 system under test.
///
//===----------------------------------------------------------------------===//

#include "patch/NativeAbi.h"

#include <cstdint>

namespace {

const char *Manifest = R"dsu(
(patch
  (id "badpatch-type-mismatch")
  (description "claims fib now takes a string; must be rejected")
  (provides
    (fn (name "math.fib")
        (type "fn(string) -> int")
        (native-symbol "dsu_bad_fib"))))
)dsu";

} // namespace

extern "C" const char *dsu_patch_manifest() { return Manifest; }

extern "C" int64_t dsu_bad_fib(void *, dsu::SharedStr S) {
  return static_cast<int64_t>(S.size());
}
