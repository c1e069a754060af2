//===- patch/PatchBuilder.h - In-process patch construction ---*- C++ -*-===//
///
/// \file
/// Fluent construction of Patch values from within the running program —
/// the backend used by tests, by the quickstart example, and by programs
/// that compile their own update code in.  Loader-produced and
/// builder-produced patches flow through the identical update pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_PATCH_PATCHBUILDER_H
#define DSU_PATCH_PATCHBUILDER_H

#include "patch/Patch.h"
#include "runtime/Updateable.h"

namespace dsu {

/// Accumulates patch content; build() validates coherence.
class PatchBuilder {
public:
  PatchBuilder(TypeContext &Ctx, std::string Id) : Ctx(Ctx) {
    P.Id = std::move(Id);
  }

  PatchBuilder &describe(std::string Text) {
    P.Description = std::move(Text);
    return *this;
  }

  /// Provides a new implementation from a C++ function pointer; the dsu
  /// type is derived from the C++ signature.
  template <typename R, typename... Args>
  PatchBuilder &provide(const std::string &Name, R (*Fn)(Args...)) {
    return provideBinding(Name, fnTypeOf<R, Args...>(Ctx),
                          makeRawBinding(Fn, 0, "patch:" + P.Id));
  }

  PatchBuilder &provideBinding(const std::string &Name, const Type *FnTy,
                               Binding Code) {
    P.Unit.Provides.push_back(ProvideRequest{Name, FnTy, std::move(Code)});
    return *this;
  }

  /// Declares a typed import from the running program.
  PatchBuilder &require(const std::string &Name, const Type *Ty) {
    P.Unit.Imports.push_back(ImportRequest{Name, Ty});
    return *this;
  }

  /// Introduces a new version of a named type with representation
  /// \p Repr.
  PatchBuilder &defineType(VersionedName Name, const Type *Repr) {
    P.NewTypes.push_back(PatchTypeDef{std::move(Name), Repr});
    return *this;
  }

  /// Ships the state transformer for \p Bump.
  PatchBuilder &transformer(VersionBump Bump, TransformFn Fn) {
    P.Transformers.push_back(PatchTransformer{std::move(Bump), std::move(Fn)});
    return *this;
  }

  /// Validates and yields the patch:
  ///  - at least one provide, type definition or transformer;
  ///  - every transformer's target version has a definition (either from
  ///    this patch or already in the context);
  ///  - no duplicate provides.
  Expected<Patch> build();

private:
  TypeContext &Ctx;
  Patch P;
};

/// Builds a patch that declares version \p From.Version+1 of named type
/// \p From with representation \p Repr and an identity transformer (the
/// payload object carries over unchanged).  The no-op *state-migrating*
/// patch: it forces the full global-quiescence commit path without
/// changing behaviour — used by benchmarks, the pool test suites, and
/// operator update drills.
Expected<Patch> makeIdentityBumpPatch(TypeContext &Ctx,
                                      const VersionedName &From,
                                      const Type *Repr);

} // namespace dsu

#endif // DSU_PATCH_PATCHBUILDER_H
