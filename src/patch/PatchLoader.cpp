//===- patch/PatchLoader.cpp ----------------------------------*- C++ -*-===//

#include "patch/PatchLoader.h"

#include "link/NativeLoader.h"
#include "patch/AbiBridge.h"
#include "patch/NativeAbi.h"
#include "support/Logging.h"
#include "support/MemoryBuffer.h"
#include "support/StringUtil.h"
#include "trace/Profile.h"
#include "types/TypeParser.h"
#include "vtal/Assembler.h"
#include "vtal/Bytecode.h"
#include "vtal/Interp.h"
#ifndef DSU_VTAL_NO_NATIVE
#include "vtal/native/NativeImage.h"
#endif

using namespace dsu;

namespace {

/// Fills the backend-independent parts of \p P from \p M: imports and
/// new-type definitions.
Error populateCommon(TypeContext &Ctx, const PatchManifest &M, Patch &P) {
  P.Id = M.Id;
  P.Description = M.Description;
  P.Unit.Name = "patch:" + M.Id;

  for (const ManifestRequire &R : M.Requires) {
    Expected<const Type *> Ty = parseType(Ctx, R.TypeText);
    if (!Ty)
      return Ty.takeError().withContext("import '" + R.Name + "'");
    P.Unit.Imports.push_back(ImportRequest{R.Name, *Ty});
  }

  for (const ManifestNewType &T : M.NewTypes) {
    Expected<VersionedName> Name = parseVersionedName(T.Name);
    if (!Name)
      return Name.takeError().withContext("new type '" + T.Name + "'");
    Expected<const Type *> Repr = parseType(Ctx, T.Repr);
    if (!Repr)
      return Repr.takeError().withContext("new type '" + T.Name + "'");
    P.NewTypes.push_back(PatchTypeDef{std::move(*Name), *Repr});
  }
  return Error::success();
}

Expected<VersionBump> parseBump(const ManifestTransformer &X) {
  Expected<VersionedName> From = parseVersionedName(X.From);
  if (!From)
    return From.takeError();
  Expected<VersionedName> To = parseVersionedName(X.To);
  if (!To)
    return To.takeError();
  return VersionBump{std::move(*From), std::move(*To)};
}

/// A VTAL module plus the one interpreter executing it; shared into
/// every binding the patch creates so the code outlives the Patch value.
///
/// The interpreter is set up while the patch loads (imports bound,
/// profile and native image attached) and immutable afterwards.  Its
/// execution state is per thread (vtal/Interp.h), so every reactor
/// worker, the staging worker running a transformer and any other
/// caller call it directly and at once.
struct VtalInstance {
  explicit VtalInstance(vtal::Module M) : Mod(std::move(M)), Interp(Mod) {}

  vtal::Module Mod;
  vtal::Interpreter Interp;

  /// Hot-function profile for this module version, registered with the
  /// global ProfileRegistry (GET /admin/profile, dsu_vtal_*_total
  /// metrics).
  std::shared_ptr<trace::ModuleProfile> Prof;

#ifndef DSU_VTAL_NO_NATIVE
  /// The native image, compiled once at load from every representable
  /// function (null when none is) and never replaced.
  std::shared_ptr<const vtal::native::NativeImage> Img;

  /// Compiles the interpreter's resolved form into Img and attaches it.
  void compileNative() {
    using vtal::native::NativeImage;
    const vtal::ResolvedModule &RM = Interp.resolved();
    Expected<std::shared_ptr<const NativeImage>> NewImg =
        NativeImage::compile(RM);
    if (!NewImg) {
      DSU_LOG_WARN("vtal native compile failed for '%s': %s",
                   Mod.Name.c_str(), NewImg.error().str().c_str());
      return;
    }
    if ((*NewImg)->compiledCount() == 0)
      return;
    Img = std::move(*NewImg);
    for (size_t F = 0; F != RM.Functions.size(); ++F)
      if (Img->compiled(static_cast<uint32_t>(F)))
        Prof->fn(F).Tier.store(1, std::memory_order_relaxed);
    Interp.setNativeImage(Img);
  }
#endif
};

} // namespace

Expected<Patch> dsu::loadNativePatch(TypeContext &Ctx,
                                     const std::string &SoPath) {
  Expected<std::shared_ptr<LoadedLibrary>> Lib = LoadedLibrary::open(SoPath);
  if (!Lib)
    return Lib.takeError();

  Expected<std::string> ManifestText = readPatchManifest(**Lib);
  if (!ManifestText)
    return ManifestText.takeError();
  Expected<PatchManifest> M = PatchManifest::parse(*ManifestText);
  if (!M)
    return M.takeError().withContext(SoPath);

  Patch P;
  P.SourcePath = SoPath;
  if (Error E = populateCommon(Ctx, *M, P))
    return E.withContext(SoPath);

  for (const ManifestProvide &Prov : M->Provides) {
    if (Prov.NativeSymbol.empty())
      return Error::make(ErrorCode::EC_Link,
                         "%s: provide '%s' has no native-symbol",
                         SoPath.c_str(), Prov.Name.c_str());
    Expected<const Type *> Ty = parseType(Ctx, Prov.TypeText);
    if (!Ty)
      return Ty.takeError().withContext("provide '" + Prov.Name + "'");
    Expected<void *> Addr = (*Lib)->symbol(Prov.NativeSymbol);
    if (!Addr)
      return Addr.takeError();
    Expected<Binding> B =
        makeUniformBinding(*Ty, *Addr, 0, "native:" + P.Id);
    if (!B)
      return B.takeError();
    B->KeepAlive = *Lib;
    P.Unit.Provides.push_back(ProvideRequest{Prov.Name, *Ty, std::move(*B)});
  }

  for (const ManifestTransformer &X : M->Transformers) {
    Expected<VersionBump> Bump = parseBump(X);
    if (!Bump)
      return Bump.takeError().withContext(SoPath);
    Expected<void *> Addr = (*Lib)->symbol(X.Impl);
    if (!Addr)
      return Addr.takeError().withContext("transformer " + X.From);
    auto Native = reinterpret_cast<DsuNativeTransformFn>(*Addr);
    std::shared_ptr<LoadedLibrary> Keep = *Lib;
    TransformFn Fn =
        [Native, Keep](const std::shared_ptr<void> &Old,
                       const StateCell &Cell)
        -> Expected<std::shared_ptr<void>> {
      DsuNativeTransformOut Out = Native(Old.get());
      if (Out.ErrorText)
        return Error::make(ErrorCode::EC_Transform,
                           "native transformer failed on cell '%s': %s",
                           Cell.name().c_str(), Out.ErrorText);
      if (!Out.NewData || !Out.Deleter)
        return Error::make(ErrorCode::EC_Transform,
                           "native transformer returned no data for cell "
                           "'%s'",
                           Cell.name().c_str());
      // Tie the new payload's lifetime to both its deleter and the
      // library that holds the deleter's code.
      return std::shared_ptr<void>(Out.NewData,
                                   [Del = Out.Deleter, Keep](void *Ptr) {
                                     Del(Ptr);
                                   });
    };
    P.Transformers.push_back(PatchTransformer{std::move(*Bump), std::move(Fn)});
  }

  if (Expected<uint64_t> Size = fileSize(SoPath))
    P.CodeBytes = static_cast<size_t>(*Size);

  DSU_LOG_INFO("loaded native patch '%s' from %s (%zu provides)",
               P.Id.c_str(), SoPath.c_str(), P.Unit.Provides.size());
  return P;
}

Expected<Patch> dsu::loadVtalPatch(TypeContext &Ctx, const SymbolTable &Syms,
                                   const std::string &ManifestText,
                                   const std::string &SourcePath) {
  Expected<PatchManifest> M = PatchManifest::parse(ManifestText);
  if (!M)
    return M.takeError().withContext(SourcePath);
  if (M->VtalText.empty())
    return Error::make(ErrorCode::EC_Parse,
                       "%s: patch has no embedded vtal-module",
                       SourcePath.c_str());

  Patch P;
  P.SourcePath = SourcePath;
  if (Error E = populateCommon(Ctx, *M, P))
    return E.withContext(SourcePath);

  Expected<vtal::Module> Mod = vtal::assemble(M->VtalText);
  if (!Mod)
    return Mod.takeError().withContext(SourcePath);

  auto Inst = std::make_shared<VtalInstance>(std::move(*Mod));
  P.VtalMod = std::shared_ptr<vtal::Module>(Inst, &Inst->Mod);

  // Wire the module's imports to the program's typed exports.  The
  // linker re-checks these types during prepare(); here resolution only
  // needs the callable.
  for (const vtal::Import &Imp : Inst->Mod.Imports) {
    const SymbolDef *Def = Syms.lookup(Imp.Name);
    if (!Def || !Def->Host)
      return Error::make(ErrorCode::EC_Link,
                         "%s: import '%s' has no host implementation",
                         SourcePath.c_str(), Imp.Name.c_str());
    const Type *WantTy = Imp.Sig.toType(Ctx);
    if (!typesEqual(Def->Ty, WantTy))
      return Error::make(ErrorCode::EC_TypeMismatch,
                         "%s: import '%s' wants '%s' but export has '%s'",
                         SourcePath.c_str(), Imp.Name.c_str(),
                         WantTy->str().c_str(), Def->Ty->str().c_str());
    if (Error E = Inst->Interp.bindImport(Imp.Name, Def->Host))
      return E;
    // Record for the linker's typed re-check at prepare time.
    P.Unit.Imports.push_back(ImportRequest{Imp.Name, WantTy});
  }

  // (provide index in P.Unit.Provides, resolved function index): lets the
  // native tier stamp Binding::NativeEntry after compile-at-link below.
  std::vector<std::pair<size_t, uint32_t>> ProvideFns;
  for (const ManifestProvide &Prov : M->Provides) {
    if (Prov.VtalFn.empty())
      return Error::make(ErrorCode::EC_Link,
                         "%s: provide '%s' names no vtal-fn",
                         SourcePath.c_str(), Prov.Name.c_str());
    Expected<uint32_t> FnIdx = Inst->Interp.functionIndex(Prov.VtalFn);
    if (!FnIdx)
      return Error::make(ErrorCode::EC_Link,
                         "%s: vtal-fn '%s' not found in module",
                         SourcePath.c_str(), Prov.VtalFn.c_str());
    const vtal::Function *Fn = &Inst->Mod.Functions[*FnIdx];
    Expected<const Type *> DeclTy = parseType(Ctx, Prov.TypeText);
    if (!DeclTy)
      return DeclTy.takeError().withContext("provide '" + Prov.Name + "'");
    const Type *CodeTy = Fn->Sig.toType(Ctx);
    if (!typesEqual(*DeclTy, CodeTy))
      return Error::make(ErrorCode::EC_TypeMismatch,
                         "%s: provide '%s' declares '%s' but the code has "
                         "'%s'",
                         SourcePath.c_str(), Prov.Name.c_str(),
                         (*DeclTy)->str().c_str(), CodeTy->str().c_str());

    // The entry point is resolved once here; per-request dispatch goes
    // straight to the function index.
    vtal::HostFn Impl =
        [Inst, Idx = *FnIdx](const std::vector<vtal::Value> &Args) {
          return Inst->Interp.callIndex(Idx, Args);
        };
    // Note: the binding's KeepAlive is the closure box created by the
    // bridge; the interpreter instance stays alive because the closure
    // captures Inst.  Do not overwrite KeepAlive here.
    Expected<Binding> B =
        makeValueBinding(Ctx, CodeTy, std::move(Impl), 0, "vtal:" + P.Id);
    if (!B)
      return B.takeError();
    P.Unit.Provides.push_back(
        ProvideRequest{Prov.Name, CodeTy, std::move(*B)});
    ProvideFns.emplace_back(P.Unit.Provides.size() - 1, *FnIdx);
  }

  for (const ManifestTransformer &X : M->Transformers) {
    Expected<VersionBump> Bump = parseBump(X);
    if (!Bump)
      return Bump.takeError().withContext(SourcePath);
    Expected<uint32_t> XfIdx = Inst->Interp.functionIndex(X.Impl);
    if (!XfIdx)
      return Error::make(ErrorCode::EC_Link,
                         "%s: transformer impl '%s' not found in module",
                         SourcePath.c_str(), X.Impl.c_str());
    const vtal::Function *Fn = &Inst->Mod.Functions[*XfIdx];
    // VTAL transformers cover scalar-represented cells: the transformer
    // function must be (int) -> int or (string) -> string; the engine
    // passes the cell payload through it.
    if (Fn->Sig.Params.size() != 1 ||
        Fn->Sig.Params[0] != Fn->Sig.Result ||
        (Fn->Sig.Result != vtal::ValKind::VK_Int &&
         Fn->Sig.Result != vtal::ValKind::VK_Str))
      return Error::make(ErrorCode::EC_Unsupported,
                         "%s: VTAL transformer '%s' must have shape "
                         "(int) -> int or (string) -> string",
                         SourcePath.c_str(), X.Impl.c_str());

    bool IsInt = Fn->Sig.Result == vtal::ValKind::VK_Int;
    TransformFn Xf =
        [Inst, XfIdx = *XfIdx, IsInt](const std::shared_ptr<void> &Old,
                                      const StateCell &Cell)
        -> Expected<std::shared_ptr<void>> {
      std::vector<vtal::Value> Args;
      if (IsInt)
        Args.push_back(
            vtal::Value::makeInt(*static_cast<int64_t *>(Old.get())));
      else
        Args.push_back(
            vtal::Value::makeStr(*static_cast<std::string *>(Old.get())));
      Expected<vtal::Value> Res = Inst->Interp.callIndex(XfIdx, Args);
      if (!Res)
        return Res.takeError().withContext("VTAL transformer on cell '" +
                                           Cell.name() + "'");
      if (IsInt)
        return std::shared_ptr<void>(
            std::make_shared<int64_t>(Res->asInt()));
      return std::shared_ptr<void>(
          std::make_shared<std::string>(Res->asStr()));
    };
    P.Transformers.push_back(
        PatchTransformer{std::move(*Bump), std::move(Xf)});
  }

  // Loading is done: attach the hot-function profile (per module
  // version — the registry keys rankings by patch id).
  {
    std::vector<std::string> FnNames;
    FnNames.reserve(Inst->Mod.Functions.size());
    for (const vtal::Function &Fn : Inst->Mod.Functions)
      FnNames.push_back(Fn.Name);
    Inst->Prof = trace::ProfileRegistry::instance().create(
        P.Id, Inst->Mod.Name, std::move(FnNames));
    Inst->Interp.setProfile(Inst->Prof.get());
  }
#ifndef DSU_VTAL_NO_NATIVE
  // Native tier: compile every representable function now.  The image
  // attaches to the interpreter the bindings already call, so rolling
  // updates, canaries and graced roll chains see no new mechanism.
  Inst->compileNative();
  if (Inst->Img) {
    // Link-layer visibility: each provide whose entry function compiled
    // carries its machine-code address on the binding it ships.
    for (const auto &[ProvIdx, FnIdx] : ProvideFns)
      if (Inst->Img->compiled(FnIdx))
        P.Unit.Provides[ProvIdx].Code.NativeEntry =
            reinterpret_cast<const void *>(Inst->Img->entry(FnIdx));
    DSU_LOG_INFO("vtal native tier: compiled %u/%zu function(s) of '%s' "
                 "(%zu code bytes)",
                 Inst->Img->compiledCount(), Inst->Mod.Functions.size(),
                 Inst->Mod.Name.c_str(), Inst->Img->codeBytes());
  }
#else
  (void)ProvideFns;
#endif

  P.CodeBytes = ManifestText.size() + vtal::encodeModule(Inst->Mod).size();
  DSU_LOG_INFO("loaded VTAL patch '%s' (%zu provides, %zu instructions)",
               P.Id.c_str(), P.Unit.Provides.size(),
               Inst->Mod.totalInstructions());
  return P;
}

Expected<Patch> dsu::loadPatchFile(TypeContext &Ctx, const SymbolTable &Syms,
                                   const std::string &Path) {
  if (endsWith(Path, ".so"))
    return loadNativePatch(Ctx, Path);
  Expected<std::string> Text = readFile(Path);
  if (!Text)
    return Text.takeError();
  return loadVtalPatch(Ctx, Syms, *Text, Path);
}
