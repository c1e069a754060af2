//===- examples/patchgen_demo.cpp - The patch generator -------*- C++ -*-===//
///
/// \file
/// The semi-automatic patch generator end to end, reproducing §4 of the
/// PLDI 2001 paper: two version manifests of a program are diffed, the
/// generator classifies every change, emits the patch manifest plus a
/// C++ stub skeleton, and a human finishes the transformer.  The
/// finished patch is then applied to a live runtime.
///
//===----------------------------------------------------------------------===//

#include "core/DSU.h"

#include <cstdio>

using namespace dsu;

namespace {

const char *OldVersion = R"dsu(
(version-manifest
  (program "imgserv")
  (version 7)
  (functions
    (fn (name "imgserv.resize") (type "fn(string, int) -> string")
        (body-hash "b1-resize") (impl "dsu_v7_resize"))
    (fn (name "imgserv.encode") (type "fn(string) -> string")
        (body-hash "b1-encode") (impl "dsu_v7_encode"))
    (fn (name "imgserv.stats") (type "fn() -> string")
        (body-hash "b1-stats") (impl "dsu_v7_stats")))
  (types
    (type (name "%imgmeta@1") (repr "{path: string, width: int}"))))
)dsu";

const char *NewVersion = R"dsu(
(version-manifest
  (program "imgserv")
  (version 8)
  (functions
    (fn (name "imgserv.resize") (type "fn(string, int) -> string")
        (body-hash "b2-resize") (impl "dsu_v8_resize"))      ; body changed
    (fn (name "imgserv.encode") (type "fn(string) -> string")
        (body-hash "b1-encode") (impl "dsu_v8_encode"))      ; unchanged
    (fn (name "imgserv.thumbnail") (type "fn(string) -> string")
        (body-hash "b2-thumb") (impl "dsu_v8_thumbnail"))    ; added
    ; imgserv.stats was removed in v8
    )
  (types
    ; representation changed: height field added -> needs v2 + transformer
    (type (name "%imgmeta@2")
          (repr "{path: string, width: int, height: int}"))))
)dsu";

struct MetaV1 {
  std::string Path;
  int64_t Width;
};
struct MetaV2 {
  std::string Path;
  int64_t Width;
  int64_t Height;
};

SharedStr resizeV8(SharedStr Path, int64_t W) {
  return "resized-v8:" + Path.str() + ":" + std::to_string(W);
}
SharedStr thumbnailV8(SharedStr Path) { return "thumb:" + Path.str(); }

} // namespace

int main() {
  VersionManifest Old =
      cantFail(VersionManifest::parse(OldVersion), "old manifest");
  VersionManifest New =
      cantFail(VersionManifest::parse(NewVersion), "new manifest");

  // 1. Generate.
  GeneratedPatch G = cantFail(generatePatch(Old, New), "generate");
  std::printf("== generator classification\n");
  std::printf("unchanged=%u body-changed=%u sig-changed=%u added=%u "
              "removed=%u types-bumped=%u\n\n",
              G.Stats.Unchanged, G.Stats.BodyChanged, G.Stats.SigChanged,
              G.Stats.Added, G.Stats.Removed, G.Stats.TypesBumped);

  std::printf("== generated patch manifest\n%s\n\n",
              G.Manifest.print().c_str());
  std::printf("== generated C++ stub skeleton (%zu bytes)\n",
              G.StubSource.size());
  std::printf("%.*s...\n\n", 400, G.StubSource.c_str());

  // 2. A human finishes the patch: here, in-process, supplying the two
  //    changed/new implementations and the transformer the skeleton
  //    stubbed out.
  Runtime RT;
  TypeContext &Ctx = RT.types();
  cantFail(RT.defineNamedType(
               {"imgmeta", 1},
               cantFail(parseType(Ctx, "{path: string, width: int}"),
                        "repr")),
           "type");
  StateCell *Meta = cantFail(
      RT.defineState("imgserv.current", Ctx.namedType("imgmeta", 1),
                     std::make_shared<MetaV1>(MetaV1{"/hero.png", 1024})),
      "cell");
  auto Resize = cantFail(
      RT.defineUpdateableFn<SharedStr, SharedStr, int64_t>(
          "imgserv.resize",
          [](SharedStr Path, int64_t W) -> SharedStr {
            return "resized-v7:" + Path.str() + ":" + std::to_string(W);
          }),
      "resize");

  PatchBuilder B(Ctx, G.Manifest.Id);
  B.describe(G.Manifest.Description);
  B.provide("imgserv.resize", &resizeV8);
  B.provide("imgserv.thumbnail", &thumbnailV8);
  for (const ManifestNewType &T : G.Manifest.NewTypes)
    B.defineType(cantFail(parseVersionedName(T.Name), "name"),
                 cantFail(parseType(Ctx, T.Repr), "repr"));
  for (const ManifestTransformer &X : G.Manifest.Transformers) {
    (void)X; // one transformer in this patch: %imgmeta@1 -> @2
    B.transformer(
        VersionBump{cantFail(parseVersionedName(X.From), "from"),
                    cantFail(parseVersionedName(X.To), "to")},
        [](const std::shared_ptr<void> &OldData,
           const StateCell &) -> Expected<std::shared_ptr<void>> {
          auto *V1 = static_cast<MetaV1 *>(OldData.get());
          // Backfill: assume 4:3 until re-measured.
          return std::shared_ptr<void>(std::make_shared<MetaV2>(
              MetaV2{V1->Path, V1->Width, V1->Width * 3 / 4}));
        });
  }
  Patch P = cantFail(B.build(), "build");

  // 3. Apply to the live program.
  std::printf("== applying %s\n", G.Manifest.Id.c_str());
  std::printf("before: resize = %s\n", Resize("/hero.png", 640).c_str());
  cantFail(RT.applyNow(std::move(P)), "apply");
  std::printf("after:  resize = %s\n", Resize("/hero.png", 640).c_str());
  std::printf("state migrated: %s -> {path=%s, width=%lld, height=%lld}\n",
              Meta->type()->str().c_str(),
              Meta->get<MetaV2>()->Path.c_str(),
              static_cast<long long>(Meta->get<MetaV2>()->Width),
              static_cast<long long>(Meta->get<MetaV2>()->Height));
  auto Thumb = cantFail(bindUpdateable<SharedStr(SharedStr)>(
                            RT.updateables(), Ctx, "imgserv.thumbnail"),
                        "thumbnail");
  std::printf("new fn: thumbnail = %s\n", Thumb("/hero.png").c_str());
  return 0;
}
