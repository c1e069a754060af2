//===- tests/test_patchloader_vtal.cpp - VTAL patch tests -----*- C++ -*-===//
///
/// The verified-code path: patches shipped as VTAL modules are machine-
/// checked before linking, call back into the program through typed host
/// exports, and can ship scalar state transformers.

#include "core/Runtime.h"
#include "patch/PatchLoader.h"
#include "support/MemoryBuffer.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace dsu;

namespace {

int64_t doubleV1(int64_t X) { return 2 * X; }

class VtalPatchTest : public ::testing::Test {
protected:
  void SetUp() override {
    Double = cantFail(RT.defineUpdateable("app.double", &doubleV1));
    cantFail(RT.exportHost(
        "app.offset", RT.types().fnType({}, RT.types().intType()),
        [this](const std::vector<vtal::Value> &) -> Expected<vtal::Value> {
          return vtal::Value::makeInt(Offset);
        }));
  }

  Runtime RT;
  Updateable<int64_t(int64_t)> Double;
  int64_t Offset = 7;
};

const char *TripleManifest = R"dsu(
(patch
  (id "double-v2-vtal")
  (description "double becomes triple-plus-offset, via verified VTAL")
  (provides
    (fn (name "app.double")
        (type "fn(int) -> int")
        (vtal-fn "triple")))
  (vtal-module
"module triple_mod
import app.offset : () -> int
func triple (x: int) -> int {
  load x
  push.i 3
  mul
  call app.offset
  add
  ret
}"))
)dsu";

TEST_F(VtalPatchTest, LoadVerifyApply) {
  Expected<Patch> P =
      loadVtalPatch(RT.types(), RT.exports(), TripleManifest);
  ASSERT_TRUE(P) << P.takeError().str();
  ASSERT_TRUE(P->VtalMod);
  EXPECT_GT(P->CodeBytes, 0u);

  EXPECT_EQ(Double(10), 20);
  ASSERT_FALSE(RT.applyNow(std::move(*P)));
  EXPECT_EQ(Double(10), 37); // 3*10 + offset(7)

  // The host import is consulted live on every call.
  Offset = 100;
  EXPECT_EQ(Double(10), 130);

  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_TRUE(Log[0].Succeeded);
  EXPECT_GT(Log[0].InstructionsVerified, 0u);
}

TEST_F(VtalPatchTest, IllTypedModuleRejectedAtVerify) {
  // The module type-confuses a string into integer addition; assembling
  // succeeds, verification must fail during apply.
  const char *Bad = R"dsu(
(patch
  (id "evil")
  (provides (fn (name "app.double") (type "fn(int) -> int")
                (vtal-fn "evil")))
  (vtal-module
"module evil_mod
func evil (x: int) -> int {
  push.s \"boom\"
  load x
  add
  ret
}"))
)dsu";
  Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(), Bad);
  ASSERT_TRUE(P) << P.takeError().str(); // loading is not trusting
  Error E = RT.applyNow(std::move(*P));
  ASSERT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::EC_Verify);
  EXPECT_EQ(Double(10), 20);
  EXPECT_EQ(Double.version(), 1u);
}

TEST_F(VtalPatchTest, DeclaredTypeMustMatchCode) {
  const char *Mismatch = R"dsu(
(patch
  (id "liar")
  (provides (fn (name "app.double") (type "fn(int) -> int")
                (vtal-fn "f")))
  (vtal-module
"module m
func f (x: string) -> string {
  load x
  ret
}"))
)dsu";
  Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(), Mismatch);
  ASSERT_FALSE(P);
  EXPECT_EQ(P.error().code(), ErrorCode::EC_TypeMismatch);
}

TEST_F(VtalPatchTest, UnknownImportRejectedAtLoad) {
  const char *Bad = R"dsu(
(patch
  (id "ghost-import")
  (provides (fn (name "app.double") (type "fn(int) -> int")
                (vtal-fn "f")))
  (vtal-module
"module m
import no.such.host : () -> int
func f (x: int) -> int {
  call no.such.host
  ret
}"))
)dsu";
  Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(), Bad);
  ASSERT_FALSE(P);
  EXPECT_EQ(P.error().code(), ErrorCode::EC_Link);
}

TEST_F(VtalPatchTest, ImportTypeMismatchRejectedAtLoad) {
  const char *Bad = R"dsu(
(patch
  (id "bad-import-type")
  (provides (fn (name "app.double") (type "fn(int) -> int")
                (vtal-fn "f")))
  (vtal-module
"module m
import app.offset : (int) -> int
func f (x: int) -> int {
  load x
  call app.offset
  ret
}"))
)dsu";
  Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(), Bad);
  ASSERT_FALSE(P);
  EXPECT_EQ(P.error().code(), ErrorCode::EC_TypeMismatch);
}

TEST_F(VtalPatchTest, MissingVtalFnRejected) {
  const char *Bad = R"dsu(
(patch
  (id "absent-fn")
  (provides (fn (name "app.double") (type "fn(int) -> int")
                (vtal-fn "ghost")))
  (vtal-module "module m
func real (x: int) -> int {
  load x
  ret
}"))
)dsu";
  EXPECT_FALSE(loadVtalPatch(RT.types(), RT.exports(), Bad));
}

TEST_F(VtalPatchTest, ScalarStateTransformer) {
  TypeContext &Ctx = RT.types();
  cantFail(RT.defineNamedType({"gen", 1}, Ctx.intType()));
  StateCell *Cell =
      cantFail(RT.defineState("app.gen", Ctx.namedType("gen", 1),
                              std::make_shared<int64_t>(20)));

  const char *Xform = R"dsu(
(patch
  (id "gen-v2")
  (new-types (type (name "%gen@2") (repr "int")))
  (transformers
    (transform (from "%gen@1") (to "%gen@2") (impl "xform")))
  (vtal-module
"module m
func xform (old: int) -> int {
  load old
  push.i 100
  mul
  push.i 1
  add
  ret
}"))
)dsu";
  Expected<Patch> P = loadVtalPatch(Ctx, RT.exports(), Xform);
  ASSERT_TRUE(P) << P.takeError().str();
  ASSERT_FALSE(RT.applyNow(std::move(*P)));
  EXPECT_EQ(Cell->type()->str(), "%gen@2");
  EXPECT_EQ(*Cell->get<int64_t>(), 2001);
}

TEST_F(VtalPatchTest, BadTransformerShapeRejected) {
  const char *Bad = R"dsu(
(patch
  (id "bad-xform")
  (new-types (type (name "%gen@2") (repr "int")))
  (transformers
    (transform (from "%gen@1") (to "%gen@2") (impl "xform")))
  (vtal-module
"module m
func xform (a: int, b: int) -> int {
  load a
  load b
  add
  ret
}"))
)dsu";
  Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(), Bad);
  ASSERT_FALSE(P);
  EXPECT_EQ(P.error().code(), ErrorCode::EC_Unsupported);
}

TEST_F(VtalPatchTest, RoundTripThroughFile) {
  std::string Path = ::testing::TempDir() + "dsu_triple.dsup";
  ASSERT_FALSE(writeFile(Path, TripleManifest));
  Expected<Patch> P = loadPatchFile(RT.types(), RT.exports(), Path);
  ASSERT_TRUE(P) << P.takeError().str();
  RT.requestUpdate(std::move(*P));
  EXPECT_EQ(RT.updatePoint(), 1u);
  EXPECT_EQ(Double(4), 19); // 12 + 7
  std::remove(Path.c_str());
}

TEST_F(VtalPatchTest, NoVtalModuleRejected) {
  EXPECT_FALSE(loadVtalPatch(RT.types(), RT.exports(),
                             "(patch (id \"x\"))"));
}

} // namespace
