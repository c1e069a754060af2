//===- tests/test_vtal_native.cpp - VTAL native tier tests ----*- C++ -*-===//
///
/// The native tier's contract is *indistinguishability*: a module run
/// through the baseline compiler must produce the same values, the same
/// trap messages, and bit-for-bit the same fuel consumption as the
/// verifier-trusted interpreter, for every input and every fuel limit —
/// deoptimization at any safe point included.  These tests pin that
/// contract (the bulk differential corpus lives in
/// test_vtal_native_diff.cpp), plus the encoder, the compile set, epoch
/// retirement of code pages, and the patch-loader integration.

#include "core/Runtime.h"
#include "epoch/Epoch.h"
#include "patch/PatchLoader.h"
#include "trace/Profile.h"
#include "vtal/Assembler.h"
#include "vtal/Interp.h"
#include "vtal/Verifier.h"
#ifndef DSU_VTAL_NO_NATIVE
#include "vtal/native/CodeArena.h"
#include "vtal/native/NativeImage.h"
#include "vtal/native/X64Emitter.h"
#endif

#include <gtest/gtest.h>

#include <cstring>
#include <string>

using namespace dsu;
using namespace dsu::vtal;

#ifdef DSU_VTAL_NO_NATIVE

TEST(VtalNativeTest, CompiledOut) {
  GTEST_SKIP() << "native tier compiled out (DSU_VTAL_NATIVE=OFF)";
}

#else // DSU_VTAL_NO_NATIVE

using native::NativeImage;
using native::NativeStats;

namespace {

Module mustAssembleVerified(const char *Src) {
  Expected<Module> M = assemble(Src);
  EXPECT_TRUE(M) << M.error().str();
  Error E = verifyModule(*M);
  EXPECT_FALSE(E) << E.str();
  return std::move(*M);
}

/// One observed execution: success/value or error text, plus fuel.
struct Outcome {
  bool Ok = false;
  std::string Err;
  Value Val;
  uint64_t Fuel = 0;
};

Outcome runOn(Interpreter &I, const char *Fn, const std::vector<Value> &Args) {
  Outcome O;
  Expected<Value> R = I.call(Fn, Args);
  O.Fuel = I.lastFuelUsed();
  if (R) {
    O.Ok = true;
    O.Val = *R;
  } else {
    O.Err = R.error().str();
  }
  return O;
}

/// Runs \p Fn through a plain interpreter and through one carrying a
/// fully compiled image, asserting identical outcome and fuel.
void expectTierParity(const Module &M, const char *Fn,
                      const std::vector<Value> &Args, uint64_t FuelLimit = 0) {
  Interpreter Ref(M, FuelLimit);
  Interpreter Nat(M, FuelLimit);
  Expected<std::shared_ptr<const NativeImage>> Img =
      NativeImage::compile(Nat.resolved());
  ASSERT_TRUE(Img) << Img.error().str();
  Nat.setNativeImage(*Img);
  Outcome A = runOn(Ref, Fn, Args);
  Outcome B = runOn(Nat, Fn, Args);
  EXPECT_EQ(A.Ok, B.Ok) << Fn << ": " << A.Err << " vs " << B.Err;
  if (A.Ok && B.Ok) {
    ASSERT_EQ(A.Val.kind(), B.Val.kind()) << Fn;
    switch (A.Val.kind()) {
    case ValKind::VK_Int:
      EXPECT_EQ(A.Val.asInt(), B.Val.asInt()) << Fn;
      break;
    case ValKind::VK_Float: {
      // Bit-compare: NaN payloads and signed zeros must match too.
      uint64_t BA, BB;
      double DA = A.Val.asFloat(), DB = B.Val.asFloat();
      std::memcpy(&BA, &DA, 8);
      std::memcpy(&BB, &DB, 8);
      EXPECT_EQ(BA, BB) << Fn;
      break;
    }
    case ValKind::VK_Bool:
      EXPECT_EQ(A.Val.asBool(), B.Val.asBool()) << Fn;
      break;
    default:
      break;
    }
  } else {
    EXPECT_EQ(A.Err, B.Err) << Fn;
  }
  EXPECT_EQ(A.Fuel, B.Fuel) << Fn << ": fuel diverged";
}

const char *FibSrc = R"(
module fib
func fib (n: int) -> int {
  load n
  push.i 2
  lt
  brif base
  load n
  push.i 1
  sub
  call fib
  load n
  push.i 2
  sub
  call fib
  add
  ret
base:
  load n
  ret
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// Encoder
//===----------------------------------------------------------------------===//

TEST(VtalNativeTest, EmitterEncodesExecutableCode) {
  using namespace native;
  // args[0] * 3 + args[1], hand-emitted: exercises mov/ALU/imul/jcc
  // encodings and the CodeArena W^X flip end to end.
  X64Emitter E;
  E.movRM(RAX, RSI, 0);        // rax = args[0]
  E.imulRM(RAX, RSI, 0);       // rax *= args[0]  (square, to see memory form)
  E.movRM(RCX, RSI, 8);        // rcx = args[1]
  E.aluRR(0x03, RAX, RCX);     // rax += rcx
  E.aluRI(7, RAX, 100);        // cmp rax, 100
  size_t Skip = E.jcc(CC_L);   // if (rax < 100) skip the negate
  E.negR(RAX);
  E.fix(Skip, E.pos());
  E.ret();

  CodeArena Arena;
  ASSERT_FALSE(Arena.map(E.code().size()));
  Arena.write(0, E.code().data(), E.code().size());
  ASSERT_FALSE(Arena.seal());

  auto Fn = reinterpret_cast<uint64_t (*)(void *, const uint64_t *)>(
      const_cast<uint8_t *>(Arena.base()));
  uint64_t Args1[2] = {7, 2}; // 51 < 100
  EXPECT_EQ(Fn(nullptr, Args1), 51u);
  uint64_t Args2[2] = {12, 6}; // 150 >= 100 -> negated
  EXPECT_EQ(static_cast<int64_t>(Fn(nullptr, Args2)), -150);
}

TEST(VtalNativeTest, ArenaSealsWriteProtection) {
  native::CodeArena Arena;
  ASSERT_FALSE(Arena.map(16));
  const uint8_t Ret = 0xC3;
  Arena.write(0, &Ret, 1);
  ASSERT_FALSE(Arena.seal());
  // Sealed pages execute.
  reinterpret_cast<void (*)()>(const_cast<uint8_t *>(Arena.base()))();
}

//===----------------------------------------------------------------------===//
// Compile set
//===----------------------------------------------------------------------===//

TEST(VtalNativeTest, RepresentableExcludesStringFrames) {
  Module M = mustAssembleVerified(R"(
module rep
func intfn (a: int, b: int) -> int {
  load a
  load b
  add
  ret
}
func strresult () -> string {
  push.s "x"
  ret
}
func strparam (s: string) -> int {
  load s
  slen
  ret
}
func strlocal (n: int) -> int {
  locals (tmp: string)
  load n
  ret
}
func pushes_str (n: int) -> int {
  push.s "q"
  slen
  load n
  add
  ret
}
)");
  Interpreter I(M);
  std::vector<bool> R = NativeImage::representable(I.resolved());
  ASSERT_EQ(R.size(), 5u);
  EXPECT_TRUE(R[0]);  // intfn
  EXPECT_FALSE(R[1]); // string result
  EXPECT_FALSE(R[2]); // string param
  EXPECT_FALSE(R[3]); // string local
  // String *operations* on a string-free frame are compiled (the PushS
  // site deoptimizes the one activation that reaches it).
  EXPECT_TRUE(R[4]);

  Expected<std::shared_ptr<const NativeImage>> Img =
      NativeImage::compile(I.resolved());
  ASSERT_TRUE(Img) << Img.error().str();
  EXPECT_EQ((*Img)->compiledCount(), 2u);
  EXPECT_TRUE((*Img)->compiled(0));
  EXPECT_NE((*Img)->entry(0), nullptr);
  EXPECT_EQ((*Img)->entry(1), nullptr);
}

//===----------------------------------------------------------------------===//
// Execution parity
//===----------------------------------------------------------------------===//

TEST(VtalNativeTest, RecursionParityWithFuel) {
  Module M = mustAssembleVerified(FibSrc);
  for (int64_t N = 0; N <= 18; ++N)
    expectTierParity(M, "fib", {Value::makeInt(N)});
}

TEST(VtalNativeTest, TrapParity) {
  Module M = mustAssembleVerified(R"(
module traps
func div (a: int, b: int) -> int {
  load a
  load b
  div
  ret
}
func spin () -> int {
loop:
  br loop
}
func down (n: int) -> int {
  load n
  call down
  ret
}
)");
  // Division by zero, INT64_MIN/-1 overflow: message and fuel identical.
  expectTierParity(M, "div", {Value::makeInt(9), Value::makeInt(0)});
  expectTierParity(M, "div",
                   {Value::makeInt(INT64_MIN), Value::makeInt(-1)});
  // Fuel exhaustion deopts, and the interpreter then reports it.
  expectTierParity(M, "spin", {}, /*FuelLimit=*/777);
  // Call-depth overflow through native frames.
  expectTierParity(M, "down", {Value::makeInt(0)});
}

TEST(VtalNativeTest, DeoptFuelSweepIsExact) {
  // THE fuel-parity test: for every fuel limit from 1 up to just past
  // fib(8)'s requirement, both tiers must agree on outcome, message and
  // remaining-fuel accounting.  Every limit in the sweep deopts at a
  // different segment boundary, so this walks the deopt protocol across
  // the whole function body.
  Module M = mustAssembleVerified(FibSrc);
  uint64_t Need;
  {
    Interpreter Probe(M);
    ASSERT_TRUE(Probe.call("fib", {Value::makeInt(8)}));
    Need = Probe.lastFuelUsed();
  }
  uint64_t DeoptsBefore =
      NativeStats::instance().Deopts.load(std::memory_order_relaxed);
  for (uint64_t Limit = 1; Limit <= Need + 1; ++Limit)
    expectTierParity(M, "fib", {Value::makeInt(8)}, Limit);
  EXPECT_GT(NativeStats::instance().Deopts.load(std::memory_order_relaxed),
            DeoptsBefore);
}

TEST(VtalNativeTest, StringOpsDeoptAndFinishInterpreted) {
  Module M = mustAssembleVerified(R"(
module strops
func tag (n: int) -> int {
  load n
  push.i 2
  mul
  push.s "abcdef"
  slen
  add
  ret
}
)");
  // tag compiles (string-free frame at entry), then deopts at push.s;
  // the interpreter finishes and the arithmetic already done re-runs
  // identically because deopt happens at an unpaid segment head.
  Interpreter Probe(M);
  Expected<std::shared_ptr<const NativeImage>> Img =
      NativeImage::compile(Probe.resolved());
  ASSERT_TRUE(Img) << Img.error().str();
  EXPECT_TRUE((*Img)->compiled(0));
  for (int64_t N = -3; N <= 3; ++N)
    expectTierParity(M, "tag", {Value::makeInt(N)});
}

TEST(VtalNativeTest, HostImportParity) {
  Module M = mustAssembleVerified(R"(
module host
import adder : (int, int) -> int
func sum3 (a: int, b: int, c: int) -> int {
  load a
  load b
  call adder
  load c
  call adder
  ret
}
)");
  Interpreter Ref(M);
  Interpreter Nat(M);
  for (Interpreter *I : {&Ref, &Nat})
    ASSERT_FALSE(I->bindImport(
        "adder", [](const std::vector<Value> &A) -> Expected<Value> {
          return Value::makeInt(A[0].asInt() + A[1].asInt());
        }));
  Expected<std::shared_ptr<const NativeImage>> Img =
      NativeImage::compile(Nat.resolved());
  ASSERT_TRUE(Img) << Img.error().str();
  ASSERT_TRUE((*Img)->compiled(0));
  Nat.setNativeImage(*Img);
  Outcome A = runOn(Ref, "sum3",
                    {Value::makeInt(1), Value::makeInt(2), Value::makeInt(3)});
  Outcome B = runOn(Nat, "sum3",
                    {Value::makeInt(1), Value::makeInt(2), Value::makeInt(3)});
  ASSERT_TRUE(A.Ok && B.Ok) << A.Err << " / " << B.Err;
  EXPECT_EQ(A.Val.asInt(), 6);
  EXPECT_EQ(B.Val.asInt(), 6);
  EXPECT_EQ(A.Fuel, B.Fuel);

  // Unbound import: identical error text and fuel from both tiers.
  expectTierParity(M, "sum3",
                   {Value::makeInt(1), Value::makeInt(2), Value::makeInt(3)});
}

//===----------------------------------------------------------------------===//
// Epoch retirement of code pages
//===----------------------------------------------------------------------===//

TEST(VtalNativeTest, SupersededImagesEpochRetireTheirPages) {
  Module M = mustAssembleVerified(FibSrc);
  NativeStats &S = NativeStats::instance();
  uint64_t RetiredBefore = S.ArenasRetired.load(std::memory_order_relaxed);
  uint64_t LiveBefore = S.CodeBytesLive.load(std::memory_order_relaxed);
  uint64_t EpochRetiredBefore = epoch::domain().retiredTotal();
  {
    Interpreter I(M);
    Expected<std::shared_ptr<const NativeImage>> Img =
        NativeImage::compile(I.resolved());
    ASSERT_TRUE(Img) << Img.error().str();
    EXPECT_GT((*Img)->codeBytes(), 0u);
    EXPECT_GT(S.CodeBytesLive.load(std::memory_order_relaxed), LiveBefore);
    I.setNativeImage(*Img);
    ASSERT_TRUE(I.call("fib", {Value::makeInt(10)}));
    // Image (and the interpreter's reference) drop here.
  }
  EXPECT_EQ(S.ArenasRetired.load(std::memory_order_relaxed),
            RetiredBefore + 1);
  EXPECT_EQ(S.CodeBytesLive.load(std::memory_order_relaxed), LiveBefore);
  // The pages went through the epoch domain, not straight to munmap.
  EXPECT_GT(epoch::domain().retiredTotal(), EpochRetiredBefore);
  epoch::domain().reclaim();
}

//===----------------------------------------------------------------------===//
// Patch-loader integration
//===----------------------------------------------------------------------===//

namespace {

int64_t squareV1(int64_t X) { return X * X; }

const char *CubePatch = R"dsu(
(patch
  (id "square-to-cube-native")
  (description "int-only function: native tier compiles it at link")
  (provides
    (fn (name "app.square")
        (type "fn(int) -> int")
        (vtal-fn "cube")))
  (vtal-module
"module cube_mod
func cube (x: int) -> int {
  load x
  load x
  mul
  load x
  mul
  ret
}"))
)dsu";

} // namespace

TEST(VtalNativeTest, PatchLoaderCompilesAtLinkAndStampsBinding) {
  Runtime RT;
  Updateable<int64_t(int64_t)> Square =
      cantFail(RT.defineUpdateable("app.square", &squareV1));
  uint64_t EntriesBefore =
      NativeStats::instance().NativeEntries.load(std::memory_order_relaxed);

  Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(), CubePatch);
  ASSERT_TRUE(P) << P.takeError().str();
  // The provide's function is tiny and string-free: compiled at link,
  // and the binding carries its machine-code entry.
  ASSERT_EQ(P->Unit.Provides.size(), 1u);
  EXPECT_NE(P->Unit.Provides[0].Code.NativeEntry, nullptr);

  ASSERT_FALSE(RT.applyNow(std::move(*P)));
  EXPECT_EQ(Square(3), 27);
  EXPECT_EQ(Square(-5), -125);
  // The calls above dispatched through the compiled entry.
  EXPECT_GT(NativeStats::instance().NativeEntries.load(
                std::memory_order_relaxed),
            EntriesBefore);
}

/// An int-only provide of 122 instructions: longer than any
/// small-function bar, so only the every-representable-function rule
/// compiles it at link.
std::string unrolledPatch() {
  std::string Mod = "module unrolled_mod\nfunc horner (x: int) -> int {\n"
                    "  locals (acc: int)\n";
  for (int K = 1; K <= 20; ++K)
    Mod += "  load acc\n  load x\n  mul\n  push.i " + std::to_string(K) +
           "\n  add\n  store acc\n";
  Mod += "  load acc\n  ret\n}";
  return R"dsu((patch
  (id "unrolled-native")
  (description "long int-only function: compiled at link")
  (provides
    (fn (name "app.horner")
        (type "fn(int) -> int")
        (vtal-fn "horner")))
  (vtal-module ")dsu" +
         Mod + "\"))\n";
}

TEST(VtalNativeTest, EveryRepresentableFunctionCompilesAtLink) {
  Runtime RT;
  Updateable<int64_t(int64_t)> Horner =
      cantFail(RT.defineUpdateable("app.horner", &squareV1));
  Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(), unrolledPatch());
  ASSERT_TRUE(P) << P.takeError().str();
  std::shared_ptr<Module> Mod = P->VtalMod;
  ASSERT_GT(Mod->Functions[0].Code.size(), 96u);
  ASSERT_EQ(P->Unit.Provides.size(), 1u);
  auto Entry = reinterpret_cast<native::NativeEntryFn>(
      P->Unit.Provides[0].Code.NativeEntry);
  ASSERT_NE(Entry, nullptr) << "compiled at load, not on a later call";
  ASSERT_FALSE(RT.applyNow(std::move(*P)));

  // The stamped entry's deopt target: an interpreter carrying an image
  // that the same deterministic compile() builds from the same module,
  // so its deopt-site table is the loader image's.
  Interpreter Ref(*Mod);
  Interpreter Deopt(*Mod);
  Expected<std::shared_ptr<const NativeImage>> Img =
      NativeImage::compile(Deopt.resolved());
  ASSERT_TRUE(Img) << Img.error().str();
  Deopt.setNativeImage(*Img);

  NativeStats &S = NativeStats::instance();
  for (int64_t X = -3; X <= 3; ++X) {
    Outcome Want = runOn(Ref, "horner", {Value::makeInt(X)});
    ASSERT_TRUE(Want.Ok) << Want.Err;
    uint64_t EntriesBefore = S.NativeEntries.load(std::memory_order_relaxed);
    EXPECT_EQ(Horner(X), Want.Val.asInt()) << X;
    EXPECT_GT(S.NativeEntries.load(std::memory_order_relaxed), EntriesBefore)
        << "the binding call ran interpreted";

    native::NativeCtx Ctx;
    Ctx.Fuel = 1u << 20;
    Ctx.Depth = 1;
    Ctx.Interp = &Deopt;
    Ctx.Image = Img->get();
    uint64_t RawArg = static_cast<uint64_t>(X);
    uint64_t Raw = Entry(&Ctx, &RawArg);
    ASSERT_EQ(Ctx.TrapPending, 0u) << Ctx.Err.str();
    EXPECT_EQ(static_cast<int64_t>(Raw), Want.Val.asInt()) << X;
    EXPECT_EQ((1u << 20) - Ctx.Fuel, Want.Fuel) << X << ": fuel diverged";
  }

  bool SawNativeTier = false;
  for (const trace::HotFn &F : trace::ProfileRegistry::instance().ranking(0))
    if (F.PatchId == "unrolled-native" && F.Fn == "horner")
      SawNativeTier = F.Tier == 1;
  EXPECT_TRUE(SawNativeTier);
}

#endif // DSU_VTAL_NO_NATIVE
