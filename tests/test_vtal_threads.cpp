//===- tests/test_vtal_threads.cpp - One interpreter, many callers -*- C++ -*-//
///
/// An Interpreter is immutable once set up; the frame stack, value arena
/// and host-argument buffers are per thread.  These tests pin what that
/// rule promises: two modules re-entering each other on one thread each
/// see the results, fuel and call-depth limit they see alone, and one
/// loaded VTAL provide called from several threads at once answers every
/// call exactly as a single-threaded reference does.
///
/// Run alone with `ctest -R VtalSharing`.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "patch/Manifest.h"
#include "patch/PatchLoader.h"
#include "trace/Profile.h"
#include "vtal/Assembler.h"
#include "vtal/Interp.h"
#include "vtal/Verifier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace dsu;
using namespace dsu::vtal;

namespace {

Module mustAssembleVerified(const char *Src) {
  Expected<Module> M = assemble(Src);
  EXPECT_TRUE(M) << M.error().str();
  Error E = verifyModule(*M);
  EXPECT_FALSE(E) << E.str();
  return std::move(*M);
}

/// down(n) makes n nested calls and returns n: the limit of 256 nested
/// calls lets down(256) through and traps down(257).
const char *DownModule = R"(
module down_b
func down (n: int) -> int {
  load n
  push.i 0
  le
  brif base
  load n
  push.i 1
  sub
  call down
  push.i 1
  add
  ret
base:
  push.i 0
  ret
}
)";

/// up(n, k) makes n nested calls, then hands k to the host import.
const char *UpModule = R"(
module up_a
import viab : (int) -> int
func up (n: int, k: int) -> int {
  load n
  push.i 0
  le
  brif leaf
  load n
  push.i 1
  sub
  load k
  call up
  ret
leaf:
  load k
  call viab
  push.i 1000
  add
  ret
}
)";

/// What one call of down reported: its value (or -1) and its fuel.
struct Outcome {
  int64_t Result = 0;
  uint64_t Fuel = 0;
  std::string Trap;
};

Outcome callDown(const Interpreter &B, int64_t K) {
  Outcome O;
  Expected<Value> R = B.call("down", {Value::makeInt(K)});
  O.Fuel = B.lastFuelUsed();
  if (R)
    O.Result = R->asInt();
  else
    O.Trap = R.takeError().message();
  return O;
}

TEST(VtalSharingTest, CrossModuleReentryMatchesSoloRuns) {
  Module MB = mustAssembleVerified(DownModule);
  Module MA = mustAssembleVerified(UpModule);
  Interpreter B(MB);

  // Module B alone, at and just past the depth limit.
  Outcome SoloOk = callDown(B, 256);
  ASSERT_TRUE(SoloOk.Trap.empty()) << SoloOk.Trap;
  EXPECT_EQ(SoloOk.Result, 256);
  Outcome SoloTrap = callDown(B, 257);
  ASSERT_NE(SoloTrap.Trap.find("call depth limit"), std::string::npos)
      << SoloTrap.Trap;

  // Module A calls B through a host import from 100 nested calls deep on
  // the same thread; the import reports what B answered.
  Interpreter A(MA);
  Outcome Nested;
  ASSERT_FALSE(A.bindImport(
      "viab", [&](const std::vector<Value> &Args) -> Expected<Value> {
        Nested = callDown(B, Args[0].asInt());
        return Value::makeInt(Nested.Trap.empty() ? Nested.Result : -1);
      }));
  // Module A alone: the same import answers from a table, running no VTAL.
  Interpreter ASolo(MA);
  ASSERT_FALSE(ASolo.bindImport(
      "viab", [](const std::vector<Value> &Args) -> Expected<Value> {
        return Value::makeInt(Args[0].asInt() <= 256 ? Args[0].asInt() : -1);
      }));

  for (int Round = 0; Round != 2; ++Round) {
    for (int64_t K : {256, 257}) {
      const Outcome &Solo = K == 256 ? SoloOk : SoloTrap;
      Expected<Value> RA = A.call("up", {Value::makeInt(100),
                                         Value::makeInt(K)});
      ASSERT_TRUE(RA) << RA.error().str();
      uint64_t FuelA = A.lastFuelUsed();
      // B, entered above A's frames, counts only its own: the same
      // value, fuel and trap as alone.
      EXPECT_EQ(Nested.Result, Solo.Result) << "k=" << K;
      EXPECT_EQ(Nested.Fuel, Solo.Fuel) << "k=" << K;
      EXPECT_EQ(Nested.Trap, Solo.Trap) << "k=" << K;

      Expected<Value> RSolo = ASolo.call("up", {Value::makeInt(100),
                                                Value::makeInt(K)});
      ASSERT_TRUE(RSolo) << RSolo.error().str();
      EXPECT_EQ(RA->asInt(), RSolo->asInt()) << "k=" << K;
      EXPECT_EQ(FuelA, ASolo.lastFuelUsed()) << "k=" << K;
    }
  }
  // The trap inside B unwound only B's frames: B alone still answers as
  // before, and A's own depth limit is unchanged.
  Outcome After = callDown(B, 256);
  EXPECT_EQ(After.Result, SoloOk.Result);
  EXPECT_EQ(After.Fuel, SoloOk.Fuel);
  Expected<Value> TooDeep =
      A.call("up", {Value::makeInt(257), Value::makeInt(0)});
  ASSERT_FALSE(TooDeep);
  EXPECT_NE(TooDeep.error().message().find("call depth limit"),
            std::string::npos);
}

int64_t stressV1(int64_t X) { return -X; }

/// f(x) loops x % 13 times, then divides by x % 64: every input in
/// [0, 128) has its own fuel, and 0 and 64 trap.  Its string local keeps
/// it interpreted (the native tier compiles only string-free frames), so
/// every call runs on the calling thread's scratch.
const char *StressManifest = R"dsu(
(patch
  (id "vtal-sharing-stress")
  (description "one provide, many threads")
  (provides
    (fn (name "app.stress")
        (type "fn(int) -> int")
        (vtal-fn "f")))
  (vtal-module
"module stress
func f (x: int) -> int {
  locals (i: int, acc: int, s: string)
loop:
  load i
  load x
  push.i 13
  rem
  ge
  brif done
  load acc
  load i
  add
  store acc
  load i
  push.i 1
  add
  store i
  br loop
done:
  push.i 100000
  load x
  push.i 64
  rem
  div
  load acc
  add
  ret
}"))
)dsu";

TEST(VtalSharingTest, ConcurrentCallersMatchSingleThreadReference) {
  constexpr int Inputs = 128;
  constexpr int Threads = 4;
  constexpr int CallsPerThread = 10000;

  // The single-thread reference, on a private interpreter of the same
  // module: a trap answers the result type's zero value at the binding,
  // as the bridge does.
  Expected<PatchManifest> Man = PatchManifest::parse(StressManifest);
  ASSERT_TRUE(Man) << Man.takeError().str();
  Module Ref = mustAssembleVerified(Man->VtalText.c_str());
  Interpreter RefI(Ref);
  int64_t Want[Inputs];
  uint64_t WantFuel[Inputs];
  bool WantTrap[Inputs];
  for (int X = 0; X != Inputs; ++X) {
    Expected<Value> R = RefI.call("f", {Value::makeInt(X)});
    WantTrap[X] = !R;
    Want[X] = R ? R->asInt() : 0;
    WantFuel[X] = RefI.lastFuelUsed();
  }
  ASSERT_TRUE(WantTrap[0] && WantTrap[64] && !WantTrap[1]);

  Runtime RT;
  Updateable<int64_t(int64_t)> S =
      cantFail(RT.defineUpdateable("app.stress", &stressV1));
  Expected<Patch> P =
      loadVtalPatch(RT.types(), RT.exports(), StressManifest);
  ASSERT_TRUE(P) << P.takeError().str();
  ASSERT_FALSE(RT.applyNow(std::move(*P)));

  // lastFuelUsed() reads the calling thread's most recent call, here
  // the provide's own interpreter running under S(X).
  std::atomic<uint64_t> BadResults{0}, BadFuel{0}, TrapCalls{0};
  std::vector<std::thread> Ts;
  for (int T = 0; T != Threads; ++T)
    Ts.emplace_back([&, T] {
      uint64_t Results = 0, Fuel = 0, Traps = 0;
      for (int I = 0; I != CallsPerThread; ++I) {
        int X = (T * 37 + I * 11) % Inputs;
        Results += S(X) != Want[X];
        Fuel += RefI.lastFuelUsed() != WantFuel[X];
        Traps += WantTrap[X];
      }
      BadResults += Results;
      BadFuel += Fuel;
      TrapCalls += Traps;
    });
  for (std::thread &T : Ts)
    T.join();

  EXPECT_EQ(BadResults.load(), 0u);
  EXPECT_EQ(BadFuel.load(), 0u);
  EXPECT_EQ(RT.updateables().lookup("app.stress")->current()->trapCount(),
            TrapCalls.load());
  bool Found = false;
  for (const trace::HotFn &F : trace::ProfileRegistry::instance().ranking(0))
    if (F.PatchId == "vtal-sharing-stress" && F.Fn == "f") {
      Found = true;
      EXPECT_EQ(F.Tier, 0u); // interpreted
      EXPECT_EQ(F.Calls, uint64_t(Threads) * CallsPerThread);
      EXPECT_EQ(F.Traps, TrapCalls.load());
    }
  EXPECT_TRUE(Found);
}

} // namespace
