//===- examples/quickstart.cpp - dsu in five minutes ----------*- C++ -*-===//
///
/// \file
/// The smallest complete dsu embedding:
///
///   1. make a function *updateable* (one indirection, typed);
///   2. run it;
///   3. build a *dynamic patch* with a new implementation;
///   4. request the update and apply it at an *update point*;
///   5. watch behaviour change with zero downtime;
///   6. see an ill-typed patch get *rejected* by the dynamic linker.
///
/// Also shows the verified-code path: the same update shipped as a VTAL
/// module that is machine-checked before linking.
///
//===----------------------------------------------------------------------===//

#include "core/DSU.h"

#include <cstdio>

using namespace dsu;

namespace {

// Version 1: the naive recursive factorial we shipped.
int64_t factV1(int64_t N) { return N <= 1 ? 1 : N * factV1(N - 1); }

// Version 2: the iterative replacement a patch will install.
int64_t factV2(int64_t N) {
  int64_t Acc = 1;
  for (int64_t I = 2; I <= N; ++I)
    Acc *= I;
  return Acc;
}

// A deliberately wrong-typed "fix" (string instead of int).
SharedStr evilFact(SharedStr S) { return S; }

} // namespace

int main() {
  Runtime RT;

  // 1. Define the updateable function.  The handle calls through one
  //    atomic indirection — the compiled artifact of updateability.
  auto Fact = cantFail(RT.defineUpdateable("app.fact", &factV1));
  std::printf("v%u: fact(10) = %lld\n", Fact.version(),
              static_cast<long long>(Fact(10)));

  // 2. Build a patch in-process and queue it.
  Patch P = cantFail(PatchBuilder(RT.types(), "fact-v2")
                         .describe("iterative factorial")
                         .provide("app.fact", &factV2)
                         .build());
  RT.requestUpdate(std::move(P));
  std::printf("update queued; pending=%d, still v%u until the update "
              "point\n",
              RT.updatePending(), Fact.version());

  // 3. The program reaches its update point (e.g. top of an event loop).
  unsigned Applied = RT.updatePoint();
  std::printf("update point: %u patch(es) applied\n", Applied);
  std::printf("v%u: fact(10) = %lld (same answer, new code)\n",
              Fact.version(), static_cast<long long>(Fact(10)));

  // 4. Type safety: a patch with the wrong type is rejected atomically.
  Patch Evil = cantFail(PatchBuilder(RT.types(), "evil")
                            .provide("app.fact", &evilFact)
                            .build());
  Error E = RT.applyNow(std::move(Evil));
  std::printf("ill-typed patch: %s\n", E.str().c_str());
  std::printf("still v%u and still correct: fact(5) = %lld\n",
              Fact.version(), static_cast<long long>(Fact(5)));

  // 5. The verified-code path: the same function shipped as VTAL,
  //    machine-checked before linking (the paper's TAL pipeline).
  const char *VtalPatch = R"dsu(
(patch
  (id "fact-v3-vtal")
  (description "factorial shipped as verifiable bytecode")
  (provides (fn (name "app.fact") (type "fn(int) -> int")
                (vtal-fn "fact")))
  (vtal-module
"module fact_mod
func fact (n: int) -> int {
  locals (acc: int, i: int)
  push.i 1
  store acc
  push.i 1
  store i
loop:
  load i
  load n
  gt
  brif done
  load acc
  load i
  mul
  store acc
  load i
  push.i 1
  add
  store i
  br loop
done:
  load acc
  ret
}"))
)dsu";
  Patch V3 = cantFail(loadVtalPatch(RT.types(), RT.exports(), VtalPatch),
                      "load vtal patch");
  cantFail(RT.applyNow(std::move(V3)), "apply vtal patch");
  std::printf("v%u (verified VTAL): fact(12) = %lld\n", Fact.version(),
              static_cast<long long>(Fact(12)));

  // 6. The update log is the paper's per-patch timing table.
  std::printf("\nupdate log:\n");
  for (const UpdateRecord &Rec : RT.updateLog())
    std::printf("  %-12s %-8s verify %.3fms link %.3fms xform %.3fms\n",
                Rec.PatchId.c_str(), Rec.Succeeded ? "applied" : "REJECTED",
                Rec.VerifyMs, Rec.LinkMs, Rec.TransformMs);
  return 0;
}
