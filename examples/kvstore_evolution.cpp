//===- examples/kvstore_evolution.cpp - State transformation demo -*- C++ -*-//
///
/// \file
/// A long-running key-value store whose *record representation* evolves
/// under live data — the state-transformer half of the PLDI 2001 system.
///
///   v1: values are plain strings                  (%kvrec@1)
///   v2: values carry write timestamps             (%kvrec@2)
///   v3: values carry timestamps and access counts (%kvrec@3)
///
/// The store accumulates data at v1, then two patches bump the record
/// type.  The second update arrives as a single v1->v3 jump on a
/// *different* replica, exercising transformer chaining.
///
//===----------------------------------------------------------------------===//

#include "core/DSU.h"

#include <cstdio>
#include <map>

using namespace dsu;

namespace {

struct KvV1 {
  std::map<std::string, std::string> Rows;
};
struct RowV2 {
  std::string Value;
  int64_t WrittenAt;
};
struct KvV2 {
  std::map<std::string, RowV2> Rows;
};
struct RowV3 {
  std::string Value;
  int64_t WrittenAt;
  int64_t Reads;
};
struct KvV3 {
  std::map<std::string, RowV3> Rows;
};

TransformFn v1toV2() {
  return [](const std::shared_ptr<void> &Old,
            const StateCell &) -> Expected<std::shared_ptr<void>> {
    auto *V1 = static_cast<KvV1 *>(Old.get());
    auto V2 = std::make_shared<KvV2>();
    for (const auto &[K, V] : V1->Rows)
      V2->Rows[K] = RowV2{V, /*WrittenAt=*/0};
    return std::shared_ptr<void>(std::move(V2));
  };
}

TransformFn v2toV3() {
  return [](const std::shared_ptr<void> &Old,
            const StateCell &) -> Expected<std::shared_ptr<void>> {
    auto *V2 = static_cast<KvV2 *>(Old.get());
    auto V3 = std::make_shared<KvV3>();
    for (const auto &[K, R] : V2->Rows)
      V3->Rows[K] = RowV3{R.Value, R.WrittenAt, /*Reads=*/0};
    return std::shared_ptr<void>(std::move(V3));
  };
}

/// One store replica: a runtime, a typed state cell, and updateable
/// get/put entry points whose implementations track the representation.
struct Replica {
  Runtime RT;
  StateCell *Cell = nullptr;
  Updateable<SharedStr(SharedStr)> Get;
  Updateable<void(SharedStr, SharedStr)> Put;

  void init() {
    TypeContext &Ctx = RT.types();
    cantFail(RT.defineNamedType(
                 {"kvrec", 1},
                 cantFail(parseType(Ctx, "{value: string}"), "repr")),
             "type v1");
    Cell = cantFail(RT.defineState("kv.rows", Ctx.namedType("kvrec", 1),
                                   std::make_shared<KvV1>()),
                    "cell");
    StateCell *C = Cell;
    Get = cantFail(RT.defineUpdateableFn<SharedStr, SharedStr>(
                       "kv.get",
                       [C](SharedStr K) -> SharedStr {
                         auto &Rows = C->get<KvV1>()->Rows;
                         auto It = Rows.find(K);
                         return It == Rows.end() ? "<missing>" : It->second;
                       }),
                   "get");
    Put = cantFail(RT.defineUpdateableFn<void, SharedStr, SharedStr>(
                       "kv.put",
                       [C](SharedStr K, SharedStr V) {
                         C->get<KvV1>()->Rows[K] = std::move(V);
                       }),
                   "put");
  }

  Patch patchV2() {
    TypeContext &Ctx = RT.types();
    StateCell *C = Cell;
    int64_t *Clock = &LogicalClock;
    return cantFail(
        PatchBuilder(Ctx, "kv-v2-timestamps")
            .defineType({"kvrec", 2},
                        cantFail(parseType(
                                     Ctx, "{value: string, written: int}"),
                                 "repr2"))
            .transformer({{"kvrec", 1}, {"kvrec", 2}}, v1toV2())
            .provideBinding(
                "kv.get", Ctx.fnType({Ctx.stringType()}, Ctx.stringType()),
                makeClosureBinding<SharedStr, SharedStr>(
                    [C](SharedStr K) -> SharedStr {
                      auto &Rows = C->get<KvV2>()->Rows;
                      auto It = Rows.find(K);
                      if (It == Rows.end())
                        return "<missing>";
                      return It->second.Value + " @t" +
                             std::to_string(It->second.WrittenAt);
                    }))
            .provideBinding(
                "kv.put",
                Ctx.fnType({Ctx.stringType(), Ctx.stringType()},
                           Ctx.unitType()),
                makeClosureBinding<void, SharedStr, SharedStr>(
                    [C, Clock](SharedStr K, SharedStr V) {
                      C->get<KvV2>()->Rows[K] = RowV2{std::move(V),
                                                      ++*Clock};
                    }))
            .build(),
        "patch v2");
  }

  /// The v3 patch ships ONLY the v2->v3 transformer; applied to a v1
  /// replica it needs v1->v2 as well, which it also carries — the
  /// chain is resolved by the transform engine.
  Patch patchV3() {
    TypeContext &Ctx = RT.types();
    StateCell *C = Cell;
    return cantFail(
        PatchBuilder(Ctx, "kv-v3-access-counts")
            // Carries the v2 definition too, so the patch is applicable
            // to replicas that never saw the v2 patch (order matters:
            // declared bumps follow definition order).
            .defineType({"kvrec", 2},
                        cantFail(parseType(
                                     Ctx, "{value: string, written: int}"),
                                 "repr2"))
            .defineType(
                {"kvrec", 3},
                cantFail(parseType(Ctx, "{value: string, written: int, "
                                        "reads: int}"),
                         "repr3"))
            .transformer({{"kvrec", 1}, {"kvrec", 2}}, v1toV2())
            .transformer({{"kvrec", 2}, {"kvrec", 3}}, v2toV3())
            .provideBinding(
                "kv.get", Ctx.fnType({Ctx.stringType()}, Ctx.stringType()),
                makeClosureBinding<SharedStr, SharedStr>(
                    [C](SharedStr K) -> SharedStr {
                      auto &Rows = C->get<KvV3>()->Rows;
                      auto It = Rows.find(K);
                      if (It == Rows.end())
                        return "<missing>";
                      ++It->second.Reads;
                      return It->second.Value + " @t" +
                             std::to_string(It->second.WrittenAt) +
                             " reads=" +
                             std::to_string(It->second.Reads);
                    }))
            .provideBinding(
                "kv.put",
                Ctx.fnType({Ctx.stringType(), Ctx.stringType()},
                           Ctx.unitType()),
                makeClosureBinding<void, SharedStr, SharedStr>(
                    [C](SharedStr K, SharedStr V) {
                      C->get<KvV3>()->Rows[K] =
                          RowV3{std::move(V), 0, 0};
                    }))
            .build(),
        "patch v3");
  }

  int64_t LogicalClock = 0;
};

} // namespace

int main() {
  std::printf("== replica A: v1 -> v2 -> v3, one step at a time\n");
  Replica A;
  A.init();
  A.Put("lang", "popcorn");
  A.Put("venue", "pldi 2001");
  std::printf("v1 get(venue) = %s\n", A.Get("venue").c_str());

  cantFail(A.RT.applyNow(A.patchV2()), "apply v2");
  std::printf("after v2 (live data migrated): get(venue) = %s\n",
              A.Get("venue").c_str());
  A.Put("repro", "c++20");
  std::printf("new write gets a timestamp:     get(repro) = %s\n",
              A.Get("repro").c_str());

  cantFail(A.RT.applyNow(A.patchV3()), "apply v3");
  std::printf("after v3: get(venue) = %s\n", A.Get("venue").c_str());
  std::printf("after v3: get(venue) = %s  (reads count now)\n",
              A.Get("venue").c_str());
  std::printf("cell type: %s, generation %u\n",
              A.Cell->type()->str().c_str(), A.Cell->generation());

  std::printf("\n== replica B: v1 -> v3 in ONE update (transformer "
              "chain)\n");
  Replica B;
  B.init();
  B.Put("k", "value-written-at-v1");
  cantFail(B.RT.applyNow(B.patchV3()), "apply v3 directly");
  std::printf("after the jump: get(k) = %s\n", B.Get("k").c_str());
  std::printf("cell type: %s (migrated %%kvrec@1 -> @2 -> @3 in one "
              "update point)\n",
              B.Cell->type()->str().c_str());

  std::printf("\nupdate log (replica A):\n");
  for (const UpdateRecord &Rec : A.RT.updateLog())
    std::printf("  %-22s %s  transform %.3fms, %zu cell(s)\n",
                Rec.PatchId.c_str(),
                Rec.Succeeded ? "applied " : "REJECTED",
                Rec.TransformMs, Rec.CellsMigrated);
  return 0;
}
