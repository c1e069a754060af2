//===- flashed/Patches.cpp ------------------------------------*- C++ -*-===//

#include "flashed/Patches.h"

#include "flashed/Cache.h"
#include "flashed/Http.h"
#include "patch/PatchBuilder.h"
#include "support/StringUtil.h"
#include "types/TypeParser.h"

#include <chrono>
#include <deque>

using namespace dsu;
using namespace dsu::flashed;

namespace {

int64_t nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- P1: parse_target v2 — strip query strings and fragments. ----------

SharedStr parseTargetV2(SharedStr Raw) {
  SharedStr Parsed = FlashedApp::parseTargetV1(std::move(Raw));
  std::string_view P = Parsed;
  size_t Q = P.find_first_of("?#");
  if ((!P.empty() && P[0] == '!') || Q == std::string_view::npos)
    return Parsed;
  return SharedStr(P.substr(0, Q));
}

// --- P2: mime_type v2, map_url v2, new default_doc. ----------------------

SharedStr defaultDocV1() { return "/index.html"; }

SharedStr mimeTypeV2(SharedStr Path) {
  std::string_view P = Path;
  size_t Dot = P.rfind('.');
  std::string_view Ext =
      Dot == std::string_view::npos ? "" : P.substr(Dot + 1);
  std::string Mime = mimeForExtension(Ext);
  if (startsWith(Mime, "text/"))
    Mime += "; charset=utf-8";
  return Mime;
}

SharedStr mapUrlV2(SharedStr Target) {
  if (DocStore::isUnsafePath(Target))
    return "!403 forbidden";
  if (Target.empty() || Target == "/")
    return defaultDocV1();
  std::string_view T = Target;
  if (T.back() == '/')
    return SharedStr(T.substr(0, T.size() - 1));
  return Target;
}

// --- P5: the access-log subsystem (patch-owned state). -------------------

struct AccessLog {
  std::deque<std::string> Recent;
  int64_t Total = 0;
  static constexpr size_t MaxRecent = 64;
};

} // namespace

Expected<Patch> dsu::flashed::makePatchP1(FlashedApp &App) {
  return PatchBuilder(App.runtime().types(), "P1-parse-query-fix")
      .describe("bugfix: strip query strings in parse_target so cached "
                "documents resolve")
      .provide("flashed.parse_target", &parseTargetV2)
      .build();
}

Expected<Patch> dsu::flashed::makePatchP2(FlashedApp &App) {
  return PatchBuilder(App.runtime().types(), "P2-mime-and-default-doc")
      .describe("feature: full MIME table with charsets, trailing-slash "
                "normalization, new flashed.default_doc")
      .provide("flashed.mime_type", &mimeTypeV2)
      .provide("flashed.map_url", &mapUrlV2)
      .provide("flashed.default_doc", &defaultDocV1)
      .build();
}

Expected<Patch> dsu::flashed::makePatchP3(FlashedApp &App) {
  TypeContext &Ctx = App.runtime().types();
  Expected<const Type *> ReprV2 = parseType(Ctx, cacheReprV2());
  if (!ReprV2)
    return ReprV2.takeError();

  VersionBump Bump{VersionedName{"flashed_cache", 1},
                   VersionedName{"flashed_cache", 2}};

  // The state transformer: carry every cached body over (sharing the
  // bytes, not copying them), zeroing the new statistics fields — the
  // canonical "add a field" transformer of the paper.
  TransformFn Migrate =
      [](const std::shared_ptr<void> &Old,
         const StateCell &) -> Expected<std::shared_ptr<void>> {
    auto *V1 = static_cast<CacheV1 *>(Old.get());
    auto V2 = std::make_shared<CacheV2>();
    int64_t Now = nowMs();
    V1->Entries.forEach([&](const std::string &Path, const SharedBody &Body) {
      V2->Entries.put(Path, Body, Now);
    });
    return std::shared_ptr<void>(std::move(V2));
  };

  // The V2 stages follow the cache table's discipline: reads are
  // lock-free lookups inside the request's epoch scope (hit statistics
  // are relaxed atomics bumped in place), writes insert in place under
  // the payload lock and note the mutation — so a *later* staged
  // transaction can snapshot the cache from another thread while
  // requests are served, and the serving path never takes a mutex.
  FlashedApp *AppPtr = &App;
  auto CacheGetV2 = [AppPtr](SharedStr Path) -> SharedStr {
    StateCell *Cell = AppPtr->cacheCell();
    epoch::Guard G;
    const CacheEntryV2 *E = Cell->live<const CacheV2>()->Entries.find(Path);
    if (!E)
      return SharedStr();
    E->noteHit(nowMs());
    // Statistics mutated: a migration staged from an older snapshot
    // must still rebuild at commit.
    Cell->noteMutation();
    return E->Body;
  };
  auto CachePutV2 = [AppPtr](SharedStr Path, SharedStr Body) {
    int64_t Now = nowMs();
    StateCell *Cell = AppPtr->cacheCell();
    std::lock_guard<std::mutex> G(Cell->payloadLock());
    Cell->get<CacheV2>()->Entries.put(Path, std::move(Body).shared(), Now);
    Cell->noteMutation();
  };
  auto CacheStats = [AppPtr]() -> SharedStr {
    StateCell *Cell = AppPtr->cacheCell();
    epoch::Guard G;
    auto *C = Cell->live<const CacheV2>();
    int64_t Hits = 0;
    C->Entries.forEach([&](const std::string &, const CacheEntryV2 &E) {
      Hits += E.hits();
    });
    return formatString("entries=%zu hits=%lld", C->Entries.size(),
                        static_cast<long long>(Hits));
  };

  return PatchBuilder(Ctx, "P3-cache-hit-counters")
      .describe("type change: cache entries gain hit counters and access "
                "stamps; live cache migrated by transformer")
      .defineType(Bump.To, *ReprV2)
      .transformer(Bump, std::move(Migrate))
      .provideBinding("flashed.cache_get",
                      Ctx.fnType({Ctx.stringType()}, Ctx.stringType()),
                      makeClosureBinding<SharedStr, SharedStr>(
                          CacheGetV2, 0, "patch:P3"))
      .provideBinding("flashed.cache_put",
                      Ctx.fnType({Ctx.stringType(), Ctx.stringType()},
                                 Ctx.unitType()),
                      makeClosureBinding<void, SharedStr, SharedStr>(
                          CachePutV2, 0, "patch:P3"))
      .provideBinding("flashed.cache_stats",
                      Ctx.fnType({}, Ctx.stringType()),
                      makeClosureBinding<SharedStr>(CacheStats, 0,
                                                    "patch:P3"))
      .build();
}

Expected<Patch> dsu::flashed::makePatchP4(FlashedApp &App) {
  TypeContext &Ctx = App.runtime().types();
  UpdateableRegistry &Reg = App.runtime().updateables();

  // The richer interface: log_access2(path, status, micros).
  auto LogAccess2 = [](SharedStr Path, int64_t Status, int64_t Micros) {
    (void)Path;
    (void)Status;
    (void)Micros;
  };
  // Old callers keep calling flashed.log_access(path, status); the shim
  // forwards with a default detail argument — the paper's answer to
  // signature changes, which are not type-compatible replacements.
  UpdateableRegistry *RegPtr = &Reg;
  auto Shim = [RegPtr](SharedStr Path, int64_t Status) {
    UpdateableSlot *Slot = RegPtr->lookup("flashed.log_access2");
    assert(Slot && "P4 installs log_access2 before the shim runs");
    Updateable<void(SharedStr, int64_t, int64_t)> Target(Slot);
    Target(std::move(Path), Status, /*Micros=*/0);
  };

  return PatchBuilder(Ctx, "P4-log-signature-change")
      .describe("signature change via shim: flashed.log_access2 gains a "
                "timing argument; old name forwards")
      .provideBinding(
          "flashed.log_access2",
          Ctx.fnType({Ctx.stringType(), Ctx.intType(), Ctx.intType()},
                     Ctx.unitType()),
          makeClosureBinding<void, SharedStr, int64_t, int64_t>(
              LogAccess2, 0, "patch:P4"))
      .provideBinding(
          "flashed.log_access",
          Ctx.fnType({Ctx.stringType(), Ctx.intType()}, Ctx.unitType()),
          makeClosureBinding<void, SharedStr, int64_t>(Shim, 0,
                                                       "patch:P4"))
      .build();
}

Expected<Patch> dsu::flashed::makePatchP5(FlashedApp &App) {
  TypeContext &Ctx = App.runtime().types();
  UpdateableRegistry &Reg = App.runtime().updateables();

  // Patch-owned state: the log lives in the patch's closure environment,
  // the idiom for *new* state introduced by an update (existing state
  // migrates via transformers; new state ships with the patch).
  auto Log = std::make_shared<AccessLog>();

  auto LogAccessV3 = [Log](SharedStr Path, int64_t Status) {
    ++Log->Total;
    Log->Recent.push_back(formatString("%lld %s",
                                       static_cast<long long>(Status),
                                       Path.c_str()));
    if (Log->Recent.size() > AccessLog::MaxRecent)
      Log->Recent.pop_front();
  };
  auto LogCount = [Log]() -> int64_t { return Log->Total; };
  auto LogRecent = [Log]() -> SharedStr {
    std::string Out;
    for (const std::string &Line : Log->Recent) {
      Out += Line;
      Out += '\n';
    }
    return Out;
  };

  // Also forward from the P4 interface if it is installed, so both entry
  // points feed the same log.
  UpdateableRegistry *RegPtr = &Reg;
  auto LogAccess2V2 = [Log, RegPtr](SharedStr Path, int64_t Status,
                                    int64_t Micros) {
    (void)RegPtr;
    ++Log->Total;
    Log->Recent.push_back(formatString(
        "%lld %s %lldus", static_cast<long long>(Status), Path.c_str(),
        static_cast<long long>(Micros)));
    if (Log->Recent.size() > AccessLog::MaxRecent)
      Log->Recent.pop_front();
  };

  return PatchBuilder(Ctx, "P5-access-log-subsystem")
      .describe("compound: in-memory access log; changed log_access and "
                "log_access2, new log_count / log_recent")
      .provideBinding(
          "flashed.log_access",
          Ctx.fnType({Ctx.stringType(), Ctx.intType()}, Ctx.unitType()),
          makeClosureBinding<void, SharedStr, int64_t>(LogAccessV3, 0,
                                                       "patch:P5"))
      .provideBinding(
          "flashed.log_access2",
          Ctx.fnType({Ctx.stringType(), Ctx.intType(), Ctx.intType()},
                     Ctx.unitType()),
          makeClosureBinding<void, SharedStr, int64_t, int64_t>(
              LogAccess2V2, 0, "patch:P5"))
      .provideBinding("flashed.log_count", Ctx.fnType({}, Ctx.intType()),
                      makeClosureBinding<int64_t>(LogCount, 0, "patch:P5"))
      .provideBinding("flashed.log_recent",
                      Ctx.fnType({}, Ctx.stringType()),
                      makeClosureBinding<SharedStr>(LogRecent, 0,
                                                    "patch:P5"))
      .build();
}

const char *dsu::flashed::vtalParseFixPatchText() {
  return R"dsu(
(patch
  (id "P1-parse-query-fix-vtal")
  (description "query-string fix shipped as verified VTAL")
  (provides
    (fn (name "flashed.parse_target")
        (type "fn(string) -> string")
        (vtal-fn "parse_target")))
  (vtal-module
"module parse_mod
func first_line (raw: string) -> string {
  locals (nl: int)
  load raw
  push.s \"\\n\"
  sfind
  store nl
  load nl
  push.i 0
  lt
  brif whole
  load raw
  push.i 0
  load nl
  ssub
  ret
whole:
  load raw
  ret
}
func parse_target (raw: string) -> string {
  locals (line: string, sp1: int, sp2: int, method: string, rest: string, q: int)
  load raw
  call first_line
  store line
  load line
  push.s \" \"
  sfind
  store sp1
  load sp1
  push.i 1
  lt
  brif bad
  load line
  push.i 0
  load sp1
  ssub
  store method
  load method
  push.s \"GET\"
  seq
  load method
  push.s \"HEAD\"
  seq
  or
  not
  brif notallowed
  load line
  load sp1
  push.i 1
  add
  load line
  slen
  ssub
  store rest
  load rest
  push.s \" \"
  sfind
  store sp2
  load sp2
  push.i 0
  lt
  brif notrail
  load rest
  push.i 0
  load sp2
  ssub
  store rest
notrail:
  load rest
  slen
  push.i 0
  eq
  brif bad
  load rest
  push.s \"?\"
  sfind
  store q
  load q
  push.i 0
  lt
  brif noquery
  load rest
  push.i 0
  load q
  ssub
  store rest
noquery:
  load method
  push.s \" \"
  scat
  load rest
  scat
  ret
bad:
  push.s \"!400 malformed request\"
  ret
notallowed:
  push.s \"!405 method not allowed\"
  ret
}"))
)dsu";
}

Expected<std::vector<Patch>>
dsu::flashed::makePatchSeries(FlashedApp &App) {
  std::vector<Patch> Series;
  using Factory = Expected<Patch> (*)(FlashedApp &);
  for (Factory F : {&makePatchP1, &makePatchP2, &makePatchP3, &makePatchP4,
                    &makePatchP5}) {
    Expected<Patch> P = F(App);
    if (!P)
      return P.takeError();
    Series.push_back(std::move(*P));
  }
  return Series;
}
