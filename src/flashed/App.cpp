//===- flashed/App.cpp ----------------------------------------*- C++ -*-===//

#include "flashed/App.h"

#include "epoch/Epoch.h"
#include "flashed/Http.h"
#include "support/StringUtil.h"
#include "types/TypeParser.h"

#include <chrono>
#include <cstdlib>

using namespace dsu;
using namespace dsu::flashed;

// --- Version-1 pipeline implementations ----------------------------------

std::string FlashedApp::parseTargetV1(std::string Raw) {
  Expected<HttpRequest> Req = parseHttpRequest(Raw);
  if (!Req)
    return "!400 malformed request";
  if (Req->Method != "GET" && Req->Method != "HEAD")
    return "!405 method not allowed";
  // Known v1 defect (fixed by patch P1): the query string is not
  // stripped, so "/doc.html?x=1" is treated as a literal document name.
  std::string Out(Req->Method);
  Out += ' ';
  Out += Req->Target;
  return Out;
}

std::string FlashedApp::mapUrlV1(std::string Target) {
  if (DocStore::isUnsafePath(Target))
    return "!403 forbidden";
  if (Target == "/")
    return "/index.html";
  return Target;
}

std::string FlashedApp::mimeTypeV1(std::string Path) {
  size_t Dot = Path.rfind('.');
  std::string Ext = Dot == std::string::npos ? "" : Path.substr(Dot + 1);
  // v1 ships a deliberately small table (patch P2 extends it).
  if (Ext == "html" || Ext == "htm")
    return "text/html";
  if (Ext == "txt")
    return "text/plain";
  return "application/octet-stream";
}

std::string FlashedApp::cacheGetV1(std::string Path) {
  // Lock-free read of the published cache snapshot: one atomic load
  // inside the request's epoch scope.  No mutex anywhere on the cache
  // read path — a staging thread snapshots the same immutable payload.
  epoch::Guard G;
  auto *C = Cache->live<const CacheV1>();
  auto It = C->Entries.find(Path);
  return It == C->Entries.end() ? std::string() : *It->second;
}

void FlashedApp::cachePutV1(std::string Path,
                            std::string Body) {
  // Copy-update-publish: writers serialize on the payload lock (the
  // miss path, not the hot path), readers never block, and the old
  // snapshot drains through the epoch domain.
  auto Shared = std::make_shared<const std::string>(std::move(Body));
  std::lock_guard<std::mutex> G(Cache->payloadLock());
  auto Next = std::make_shared<CacheV1>(*Cache->get<CacheV1>());
  Next->Entries[Path] = std::move(Shared);
  Cache->publish(std::move(Next));
}

void FlashedApp::logAccessV1(std::string Path, int64_t Status) {
  // v1 does not log (patch P5 introduces the logging subsystem).
  (void)Path;
  (void)Status;
}

// --- Wiring ----------------------------------------------------------------

static int64_t nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Error FlashedApp::init(DocStore InitialDocs) {
  Docs = std::move(InitialDocs);
  TypeContext &Ctx = RT.types();

  // The cache's named type and its state cell.
  Expected<const Type *> ReprV1 = parseType(Ctx, cacheReprV1());
  if (!ReprV1)
    return ReprV1.takeError();
  VersionedName CacheName{"flashed_cache", 1};
  if (Error E = RT.defineNamedType(CacheName, *ReprV1))
    return E;
  Expected<StateCell *> Cell = RT.defineState(
      "flashed.cache", Ctx.namedType(CacheName), std::make_shared<CacheV1>());
  if (!Cell)
    return Cell.takeError();
  Cache = *Cell;

  // The updateable pipeline.
  {
    Expected<Updateable<std::string(std::string)>> H =
        RT.defineUpdateable("flashed.parse_target", &parseTargetV1);
    if (!H)
      return H.takeError();
    ParseTarget = *H;
  }
  {
    Expected<Updateable<std::string(std::string)>> H =
        RT.defineUpdateable("flashed.map_url", &mapUrlV1);
    if (!H)
      return H.takeError();
    MapUrl = *H;
  }
  {
    Expected<Updateable<std::string(std::string)>> H =
        RT.defineUpdateable("flashed.mime_type", &mimeTypeV1);
    if (!H)
      return H.takeError();
    MimeType = *H;
  }
  {
    Expected<Updateable<std::string(std::string)>> H =
        RT.defineUpdateableFn<std::string, std::string>(
            "flashed.cache_get",
            [this](std::string Path) { return cacheGetV1(Path); });
    if (!H)
      return H.takeError();
    CacheGet = *H;
  }
  {
    Expected<Updateable<void(std::string, std::string)>> H =
        RT.defineUpdateableFn<void, std::string, std::string>(
            "flashed.cache_put", [this](std::string Path, std::string Body) {
              cachePutV1(Path, Body);
            });
    if (!H)
      return H.takeError();
    CachePut = *H;
  }
  {
    Expected<Updateable<void(std::string, int64_t)>> H =
        RT.defineUpdateable("flashed.log_access", &logAccessV1);
    if (!H)
      return H.takeError();
    LogAccess = *H;
  }

  // Host exports for patch code.
  if (Error E = RT.exportHost(
          "flashed.docs_get",
          Ctx.fnType({Ctx.stringType()}, Ctx.stringType()),
          [this](const std::vector<vtal::Value> &Args)
              -> Expected<vtal::Value> {
            // Shared handle: patch code runs on any pool worker, and a
            // raw get() pointer could be freed by a concurrent put().
            SharedBody Body = Docs.getShared(Args[0].asStr());
            return vtal::Value::makeStr(Body ? *Body : "");
          }))
    return E;
  if (Error E = RT.exportHost(
          "flashed.now_ms", Ctx.fnType({}, Ctx.intType()),
          [](const std::vector<vtal::Value> &) -> Expected<vtal::Value> {
            return vtal::Value::makeInt(nowMs());
          },
          reinterpret_cast<void *>(&nowMs)))
    return E;
  return Error::success();
}

// --- Request handling --------------------------------------------------

void FlashedApp::fillCache(const std::string &Path, const SharedBody &Doc) {
  // The miss path: copy-update-publish under the writer lock.  The
  // version is re-read under the lock — a migration cannot slip between
  // the dispatch and the publish.
  std::lock_guard<std::mutex> G(Cache->payloadLock());
  const Type *Ty = Cache->type();
  uint32_t Version = Ty->isNamed() ? Ty->name().Version : 0;
  if (Version == 1) {
    auto Next = std::make_shared<CacheV1>(*Cache->get<CacheV1>());
    Next->Entries[Path] = Doc;
    Cache->publish(std::move(Next));
  } else if (Version == 2) {
    auto Next = std::make_shared<CacheV2>(*Cache->get<CacheV2>());
    CacheEntryV2 E;
    E.Body = Doc;
    E.LastAccessMs.store(nowMs(), std::memory_order_relaxed);
    Next->Entries[Path] = std::move(E);
    Cache->publish(std::move(Next));
  }
}

SharedBody FlashedApp::lookupBody(const std::string &Path) {
  // The updateable cache_get stage keeps its fn(string)->string signature
  // and therefore returns bodies by value; the fast path reads the same
  // cell directly, switching on the cell's live type version so it keeps
  // working after P3 migrates %flashed_cache@1 -> @2.  Hit accounting
  // matches what the version's cache_get implementation would do.
  //
  // The read is lock-free: the published (type, payload) pair is one
  // atomic load inside the request's epoch scope (a no-op for reactor
  // workers), entry hit counters are relaxed atomics bumped on the
  // shared immutable snapshot, and the mutex appears only on the miss
  // path's copy-update-publish.
  epoch::Guard G;
  const StateCell::LivePayload *LP = Cache->livePayload();
  uint32_t Version = LP->Ty->isNamed() ? LP->Ty->name().Version : 0;
  if (Version == 1) {
    auto *C = static_cast<const CacheV1 *>(LP->Data.get());
    auto It = C->Entries.find(Path);
    if (It != C->Entries.end())
      return It->second;
  } else if (Version == 2) {
    auto *C = static_cast<const CacheV2 *>(LP->Data.get());
    auto It = C->Entries.find(Path);
    if (It != C->Entries.end()) {
      const_cast<CacheEntryV2 &>(It->second).noteHit(nowMs());
      // Statistics mutated: a migration staged from an older snapshot
      // must still rebuild at commit, as the locked path always did.
      Cache->noteMutation();
      return It->second.Body;
    }
  } else {
    // A representation this build does not know: go through the
    // updateable stage and accept the copy.
    std::string B = CacheGet(Path);
    if (!B.empty())
      return std::make_shared<const std::string>(std::move(B));
  }

  SharedBody Doc = Docs.getShared(Path);
  if (!Doc)
    return nullptr;
  if (Version == 1 || Version == 2)
    fillCache(Path, Doc);
  else
    CachePut(Path, *Doc);
  return Doc;
}

template <typename HParse, typename HMap, typename HMime, typename HLog>
void FlashedApp::handleIntoWith(const RequestHead &Head,
                                std::string_view Raw, std::string &Out,
                                SharedBody &Body, HParse &&Parse,
                                HMap &&Map, HMime &&Mime, HLog &&Log) {
  // One epoch scope per request: pins non-worker callers (tests, the
  // embedding program's own threads) to a single code generation across
  // all pipeline stages — a rolling update can never split one request
  // across two generations — and keeps every epoch-published payload
  // touched below alive.  Free on a reactor worker thread.
  epoch::Guard EpochScope;
  Requests.fetch_add(1, std::memory_order_relaxed);
  bool KeepAlive = Head.KeepAlive && !Head.Malformed;

  auto ErrorResponse = [&](const std::string &Tagged) {
    int Code = std::atoi(Tagged.c_str() + 1);
    if (Code < 100 || Code > 599)
      Code = 500;
    std::string Html = "<html><body><h1>" + std::to_string(Code) + " " +
                       statusText(Code) + "</h1></body></html>\n";
    Log(Tagged, Code);
    appendHttpResponse(Out, Code, "text/html", Html, KeepAlive);
  };

  std::string Parsed = Parse(std::string(Raw));
  if (!Parsed.empty() && Parsed[0] == '!')
    return ErrorResponse(Parsed);

  size_t Sp = Parsed.find(' ');
  assert(Sp != std::string::npos && "parse stage emitted no separator");
  bool HeadOnly = Parsed.compare(0, Sp, "HEAD") == 0;
  std::string Target = Parsed.substr(Sp + 1);

  std::string Path = Map(Target);
  if (!Path.empty() && Path[0] == '!')
    return ErrorResponse(Path);

  SharedBody Doc = lookupBody(Path);
  if (!Doc)
    return ErrorResponse("!404 not found");

  std::string ContentType = Mime(Path);
  Log(Path, 200);
  appendHttpResponseHead(Out, 200, ContentType, Doc->size(), KeepAlive);
  if (!HeadOnly)
    Body = std::move(Doc);
}

void FlashedApp::handleInto(const RequestHead &Head, std::string_view Raw,
                            std::string &Out, SharedBody &Body) {
  if (Admin && !Head.Malformed && startsWith(Head.Target, AdminPrefix)) {
    Requests.fetch_add(1, std::memory_order_relaxed);
    handleAdmin(Head, Raw, Out);
    return;
  }
  handleIntoWith(
      Head, Raw, Out, Body,
      [&](const std::string &S) { return ParseTarget(S); },
      [&](const std::string &S) { return MapUrl(S); },
      [&](const std::string &S) { return MimeType(S); },
      [&](const std::string &P, int64_t C) { LogAccess(P, C); });
}

std::string FlashedApp::handle(std::string_view RawRequest) {
  std::string Out;
  SharedBody Body;
  handleInto(scanRequestHead(RawRequest), RawRequest, Out, Body);
  if (Body)
    Out += *Body;
  return Out;
}

void FlashedApp::handleStaticInto(const RequestHead &Head,
                                  std::string_view Raw, std::string &Out,
                                  SharedBody &Body) {
  handleIntoWith(
      Head, Raw, Out, Body,
      [&](const std::string &S) { return parseTargetV1(S); },
      [&](const std::string &S) { return mapUrlV1(S); },
      [&](const std::string &S) { return mimeTypeV1(S); },
      [&](const std::string &P, int64_t C) { logAccessV1(P, C); });
}
