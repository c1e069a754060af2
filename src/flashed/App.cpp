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

SharedStr FlashedApp::parseTargetV1(SharedStr Raw) {
  RequestHead Req = scanRequestHead(Raw);
  if (!Req.Complete || Req.Malformed)
    return "!400 malformed request";
  if (Req.Method != "GET" && Req.Method != "HEAD")
    return "!405 method not allowed";
  // Known v1 defect (fixed by patch P1): the query string is not
  // stripped, so "/doc.html?x=1" is treated as a literal document name.
  std::string Out(Req.Method);
  Out += ' ';
  Out += Req.Target;
  return Out;
}

SharedStr FlashedApp::mapUrlV1(SharedStr Target) {
  if (DocStore::isUnsafePath(Target))
    return "!403 forbidden";
  if (Target == "/")
    return "/index.html";
  return Target;
}

SharedStr FlashedApp::mimeTypeV1(SharedStr Path) {
  std::string_view P = Path;
  size_t Dot = P.rfind('.');
  std::string_view Ext = Dot == std::string_view::npos ? "" : P.substr(Dot + 1);
  // v1 ships a deliberately small table (patch P2 extends it).
  if (Ext == "html" || Ext == "htm")
    return "text/html";
  if (Ext == "txt")
    return "text/plain";
  return "application/octet-stream";
}

SharedStr FlashedApp::cacheGetV1(SharedStr Path) {
  // Lock-free read of the cache table inside the request's epoch scope:
  // no mutex anywhere on the cache read path, and a miss path inserting
  // concurrently never blocks it.  A hit hands out the cached bytes
  // themselves.
  epoch::Guard G;
  const SharedBody *Body = Cache->live<const CacheV1>()->Entries.find(Path);
  return Body ? SharedStr(*Body) : SharedStr();
}

void FlashedApp::cachePutV1(SharedStr Path, SharedStr Body) {
  // In-place insert: writers serialize on the payload lock (the miss
  // path, not the hot path), readers never block, and the put counts as
  // a mutation so a migration staged from the older contents rebuilds.
  std::lock_guard<std::mutex> G(Cache->payloadLock());
  Cache->get<CacheV1>()->Entries.put(Path, std::move(Body).shared());
  Cache->noteMutation();
}

void FlashedApp::logAccessV1(SharedStr Path, int64_t Status) {
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
    Expected<Updateable<SharedStr(SharedStr)>> H =
        RT.defineUpdateable("flashed.parse_target", &parseTargetV1);
    if (!H)
      return H.takeError();
    ParseTarget = *H;
  }
  {
    Expected<Updateable<SharedStr(SharedStr)>> H =
        RT.defineUpdateable("flashed.map_url", &mapUrlV1);
    if (!H)
      return H.takeError();
    MapUrl = *H;
  }
  {
    Expected<Updateable<SharedStr(SharedStr)>> H =
        RT.defineUpdateable("flashed.mime_type", &mimeTypeV1);
    if (!H)
      return H.takeError();
    MimeType = *H;
  }
  {
    Expected<Updateable<SharedStr(SharedStr)>> H =
        RT.defineUpdateableFn<SharedStr, SharedStr>(
            "flashed.cache_get",
            [this](SharedStr Path) { return cacheGetV1(std::move(Path)); });
    if (!H)
      return H.takeError();
    CacheGet = *H;
  }
  {
    Expected<Updateable<void(SharedStr, SharedStr)>> H =
        RT.defineUpdateableFn<void, SharedStr, SharedStr>(
            "flashed.cache_put", [this](SharedStr Path, SharedStr Body) {
              cachePutV1(std::move(Path), std::move(Body));
            });
    if (!H)
      return H.takeError();
    CachePut = *H;
  }
  {
    Expected<Updateable<void(SharedStr, int64_t)>> H =
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
            // Shared handle, not copied: patch code runs on any pool
            // worker, and a raw get() pointer could be freed by a
            // concurrent put().  A missing document reads as "".
            return vtal::Value::makeStr(Docs.getShared(Args[0].asStr()));
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

template <typename HParse, typename HMap, typename HMime, typename HGet,
          typename HPut, typename HLog>
void FlashedApp::handleIntoWith(const RequestHead &Head,
                                std::string_view Raw, std::string &Out,
                                SharedBody &Body, HParse &&Parse, HMap &&Map,
                                HMime &&Mime, HGet &&Get, HPut &&Put,
                                HLog &&Log) {
  // One epoch scope per request: pins non-worker callers (tests, the
  // embedding program's own threads) to a single code generation across
  // all pipeline stages — a rolling update can never split one request
  // across two generations — and keeps every epoch-published payload
  // touched below alive.  Free on a reactor worker thread.
  epoch::Guard EpochScope;
  bool KeepAlive = Head.KeepAlive && !Head.Malformed;
  // A HEAD response ends at its header section (RFC 9110 §9.3.2), error
  // responses included, whatever a patched parse stage returns.
  bool HeadOnly = Head.Method == "HEAD";

  auto ErrorResponse = [&](const SharedStr &Tagged) {
    int Code = std::atoi(Tagged.data() + 1);
    if (Code < 100 || Code > 599)
      Code = 500;
    std::string Html = "<html><body><h1>" + std::to_string(Code) + " " +
                       statusText(Code) + "</h1></body></html>\n";
    Log(Tagged, Code);
    appendHttpResponseHead(Out, Code, "text/html", Html.size(), KeepAlive);
    if (!HeadOnly)
      Out += Html;
  };

  // The reactor has thrown away the framing of a head the scan rejects
  // and closes after this response, so no stage may serve it.
  if (!Head.Complete || Head.Malformed)
    return ErrorResponse("!400 malformed request");

  SharedStr Parsed = Parse(SharedStr(Raw));
  std::string_view P = Parsed;
  if (!P.empty() && P[0] == '!')
    return ErrorResponse(Parsed);
  // Anything but "!NNN reason" or "METHOD target" (a trapped stage
  // yields "") is the parse stage failing, not the client.
  size_t Sp = P.find(' ');
  if (Sp == std::string_view::npos)
    return ErrorResponse("!500 parse stage returned no target");

  SharedStr Path = Map(SharedStr(P.substr(Sp + 1)));
  if (!Path.empty() && Path.data()[0] == '!')
    return ErrorResponse(Path);

  // "" from cache_get is a miss.  An empty document is therefore never
  // put: it could not hit, and each request would republish the cell.
  SharedBody Doc = Get(Path).shared();
  if (Doc->empty()) {
    Doc = Docs.getShared(Path);
    if (!Doc)
      return ErrorResponse("!404 not found");
    if (!Doc->empty())
      Put(Path, Doc);
  }

  SharedStr ContentType = Mime(Path);
  Log(Path, 200);
  appendHttpResponseHead(Out, 200, ContentType, Doc->size(), KeepAlive);
  if (!HeadOnly)
    Body = std::move(Doc);
}

void FlashedApp::handleInto(const RequestHead &Head, std::string_view Raw,
                            std::string &Out, SharedBody &Body) {
  if (Admin && !Head.Malformed && startsWith(Head.Target, AdminPrefix))
    return handleAdmin(Head, Raw, Out);
  handleIntoWith(Head, Raw, Out, Body, ParseTarget, MapUrl, MimeType,
                 CacheGet, CachePut, LogAccess);
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
      Head, Raw, Out, Body, parseTargetV1, mapUrlV1, mimeTypeV1,
      [this](SharedStr P) { return cacheGetV1(std::move(P)); },
      [this](SharedStr P, SharedStr B) {
        cachePutV1(std::move(P), std::move(B));
      },
      logAccessV1);
}
