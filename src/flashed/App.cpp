//===- flashed/App.cpp ----------------------------------------*- C++ -*-===//

#include "flashed/App.h"

#include "analysis/Finding.h"
#include "epoch/Epoch.h"
#include "flashed/Http.h"
#include "net/ReactorPool.h"
#include "persist/Journal.h"
#include "runtime/UpdateController.h"
#include "support/StringUtil.h"
#include "trace/Profile.h"
#include "trace/Trace.h"
#include "types/TypeParser.h"
#include "vtal/native/NativeImage.h"

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
  if (Admin && !Head.Malformed && startsWith(Head.Target, "/admin/")) {
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

// --- The /admin control plane -------------------------------------------

namespace {

void appendRecordJson(std::string &J, const UpdateRecord &R) {
  J += formatString("{\"tx\": %llu, \"patch\": \"",
                    static_cast<unsigned long long>(R.TxId));
  jsonEscapeTo(J, R.PatchId);
  J += "\", \"phase\": \"";
  jsonEscapeTo(J, R.Phase);
  J += formatString(
      "\", \"stage_ms\": %.3f, \"commit_ms\": %.3f, \"verify_ms\": %.3f, "
      "\"prepare_ms\": %.3f, \"build_ms\": %.3f, \"total_ms\": %.3f, "
      "\"cells_migrated\": %zu, \"provides\": %zu, \"state_rebuilt\": %s",
      R.StageMs, R.CommitMs, R.VerifyMs, R.PrepareMs, R.BuildMs, R.TotalMs,
      R.CellsMigrated, R.ProvidesLinked, R.StateRebuilt ? "true" : "false");
  if (!R.CommitMode.empty())
    J += formatString(", \"commit_mode\": \"%s\", "
                      "\"stage_to_commit_us\": %llu",
                      R.CommitMode.c_str(),
                      static_cast<unsigned long long>(R.StageToCommitUs));
  if (!R.Rollout.empty()) {
    J += ", \"rollout\": \"";
    jsonEscapeTo(J, R.Rollout);
    J += '"';
  }
  if (!R.FailureReason.empty()) {
    J += ", \"failure\": \"";
    jsonEscapeTo(J, R.FailureReason);
    J += '"';
  }
  // Analyzer verdict summary — flat fields only, so line-oriented
  // clients (dsu-updatectl) can pick them up without a JSON parser.
  // The full finding list is served by GET /admin/lint?id=<tx>.
  if (R.AnalysisRan) {
    size_t Errors = 0, Warnings = 0;
    for (const analysis::Finding &F : R.AnalysisFindings) {
      Errors += F.Sev == analysis::Severity::Error;
      Warnings += F.Sev == analysis::Severity::Warning;
    }
    J += formatString(", \"analysis_errors\": %zu, "
                      "\"analysis_warnings\": %zu, \"analysis_ms\": %.3f, "
                      "\"code_only_predicted\": %s",
                      Errors, Warnings, R.AnalysisMs,
                      R.CodeOnlyPredicted ? "true" : "false");
    if (!R.AnalysisFindings.empty()) {
      J += ", \"analysis_codes\": \"";
      bool FirstCode = true;
      for (const analysis::Finding &F : R.AnalysisFindings) {
        if (!FirstCode)
          J += ' ';
        FirstCode = false;
        jsonEscapeTo(J, F.Code);
      }
      J += '"';
    }
  }
  J += '}';
}

/// One finding as a JSON object (the GET /admin/lint element form).
void appendFindingJson(std::string &J, const analysis::Finding &F) {
  J += "{\"severity\": \"";
  J += analysis::severityName(F.Sev);
  J += "\", \"code\": \"";
  jsonEscapeTo(J, F.Code);
  J += "\", \"message\": \"";
  jsonEscapeTo(J, F.Message);
  J += '"';
  if (!F.Fn.empty()) {
    J += ", \"fn\": \"";
    jsonEscapeTo(J, F.Fn);
    J += '"';
  }
  if (F.HasPC)
    J += formatString(", \"pc\": %u", F.PC);
  J += '}';
}

void appendRolloutJson(std::string &J, const RolloutRecord &R) {
  J += formatString("{\"id\": %llu, \"tx\": %llu, \"patch\": \"",
                    static_cast<unsigned long long>(R.Id),
                    static_cast<unsigned long long>(R.TxId));
  jsonEscapeTo(J, R.PatchId);
  J += "\", \"state\": \"";
  jsonEscapeTo(J, R.State);
  J += "\", \"mode\": \"";
  jsonEscapeTo(J, R.Mode);
  J += "\", \"verdict\": \"";
  jsonEscapeTo(J, R.Verdict);
  J += formatString(
      "\", \"canary_mask\": %llu, \"window_ms\": %llu, "
      "\"detect_ms\": %.2f, \"revert_ms\": %.2f, "
      "\"canary\": {\"requests\": %llu, \"serves\": %llu, "
      "\"errors_5xx\": %llu, \"traps\": %llu, \"error_rate\": %.5f}, "
      "\"control\": {\"requests\": %llu, \"serves\": %llu, "
      "\"errors_5xx\": %llu, \"error_rate\": %.5f}",
      static_cast<unsigned long long>(R.CanaryMask),
      static_cast<unsigned long long>(R.WindowMs), R.DetectMs, R.RevertMs,
      static_cast<unsigned long long>(R.CanaryRequests),
      static_cast<unsigned long long>(R.CanaryServes),
      static_cast<unsigned long long>(R.CanaryErrors),
      static_cast<unsigned long long>(R.CanaryTraps), R.CanaryErrorRate,
      static_cast<unsigned long long>(R.ControlRequests),
      static_cast<unsigned long long>(R.ControlServes),
      static_cast<unsigned long long>(R.ControlErrors),
      R.ControlErrorRate);
  if (!R.Reason.empty()) {
    J += ", \"reason\": \"";
    jsonEscapeTo(J, R.Reason);
    J += '"';
  }
  J += '}';
}

std::string_view queryParam(std::string_view Target, std::string_view Key) {
  size_t Q = Target.find('?');
  if (Q == std::string_view::npos)
    return {};
  std::string_view Qs = Target.substr(Q + 1);
  while (!Qs.empty()) {
    size_t Amp = Qs.find('&');
    std::string_view Pair = Qs.substr(0, Amp);
    size_t Eq = Pair.find('=');
    if (Eq != std::string_view::npos && Pair.substr(0, Eq) == Key)
      return Pair.substr(Eq + 1);
    if (Amp == std::string_view::npos)
      break;
    Qs.remove_prefix(Amp + 1);
  }
  return {};
}

} // namespace

int dsu::flashed::adminStatusForError(const Error &E) {
  if (!E)
    return 200;
  switch (E.code()) {
  case ErrorCode::EC_Busy:
    return 503; // retryable: the update thread was not at a safe point
  case ErrorCode::EC_Link:
    return 404;
  default:
    return 409;
  }
}

void FlashedApp::handleAdmin(const RequestHead &Head, std::string_view Raw,
                             std::string &Out) {
  bool KeepAlive = Head.KeepAlive;
  std::string_view Target = Head.Target;
  std::string_view PathOnly = Target.substr(0, Target.find('?'));

  auto Respond = [&](int Code, std::string_view Json,
                     const char *ExtraHeader = nullptr) {
    Out += formatString("HTTP/1.1 %d %s\r\n", Code, statusText(Code));
    Out += "Content-Type: application/json\r\n";
    Out += formatString("Content-Length: %zu\r\n", Json.size());
    if (ExtraHeader) {
      Out += ExtraHeader;
      Out += "\r\n";
    }
    Out += KeepAlive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
    Out += "\r\n";
    Out += Json;
  };

  if (Head.Method == "POST" && PathOnly == "/admin/patches") {
    std::string_view Body =
        Raw.size() > Head.HeadBytes ? Raw.substr(Head.HeadBytes)
                                    : std::string_view();
    if (Body.empty())
      return Respond(400, "{\"error\": \"empty patch artifact\"}");
    // Staging (parse, verify, link prepare, state build) happens on the
    // controller's worker; the commit lands at a pool worker's update
    // point.
    StagedUpdate U = Admin->stageArtifactText(std::string(Body),
                                              "POST /admin/patches");
    return Respond(202, formatString(
                            "{\"tx\": %llu, \"phase\": \"%s\"}",
                            static_cast<unsigned long long>(U.id()),
                            updatePhaseName(U.phase())));
  }

  if (Head.Method == "GET" && PathOnly == "/admin/updates") {
    std::string J = "{\"log\": [";
    bool First = true;
    for (const UpdateRecord &R : RT.updateLog()) {
      if (!First)
        J += ", ";
      First = false;
      appendRecordJson(J, R);
    }
    J += "], \"pending\": [";
    First = true;
    for (const UpdateRecord &R : RT.pendingUpdates()) {
      if (!First)
        J += ", ";
      First = false;
      appendRecordJson(J, R);
    }
    J += "]}";
    return Respond(200, J);
  }

  if (Head.Method == "GET" && PathOnly == "/admin/status") {
    const char *PendingMode = "none";
    switch (RT.pendingCommitMode()) {
    case Runtime::PendingCommit::Rolling:
      PendingMode = "rolling";
      break;
    case Runtime::PendingCommit::Barrier:
      PendingMode = "barrier";
      break;
    case Runtime::PendingCommit::None:
      break;
    }
    uint64_t GlobalEpoch = epoch::domain().globalEpoch();
    std::string J = formatString(
        "{\"updates_applied\": %u, \"queue_depth\": %zu, "
        "\"update_pending\": %s, \"pending_commit\": \"%s\", "
        "\"rolling_commits\": %llu, \"epoch_global\": %llu, "
        "\"staging_backlog\": %zu, \"requests_handled\": %llu, "
        "\"verify_functions_total\": %llu, "
        "\"analysis_findings_total\": %llu",
        RT.updatesApplied(), RT.queueDepth(),
        RT.updatePending() ? "true" : "false", PendingMode,
        static_cast<unsigned long long>(RT.rollingCommits()),
        static_cast<unsigned long long>(GlobalEpoch), Admin->backlog(),
        static_cast<unsigned long long>(requestsHandled()),
        static_cast<unsigned long long>(RT.verifyFunctionsTotal()),
        static_cast<unsigned long long>(RT.analysisFindingsTotal()));
    if (Pool) {
      J += formatString(", \"workers\": %u, \"barrier_rounds\": %llu, "
                        "\"worker_state\": [",
                        Pool->workers(),
                        static_cast<unsigned long long>(
                            Pool->barrierRounds()));
      for (unsigned I = 0; I != Pool->workers(); ++I) {
        const net::WorkerStats &S = Pool->workerStats(I);
        uint64_t WEpoch = Pool->workerEpoch(I);
        uint64_t Lag = WEpoch && GlobalEpoch > WEpoch
                           ? GlobalEpoch - WEpoch
                           : 0;
        J += formatString(
            "%s{\"worker\": %u, \"state\": \"%s\", \"requests\": %llu, "
            "\"connections\": %llu, \"bytes_sent\": %llu, "
            "\"pauses\": %llu, \"pause_max_us\": %llu, "
            "\"epoch\": %llu, \"epoch_lag\": %llu, \"cpu\": %d}",
            I ? ", " : "", I,
            net::ReactorPool::workerStateName(Pool->workerState(I)),
            static_cast<unsigned long long>(
                S.Requests.load(std::memory_order_relaxed)),
            static_cast<unsigned long long>(
                S.Connections.load(std::memory_order_relaxed)),
            static_cast<unsigned long long>(
                S.BytesSent.load(std::memory_order_relaxed)),
            static_cast<unsigned long long>(
                S.Pauses.load(std::memory_order_relaxed)),
            static_cast<unsigned long long>(
                S.PauseMaxUs.load(std::memory_order_relaxed)),
            static_cast<unsigned long long>(WEpoch),
            static_cast<unsigned long long>(Lag), Pool->workerCpu(I));
      }
      J += ']';
    }
    if (Journal) {
      persist::JournalStatus S = Journal->status();
      J += formatString(
          ", \"journal\": {\"boots\": %llu, \"prev_boot\": \"%s\", "
          "\"chain_length\": %llu, \"quarantined\": %llu, "
          "\"replayed\": %u, \"replay_failed\": %u, \"replay_ms\": %llu}",
          static_cast<unsigned long long>(S.Boots),
          S.Boots <= 1 ? "first" : S.PrevCrashed ? "crash" : "clean",
          static_cast<unsigned long long>(S.ChainLength),
          static_cast<unsigned long long>(S.QuarantinedCount),
          S.ReplayCommitted, S.ReplayFailed,
          static_cast<unsigned long long>(S.ReplayMs));
    }
    J += '}';
    return Respond(200, J);
  }

  if (Head.Method == "GET" && PathOnly == "/admin/journal") {
    if (!Journal)
      return Respond(404, "{\"error\": \"no update journal attached\"}");
    persist::JournalStatus S = Journal->status();
    std::string J = formatString(
        "{\"boots\": %llu, \"prev_boot\": \"%s\", \"chain_length\": %llu, "
        "\"quarantined_count\": %llu, \"replay\": {\"attempted\": %u, "
        "\"committed\": %u, \"failed\": %u, \"duration_ms\": %llu}, "
        "\"quarantined\": [",
        static_cast<unsigned long long>(S.Boots),
        S.Boots <= 1 ? "first" : S.PrevCrashed ? "crash" : "clean",
        static_cast<unsigned long long>(S.ChainLength),
        static_cast<unsigned long long>(S.QuarantinedCount),
        S.ReplayAttempted, S.ReplayCommitted, S.ReplayFailed,
        static_cast<unsigned long long>(S.ReplayMs));
    bool First = true;
    for (const persist::QuarantineInfo &Q : Journal->quarantined()) {
      if (!First)
        J += ", ";
      First = false;
      J += "{\"patch\": \"";
      jsonEscapeTo(J, Q.PatchId);
      J += "\", \"hash\": \"";
      jsonEscapeTo(J, Q.Hash);
      J += formatString("\", \"crashes\": %u, \"seal_seq\": %llu}",
                        Q.CrashCount,
                        static_cast<unsigned long long>(Q.SealSeq));
    }
    J += ']';
    // The full record history is large; ?quarantined=1 serves only the
    // containment table (what `dsu-updatectl quarantine` reads).
    if (queryParam(Target, "quarantined") != "1") {
      J += ", \"records\": [";
      First = true;
      for (const persist::JournalRecord &R : Journal->records()) {
        if (!First)
          J += ", ";
        First = false;
        J += formatString("{\"seq\": %llu, \"kind\": \"%s\", "
                          "\"wall_ms\": %llu",
                          static_cast<unsigned long long>(R.Seq),
                          persist::recordKindName(R.Kind),
                          static_cast<unsigned long long>(R.WallMs));
        switch (R.Kind) {
        case persist::RecordKind::BootStart:
          if (!R.PrevExit.empty()) {
            J += ", \"prev_exit\": \"";
            jsonEscapeTo(J, R.PrevExit);
            J += '"';
          }
          break;
        case persist::RecordKind::Intent:
          J += ", \"patch\": \"";
          jsonEscapeTo(J, R.PatchId);
          J += "\", \"hash\": \"";
          jsonEscapeTo(J, R.Hash);
          J += formatString("\", \"origin\": \"%s\", \"attempt\": %u, "
                            "\"bytes\": %llu",
                            persist::intentOriginName(R.Origin), R.Attempt,
                            static_cast<unsigned long long>(R.SizeBytes));
          break;
        case persist::RecordKind::Seal:
          J += formatString(", \"intent\": %llu, \"outcome\": \"%s\"",
                            static_cast<unsigned long long>(R.IntentSeq),
                            persist::sealOutcomeName(R.Outcome));
          if (!R.CommitMode.empty()) {
            J += ", \"mode\": \"";
            jsonEscapeTo(J, R.CommitMode);
            J += '"';
          }
          if (!R.Verdict.empty()) {
            J += ", \"verdict\": \"";
            jsonEscapeTo(J, R.Verdict);
            J += '"';
          }
          if (!R.Reason.empty()) {
            J += ", \"reason\": \"";
            jsonEscapeTo(J, R.Reason);
            J += '"';
          }
          break;
        case persist::RecordKind::CleanShutdown:
          break;
        }
        J += '}';
      }
      J += ']';
    }
    J += '}';
    return Respond(200, J);
  }

  if (Head.Method == "GET" && PathOnly == "/admin/metrics") {
    std::string Text = renderMetrics();
    Out += formatString("HTTP/1.1 200 OK\r\n"
                        "Content-Type: text/plain; version=0.0.4\r\n"
                        "Content-Length: %zu\r\n",
                        Text.size());
    Out += KeepAlive ? "Connection: keep-alive\r\n"
                     : "Connection: close\r\n";
    Out += "\r\n";
    Out += Text;
    return;
  }

  if (Head.Method == "POST" && PathOnly == "/admin/rollout") {
    std::string_view Body =
        Raw.size() > Head.HeadBytes ? Raw.substr(Head.HeadBytes)
                                    : std::string_view();
    if (Body.empty())
      return Respond(400, "{\"error\": \"empty patch artifact\"}");
    RolloutOptions O;
    uint64_t V;
    if (parseUInt(queryParam(Target, "canary_workers"), V))
      O.CanaryWorkers = static_cast<unsigned>(V);
    if (parseUInt(queryParam(Target, "window_ms"), V))
      O.WindowMs = V;
    if (parseUInt(queryParam(Target, "min_samples"), V))
      O.MinSamples = V;
    if (parseUInt(queryParam(Target, "max_canary_traps"), V))
      O.MaxCanaryTraps = V;
    if (parseUInt(queryParam(Target, "stage_timeout_ms"), V))
      O.StageTimeoutMs = V;
    std::string_view Delta = queryParam(Target, "max_error_delta");
    if (!Delta.empty())
      O.MaxErrorDelta = atof(std::string(Delta).c_str());
    std::string_view Lat = queryParam(Target, "max_latency_delta_us");
    if (!Lat.empty())
      O.MaxLatencyDeltaUs = atof(std::string(Lat).c_str());
    Expected<uint64_t> Id = rollouts().startArtifactText(
        std::string(Body), "POST /admin/rollout", O);
    if (!Id) {
      Error E = Id.takeError();
      int Code = adminStatusForError(E);
      std::string J = "{\"error\": \"";
      jsonEscapeTo(J, E.str());
      J += formatString("\", \"retryable\": %s}",
                        E.code() == ErrorCode::EC_Busy ? "true" : "false");
      return Respond(Code, J, Code == 503 ? "Retry-After: 0" : nullptr);
    }
    return Respond(202, formatString(
                            "{\"rollout\": %llu}",
                            static_cast<unsigned long long>(*Id)));
  }

  if (Head.Method == "GET" && PathOnly == "/admin/rollouts") {
    std::string_view IdStr = queryParam(Target, "id");
    uint64_t Id = 0;
    if (parseUInt(IdStr, Id)) {
      Expected<RolloutRecord> R = rollouts().rollout(Id);
      if (!R) {
        std::string J = "{\"error\": \"";
        jsonEscapeTo(J, R.takeError().str());
        J += "\"}";
        return Respond(404, J);
      }
      std::string J;
      appendRolloutJson(J, *R);
      return Respond(200, J);
    }
    std::string J = "{\"rollouts\": [";
    bool First = true;
    for (const RolloutRecord &R : rollouts().rollouts()) {
      if (!First)
        J += ", ";
      First = false;
      appendRolloutJson(J, R);
    }
    J += "]}";
    return Respond(200, J);
  }

  if (Head.Method == "POST" && PathOnly == "/admin/rollback") {
    std::string Name(queryParam(Target, "name"));
    if (Name.empty() && Raw.size() > Head.HeadBytes)
      Name = std::string(Raw.substr(Head.HeadBytes));
    if (Name.empty())
      return Respond(400, "{\"error\": \"missing updateable name\"}");
    // With a pool attached the rollback is itself a cross-worker
    // update: it executes at the barrier, with every worker quiescent,
    // instead of swinging bindings under live traffic.  EC_Busy
    // semantics carry over unchanged (503 + Retry-After below).
    Error E = Pool ? Pool->runQuiescent(
                         [&] { return RT.rollbackUpdateable(Name); })
                   : RT.rollbackUpdateable(Name);
    if (!E) {
      std::string J = "{\"rolled_back\": \"";
      jsonEscapeTo(J, Name);
      J += "\"}";
      return Respond(200, J);
    }
    int Code = adminStatusForError(E);
    std::string J = "{\"error\": \"";
    jsonEscapeTo(J, E.str());
    J += formatString("\", \"retryable\": %s}",
                      E.code() == ErrorCode::EC_Busy ? "true" : "false");
    return Respond(Code, J, Code == 503 ? "Retry-After: 0" : nullptr);
  }

  if (Head.Method == "GET" && PathOnly == "/admin/lint") {
    uint64_t Id = 0;
    if (!parseUInt(queryParam(Target, "id"), Id))
      return Respond(400, "{\"error\": \"missing or malformed ?id=<tx>\"}");
    auto Render = [&](const UpdateRecord &R) {
      std::string J = formatString("{\"tx\": %llu, \"patch\": \"",
                                   static_cast<unsigned long long>(R.TxId));
      jsonEscapeTo(J, R.PatchId);
      J += "\", \"phase\": \"";
      jsonEscapeTo(J, R.Phase);
      J += formatString("\", \"analysis_ran\": %s, \"analysis_ms\": %.3f, "
                        "\"code_only_predicted\": %s, \"findings\": [",
                        R.AnalysisRan ? "true" : "false", R.AnalysisMs,
                        R.CodeOnlyPredicted ? "true" : "false");
      bool First = true;
      for (const analysis::Finding &F : R.AnalysisFindings) {
        if (!First)
          J += ", ";
        First = false;
        appendFindingJson(J, F);
      }
      J += "]}";
      Respond(200, J);
    };
    // A tx still staging lives in the pending list; finished ones (and
    // analyzer refusals, which never stage) are in the terminal log.
    for (const UpdateRecord &R : RT.pendingUpdates())
      if (R.TxId == Id)
        return Render(R);
    for (const UpdateRecord &R : RT.updateLog())
      if (R.TxId == Id)
        return Render(R);
    return Respond(404, formatString(
                            "{\"error\": \"no update record for tx %llu\"}",
                            static_cast<unsigned long long>(Id)));
  }

  if (Head.Method == "GET" && PathOnly == "/admin/trace") {
    // ?export=chrome serves the whole recorder (optionally filtered by
    // ?id=) as Chrome trace-event JSON — load it in Perfetto or
    // chrome://tracing.  ?id=<tx> alone serves that update's span tree.
    uint64_t Id = 0;
    bool HasId = parseUInt(queryParam(Target, "id"), Id);
    if (queryParam(Target, "export") == "chrome")
      return Respond(200, trace::chromeTraceJson(HasId ? Id : 0));
    if (!HasId)
      return Respond(400, "{\"error\": \"missing or malformed ?id=<tx> "
                          "(or ?export=chrome)\"}");
    return Respond(200, trace::spanTreeJson(Id));
  }

  if (Head.Method == "GET" && PathOnly == "/admin/profile") {
    // Hot-function ranking; ?k=<n> bounds the rows (default 20, 0 =
    // all), ?reset=1 zeros the counters *after* rendering — the
    // response is the closing report of the window it resets.
    uint64_t K = 20;
    parseUInt(queryParam(Target, "k"), K);
    std::string J = trace::profileJson(static_cast<size_t>(K));
    if (queryParam(Target, "reset") == "1")
      trace::ProfileRegistry::instance().resetAll();
    return Respond(200, J);
  }

  Respond(404, "{\"error\": \"unknown admin endpoint\"}");
}

// --- GET /admin/metrics -------------------------------------------------

namespace {

/// Emits one labelled counter sample in the text exposition format.
void metricLine(std::string &T, const char *Name, unsigned Worker,
                uint64_t Value) {
  T += formatString("%s{worker=\"%u\"} %llu\n", Name, Worker,
                    static_cast<unsigned long long>(Value));
}

/// Emits one histogram's `_bucket`/`_sum`/`_count` series.  \p Labels
/// is empty or a ready-made label list *without* the `le` label (e.g.
/// `worker="0"`).  The exposition invariant that the `+Inf` bucket
/// equals `_count` holds by construction: both lines print the same
/// cumulative sum of the bucket loads, rather than a separately
/// maintained count that may have advanced between the two reads.
void emitHistogram(std::string &T, const char *Name,
                   const std::string &Labels,
                   const std::atomic<uint64_t> *Buckets,
                   const uint64_t *BoundsUs, size_t NumBuckets,
                   uint64_t SumUs) {
  uint64_t Cum = 0;
  for (size_t B = 0; B != NumBuckets; ++B) {
    Cum += Buckets[B].load(std::memory_order_relaxed);
    std::string Le =
        B + 1 == NumBuckets
            ? std::string("+Inf")
            : formatString("%llu",
                           static_cast<unsigned long long>(BoundsUs[B]));
    T += formatString("%s_bucket{%s%sle=\"%s\"} %llu\n", Name,
                      Labels.c_str(), Labels.empty() ? "" : ",", Le.c_str(),
                      static_cast<unsigned long long>(Cum));
  }
  if (Labels.empty()) {
    T += formatString("%s_sum %llu\n", Name,
                      static_cast<unsigned long long>(SumUs));
    T += formatString("%s_count %llu\n", Name,
                      static_cast<unsigned long long>(Cum));
  } else {
    T += formatString("%s_sum{%s} %llu\n", Name, Labels.c_str(),
                      static_cast<unsigned long long>(SumUs));
    T += formatString("%s_count{%s} %llu\n", Name, Labels.c_str(),
                      static_cast<unsigned long long>(Cum));
  }
}

} // namespace

std::string FlashedApp::renderMetrics() const {
  std::string T;
  T += "# HELP dsu_requests_total Requests handled by the app.\n"
       "# TYPE dsu_requests_total counter\n";
  T += formatString("dsu_requests_total %llu\n",
                    static_cast<unsigned long long>(requestsHandled()));
  T += "# HELP dsu_updates_applied_total Committed dynamic updates.\n"
       "# TYPE dsu_updates_applied_total counter\n";
  T += formatString("dsu_updates_applied_total %u\n", RT.updatesApplied());
  T += "# HELP dsu_rolling_commits_total Code-only updates committed "
       "without the cross-worker barrier.\n"
       "# TYPE dsu_rolling_commits_total counter\n";
  T += formatString("dsu_rolling_commits_total %llu\n",
                    static_cast<unsigned long long>(RT.rollingCommits()));
  T += "# HELP dsu_verify_functions_total VTAL functions checked by the "
       "load-time verifier.\n"
       "# TYPE dsu_verify_functions_total counter\n";
  T += formatString("dsu_verify_functions_total %llu\n",
                    static_cast<unsigned long long>(
                        RT.verifyFunctionsTotal()));
  T += "# HELP dsu_analysis_findings_total Findings produced by the "
       "whole-patch update-safety analyzer.\n"
       "# TYPE dsu_analysis_findings_total counter\n";
  T += formatString("dsu_analysis_findings_total %llu\n",
                    static_cast<unsigned long long>(
                        RT.analysisFindingsTotal()));
  T += "# HELP dsu_epoch_global The reclamation domain's global epoch.\n"
       "# TYPE dsu_epoch_global gauge\n";
  T += formatString("dsu_epoch_global %llu\n",
                    static_cast<unsigned long long>(
                        epoch::domain().globalEpoch()));
  {
    const LatencyHistogram &H = RT.stageToCommitLatency();
    T += "# HELP dsu_stage_to_commit_us Staging-complete to commit "
         "latency of dynamic updates, microseconds.\n"
         "# TYPE dsu_stage_to_commit_us histogram\n";
    emitHistogram(T, "dsu_stage_to_commit_us", std::string(), H.Buckets,
                  LatencyHistogram::BucketUs, LatencyHistogram::NumBuckets,
                  H.TotalUs.load(std::memory_order_relaxed));
  }
  {
    trace::ProfileRegistry::Totals P =
        trace::ProfileRegistry::instance().totals();
    T += "# HELP dsu_vtal_calls_total VTAL function activations "
         "observed by the profiler.\n"
         "# TYPE dsu_vtal_calls_total counter\n";
    T += formatString("dsu_vtal_calls_total %llu\n",
                      static_cast<unsigned long long>(P.Calls));
    T += "# HELP dsu_vtal_fuel_total Fuel burned by VTAL code "
         "(deterministic interpreter cost units).\n"
         "# TYPE dsu_vtal_fuel_total counter\n";
    T += formatString("dsu_vtal_fuel_total %llu\n",
                      static_cast<unsigned long long>(P.Fuel));
    T += "# HELP dsu_vtal_traps_total VTAL activations that trapped.\n"
         "# TYPE dsu_vtal_traps_total counter\n";
    T += formatString("dsu_vtal_traps_total %llu\n",
                      static_cast<unsigned long long>(P.Traps));
  }
  {
    // Native-tier counters.  The stats singleton is compiled in even
    // when the tier itself is not (DSU_VTAL_NATIVE=OFF), so dashboards
    // see stable zero-valued series instead of absent ones.
    vtal::native::NativeStats &N = vtal::native::NativeStats::instance();
    T += "# HELP dsu_vtal_native_functions_total VTAL functions compiled "
         "to native code (cumulative across images).\n"
         "# TYPE dsu_vtal_native_functions_total counter\n";
    T += formatString(
        "dsu_vtal_native_functions_total %llu\n",
        static_cast<unsigned long long>(
            N.FunctionsCompiled.load(std::memory_order_relaxed)));
    T += "# HELP dsu_vtal_deopts_total Native-tier deoptimizations into "
         "the interpreter, by reason.\n"
         "# TYPE dsu_vtal_deopts_total counter\n";
    static const char *const Reasons[] = {"fuel", "div_trap", "depth",
                                          "unsupported"};
    for (unsigned R = 0;
         R != static_cast<unsigned>(vtal::native::DeoptReason::NumReasons);
         ++R)
      T += formatString(
          "dsu_vtal_deopts_total{reason=\"%s\"} %llu\n", Reasons[R],
          static_cast<unsigned long long>(
              N.DeoptsByReason[R].load(std::memory_order_relaxed)));
    T += "# HELP dsu_vtal_native_code_bytes Live executable code bytes "
         "in native-tier arenas.\n"
         "# TYPE dsu_vtal_native_code_bytes gauge\n";
    T += formatString("dsu_vtal_native_code_bytes %llu\n",
                      static_cast<unsigned long long>(
                          N.CodeBytesLive.load(std::memory_order_relaxed)));
    T += "# HELP dsu_vtal_native_arenas_retired_total Superseded code "
         "arenas handed to the epoch domain for reclamation.\n"
         "# TYPE dsu_vtal_native_arenas_retired_total counter\n";
    T += formatString(
        "dsu_vtal_native_arenas_retired_total %llu\n",
        static_cast<unsigned long long>(
            N.ArenasRetired.load(std::memory_order_relaxed)));
  }
  T += "# HELP dsu_update_phase_us Update-pipeline phase latency, "
       "microseconds, by phase.\n"
       "# TYPE dsu_update_phase_us histogram\n";
  for (unsigned P = 0;
       P != static_cast<unsigned>(trace::Phase::NumPhases); ++P) {
    const LatencyHistogram &H =
        trace::phaseHistogram(static_cast<trace::Phase>(P));
    emitHistogram(T, "dsu_update_phase_us",
                  formatString("phase=\"%s\"",
                               trace::phaseName(static_cast<trace::Phase>(P))),
                  H.Buckets, LatencyHistogram::BucketUs,
                  LatencyHistogram::NumBuckets,
                  H.TotalUs.load(std::memory_order_relaxed));
  }
  if (!Pool)
    return T;
  T += formatString("# HELP dsu_barrier_rounds_total Completed "
                    "cross-worker update barriers.\n"
                    "# TYPE dsu_barrier_rounds_total counter\n"
                    "dsu_barrier_rounds_total %llu\n",
                    static_cast<unsigned long long>(
                        Pool->barrierRounds()));
  T += "# HELP dsu_worker_requests_total Requests served per worker.\n"
       "# TYPE dsu_worker_requests_total counter\n";
  for (unsigned I = 0; I != Pool->workers(); ++I)
    metricLine(T, "dsu_worker_requests_total", I,
               Pool->workerStats(I).Requests.load(
                   std::memory_order_relaxed));
  T += "# HELP dsu_worker_connections_total Connections accepted per "
       "worker.\n# TYPE dsu_worker_connections_total counter\n";
  for (unsigned I = 0; I != Pool->workers(); ++I)
    metricLine(T, "dsu_worker_connections_total", I,
               Pool->workerStats(I).Connections.load(
                   std::memory_order_relaxed));
  T += "# HELP dsu_worker_bytes_sent_total Bytes written per worker.\n"
       "# TYPE dsu_worker_bytes_sent_total counter\n";
  for (unsigned I = 0; I != Pool->workers(); ++I)
    metricLine(T, "dsu_worker_bytes_sent_total", I,
               Pool->workerStats(I).BytesSent.load(
                   std::memory_order_relaxed));
  T += "# HELP dsu_worker_epoch_lag How far each worker's announced "
       "epoch trails the global epoch (rises while a worker is stuck "
       "mid-request).\n"
       "# TYPE dsu_worker_epoch_lag gauge\n";
  uint64_t GlobalEpoch = epoch::domain().globalEpoch();
  for (unsigned I = 0; I != Pool->workers(); ++I) {
    uint64_t WEpoch = Pool->workerEpoch(I);
    metricLine(T, "dsu_worker_epoch_lag", I,
               WEpoch && GlobalEpoch > WEpoch ? GlobalEpoch - WEpoch : 0);
  }
  T += "# HELP dsu_worker_commits_total Barrier rounds this worker "
       "committed (it was the last arrival).\n"
       "# TYPE dsu_worker_commits_total counter\n";
  for (unsigned I = 0; I != Pool->workers(); ++I)
    metricLine(T, "dsu_worker_commits_total", I,
               Pool->workerStats(I).Commits.load(
                   std::memory_order_relaxed));
  T += "# HELP dsu_update_pause_us Update-barrier park duration per "
       "worker, microseconds.\n"
       "# TYPE dsu_update_pause_us histogram\n";
  for (unsigned I = 0; I != Pool->workers(); ++I) {
    const net::WorkerStats &S = Pool->workerStats(I);
    emitHistogram(T, "dsu_update_pause_us",
                  formatString("worker=\"%u\"", I), S.PauseBuckets,
                  net::WorkerStats::PauseBucketUs,
                  net::WorkerStats::NumPauseBuckets,
                  S.PauseTotalUs.load(std::memory_order_relaxed));
  }
  T += "# HELP dsu_request_duration_us Request handler latency per "
       "worker, microseconds.\n"
       "# TYPE dsu_request_duration_us histogram\n";
  for (unsigned I = 0; I != Pool->workers(); ++I) {
    const net::WorkerStats &S = Pool->workerStats(I);
    emitHistogram(T, "dsu_request_duration_us",
                  formatString("worker=\"%u\"", I), S.ServeBuckets,
                  net::WorkerStats::ServeBucketUs,
                  net::WorkerStats::NumServeBuckets,
                  S.ServeTotalUs.load(std::memory_order_relaxed));
  }
  return T;
}

RolloutController &FlashedApp::rollouts() {
  std::lock_guard<std::mutex> G(RolloutLock);
  if (!Rollout) {
    // The controller gets the serving plane as hooks: worker counters
    // to gate on and the pool's barrier to revert under.  Without a
    // pool the hooks stay empty and every rollout takes the degenerate
    // barrier form with direct (single-threaded) commits.
    RolloutController::Hooks H;
    if (net::ReactorPool *P = Pool) {
      H.WorkerCount = [P] { return static_cast<size_t>(P->workers()); };
      H.Stats = [P](size_t I) {
        return &P->workerStats(static_cast<unsigned>(I));
      };
      H.RunQuiescent = [P](const std::function<Error()> &Fn) {
        return P->runQuiescent(Fn);
      };
      H.Wake = [P] { P->wake(); };
    }
    Rollout = std::make_unique<RolloutController>(RT, std::move(H));
  }
  return *Rollout;
}

void FlashedApp::wireUpdateWake() {
  if (!Admin || !Pool)
    return;
  // A staged transaction turning ready is what makes updatePending()
  // true; waking the workers lets the barrier form immediately instead
  // of on the next poll timeout.  The controller's worker can outlive
  // the pool (it lives with the Runtime), so the thunk must be the
  // pool's lifetime-gated wakeCallback, never a raw pointer capture.
  Admin->setOnStaged(Pool->wakeCallback());
}
