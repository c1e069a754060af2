//===- flashed/Admin.cpp - The /admin control plane -----------*- C++ -*-===//
///
/// \file
/// FlashedApp's operator control plane.  Every JSON body is written by
/// JsonWriter (support/Json.h), every response head by
/// appendHttpResponseHead() (flashed/Http.h).  The endpoints:
///
///   POST /admin/patches     stage a .dsup body off-thread; 202 {tx, phase}
///   GET  /admin/updates     {log, pending}: the capped update log and
///                           the queued records
///   GET  /admin/status      counters; worker_state (pool), journal
///   GET  /admin/journal     journal state, quarantine table and records
///                           (?quarantined=1: no records)
///   GET  /admin/metrics     text exposition 0.0.4 (see renderMetrics())
///   POST /admin/rollout     canary rollout of a .dsup body; 202 {rollout}
///                           (query parameters: parseRolloutOptions())
///   GET  /admin/rollouts    the rollouts in the update log, then the one
///                           in flight (?id=N: one)
///   POST /admin/rollback    roll ?name=F (or the body) back as a rolling
///                           swing; 409 past a state-migrating patch
///   GET  /admin/lint?id=N   the analyzer's findings for one transaction
///   GET  /admin/trace?id=N  that update's span tree; ?export=chrome: the
///                           recorder (filtered by ?id=) as Chrome JSON
///   GET  /admin/profile     VTAL hot functions; ?k=N rows (default 20,
///                           0 = all), ?reset=1 zeroes after rendering
///
/// Errors are {"error": "..."}; update-flow errors add "retryable" and
/// map through adminStatusForError(), with Retry-After: 0 on a 503.
/// Other /admin paths answer 404.
///
//===----------------------------------------------------------------------===//

#include "flashed/App.h"

#include "analysis/Finding.h"
#include "epoch/Epoch.h"
#include "net/ReactorPool.h"
#include "persist/Journal.h"
#include "runtime/UpdateController.h"
#include "support/Json.h"
#include "support/StringUtil.h"
#include "trace/Profile.h"
#include "trace/Trace.h"

#include <charconv>
#include <cinttypes>
#include <climits>
#include <cmath>

using namespace dsu;
using namespace dsu::flashed;

namespace {

void writeRecord(JsonWriter &W, const UpdateRecord &R) {
  W.beginObject().key("tx").value(R.TxId);
  W.key("patch").value(R.PatchId);
  W.key("phase").value(R.Phase);
  W.key("stage_ms").value(R.StageMs, 3);
  W.key("commit_ms").value(R.CommitMs, 3);
  W.key("verify_ms").value(R.VerifyMs, 3);
  W.key("prepare_ms").value(R.PrepareMs, 3);
  W.key("build_ms").value(R.BuildMs, 3);
  W.key("total_ms").value(R.TotalMs, 3);
  W.key("cells_migrated").value(R.CellsMigrated);
  W.key("provides").value(R.ProvidesLinked);
  W.key("state_rebuilt").value(R.StateRebuilt);
  if (!R.CommitMode.empty()) {
    W.key("commit_mode").value(R.CommitMode);
    W.key("stage_to_commit_us").value(R.StageToCommitUs);
  }
  if (R.Rollout && !R.Rollout->Verdict.empty())
    W.key("rollout").value(R.Rollout->Verdict);
  if (!R.FailureReason.empty())
    W.key("failure").value(R.FailureReason);
  // Analyzer verdict summary — flat fields only, so line-oriented
  // clients (dsu-updatectl) can pick them up without a JSON parser.
  // The full finding list is served by GET /admin/lint?id=<tx>.
  if (R.AnalysisRan) {
    size_t Errors = 0, Warnings = 0;
    std::string Codes;
    for (const analysis::Finding &F : R.AnalysisFindings) {
      Errors += F.Sev == analysis::Severity::Error;
      Warnings += F.Sev == analysis::Severity::Warning;
      Codes += (Codes.empty() ? "" : " ") + F.Code;
    }
    W.key("analysis_errors").value(Errors);
    W.key("analysis_warnings").value(Warnings);
    W.key("analysis_ms").value(R.AnalysisMs, 3);
    W.key("code_only_predicted").value(R.CodeOnlyPredicted);
    W.key("analysis_codes").value(Codes);
  }
  W.endObject();
}

void writeRollout(JsonWriter &W, const RolloutRecord &R) {
  W.beginObject().key("id").value(R.Id);
  W.key("tx").value(R.TxId);
  W.key("patch").value(R.PatchId);
  W.key("state").value(R.State);
  W.key("verdict").value(R.Verdict);
  W.key("canary_mask").value(R.CanaryMask);
  W.key("window_ms").value(R.WindowMs);
  W.key("detect_ms").value(R.DetectMs, 2);
  W.key("revert_ms").value(R.RevertMs, 2);
  W.key("canary").beginObject();
  W.key("requests").value(R.CanaryRequests);
  W.key("serves").value(R.CanaryServes);
  W.key("errors_5xx").value(R.CanaryErrors);
  W.key("traps").value(R.CanaryTraps);
  W.key("error_rate").value(R.CanaryErrorRate, 5).endObject();
  W.key("control").beginObject();
  W.key("requests").value(R.ControlRequests);
  W.key("serves").value(R.ControlServes);
  W.key("errors_5xx").value(R.ControlErrors);
  W.key("error_rate").value(R.ControlErrorRate, 5).endObject();
  if (!R.Reason.empty())
    W.key("reason").value(R.Reason);
  W.endObject();
}

void writeJournalRecord(JsonWriter &W, const persist::JournalRecord &R) {
  W.beginObject().key("seq").value(R.Seq);
  W.key("kind").value(persist::recordKindName(R.Kind));
  W.key("wall_ms").value(R.WallMs);
  switch (R.Kind) {
  case persist::RecordKind::BootStart:
    if (!R.PrevExit.empty())
      W.key("prev_exit").value(R.PrevExit);
    break;
  case persist::RecordKind::Intent:
    W.key("patch").value(R.PatchId);
    W.key("hash").value(R.Hash);
    W.key("origin").value(persist::intentOriginName(R.Origin));
    W.key("attempt").value(R.Attempt);
    W.key("bytes").value(R.SizeBytes);
    break;
  case persist::RecordKind::Seal:
    W.key("intent").value(R.IntentSeq);
    W.key("outcome").value(persist::sealOutcomeName(R.Outcome));
    if (!R.CommitMode.empty())
      W.key("mode").value(R.CommitMode);
    if (!R.Verdict.empty())
      W.key("verdict").value(R.Verdict);
    if (!R.Reason.empty())
      W.key("reason").value(R.Reason);
    break;
  case persist::RecordKind::CleanShutdown:
    break;
  }
  W.endObject();
}

/// {"error": Message}, plus "retryable" for an update-flow error \p E.
std::string errorJson(std::string_view Message, const Error *E = nullptr) {
  std::string J;
  JsonWriter W(J);
  W.beginObject().key("error").value(Message);
  if (E)
    W.key("retryable").value(E->code() == ErrorCode::EC_Busy);
  W.endObject();
  return J;
}

const char *prevBootName(const persist::JournalStatus &S) {
  return S.Boots <= 1 ? "first" : S.PrevCrashed ? "crash" : "clean";
}

/// A relaxed read of one statistics counter (the admin plane reads
/// without locks; a scrape may be torn across counters).
uint64_t load(const std::atomic<uint64_t> &C) {
  return C.load(std::memory_order_relaxed);
}

/// How far worker \p I's announced epoch trails \p GlobalEpoch.
uint64_t epochLag(const net::ReactorPool &P, unsigned I,
                  uint64_t GlobalEpoch) {
  uint64_t WEpoch = P.workerEpoch(I);
  return WEpoch && GlobalEpoch > WEpoch ? GlobalEpoch - WEpoch : 0;
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

/// Reads POST /admin/rollout's query parameters (canary_workers,
/// window_ms, min_samples, max_canary_traps, stage_timeout_ms,
/// max_error_delta, max_latency_delta_us) into \p O.  One that is
/// present but does not parse, is not finite or is out of range is
/// refused with a message, rather than silently disabling or tightening
/// a health gate.  Returns "" when every parameter is good.
std::string parseRolloutOptions(std::string_view Target, RolloutOptions &O) {
  std::string Bad;
  auto Refuse = [&](const char *Name, std::string_view V) {
    if (Bad.empty())
      Bad = formatString("malformed query parameter %s=%.*s", Name,
                         static_cast<int>(V.size()), V.data());
  };
  auto UInt = [&](const char *Name, auto &Out, uint64_t Max) {
    std::string_view V = queryParam(Target, Name);
    if (V.empty())
      return;
    uint64_t N = 0;
    if (!parseUInt(V, N) || N > Max)
      return Refuse(Name, V);
    Out = static_cast<std::remove_reference_t<decltype(Out)>>(N);
  };
  auto Real = [&](const char *Name, double &Out, double Min) {
    std::string_view V = queryParam(Target, Name);
    if (V.empty())
      return;
    const char *End = V.data() + V.size();
    double D = 0;
    auto [Ptr, Ec] = std::from_chars(V.data(), End, D);
    if (Ec != std::errc() || Ptr != End || !std::isfinite(D) || D < Min)
      return Refuse(Name, V);
    Out = D;
  };
  UInt("canary_workers", O.CanaryWorkers, UINT_MAX);
  UInt("window_ms", O.WindowMs, UINT64_MAX);
  UInt("min_samples", O.MinSamples, UINT64_MAX);
  UInt("max_canary_traps", O.MaxCanaryTraps, UINT64_MAX);
  UInt("stage_timeout_ms", O.StageTimeoutMs, UINT64_MAX);
  // Rates are compared, so a negative error bound would trip on a
  // healthy canary; a negative latency bound is the documented "off".
  Real("max_error_delta", O.MaxErrorDelta, 0);
  Real("max_latency_delta_us", O.MaxLatencyDeltaUs, -HUGE_VAL);
  return Bad;
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
  std::string_view Target = Head.Target;
  std::string_view PathOnly = Target.substr(0, Target.find('?'));
  std::string_view Body = Raw.size() > Head.HeadBytes
                              ? Raw.substr(Head.HeadBytes)
                              : std::string_view();
  auto Respond = [&](int Code, std::string_view Json) {
    appendHttpResponse(Out, Code, "application/json", Json, Head.KeepAlive,
                       Code == 503 ? "Retry-After: 0\r\n" : "");
  };
  auto RespondError = [&](const Error &E) {
    Respond(adminStatusForError(E), errorJson(E.str(), &E));
  };
  std::string J;
  JsonWriter W(J);

  if (Head.Method == "POST" && PathOnly == "/admin/patches") {
    if (Body.empty())
      return Respond(400, errorJson("empty patch artifact"));
    // Staging (parse, verify, link prepare, state build) happens on the
    // controller's worker; the commit lands at a pool worker's update
    // point.
    StagedUpdate U = Admin->stageArtifactText(std::string(Body),
                                              "POST /admin/patches");
    W.beginObject().key("tx").value(U.id());
    W.key("phase").value(updatePhaseName(U.phase())).endObject();
    return Respond(202, J);
  }

  if (Head.Method == "GET" && PathOnly == "/admin/updates") {
    W.beginObject().key("log").beginArray();
    // Rendered from a copy: rendering under the log lock would hold up
    // every finalize(), a barrier commit's included, for as long.
    for (const UpdateRecord &R : RT.updateLog())
      writeRecord(W, R);
    W.endArray().key("pending").beginArray();
    for (const UpdateRecord &R : RT.pendingUpdates())
      writeRecord(W, R);
    W.endArray().endObject();
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
    W.beginObject().key("updates_applied").value(RT.updatesApplied());
    W.key("queue_depth").value(RT.queueDepth());
    W.key("update_pending").value(RT.updatePending());
    W.key("pending_commit").value(PendingMode);
    W.key("rolling_commits").value(RT.rollingCommits());
    W.key("epoch_global").value(GlobalEpoch);
    W.key("staging_backlog").value(Admin->backlog());
    W.key("requests_handled").value(Pool ? Pool->requestsServed() : 0);
    W.key("verify_functions_total").value(RT.verifyFunctionsTotal());
    W.key("analysis_findings_total").value(RT.analysisFindingsTotal());
    if (Pool) {
      W.key("workers").value(Pool->workers());
      W.key("barrier_rounds").value(Pool->barrierRounds());
      W.key("worker_state").beginArray();
      for (unsigned I = 0; I != Pool->workers(); ++I) {
        const net::WorkerStats &S = Pool->workerStats(I);
        W.beginObject().key("worker").value(I);
        W.key("state").value(
            net::ReactorPool::workerStateName(Pool->workerState(I)));
        W.key("requests").value(load(S.Requests));
        W.key("connections").value(load(S.Connections));
        W.key("bytes_sent").value(load(S.BytesSent));
        W.key("pauses").value(load(S.Pauses));
        W.key("pause_max_us").value(load(S.PauseMaxUs));
        W.key("epoch").value(Pool->workerEpoch(I));
        W.key("epoch_lag").value(epochLag(*Pool, I, GlobalEpoch));
        W.key("cpu").value(Pool->workerCpu(I)).endObject();
      }
      W.endArray();
    }
    if (Journal) {
      persist::JournalStatus S = Journal->status();
      W.key("journal").beginObject();
      W.key("boots").value(S.Boots);
      W.key("prev_boot").value(prevBootName(S));
      W.key("chain_length").value(S.ChainLength);
      W.key("quarantined").value(S.QuarantinedCount);
      W.key("replayed").value(S.ReplayCommitted);
      W.key("replay_failed").value(S.ReplayFailed);
      W.key("replay_ms").value(S.ReplayMs).endObject();
    }
    W.endObject();
    return Respond(200, J);
  }

  if (Head.Method == "GET" && PathOnly == "/admin/journal") {
    if (!Journal)
      return Respond(404, errorJson("no update journal attached"));
    persist::JournalStatus S = Journal->status();
    W.beginObject().key("boots").value(S.Boots);
    W.key("prev_boot").value(prevBootName(S));
    W.key("chain_length").value(S.ChainLength);
    W.key("quarantined_count").value(S.QuarantinedCount);
    W.key("replay").beginObject();
    W.key("attempted").value(S.ReplayAttempted);
    W.key("committed").value(S.ReplayCommitted);
    W.key("failed").value(S.ReplayFailed);
    W.key("duration_ms").value(S.ReplayMs).endObject();
    W.key("quarantined").beginArray();
    for (const persist::QuarantineInfo &Q : Journal->quarantined()) {
      W.beginObject().key("patch").value(Q.PatchId);
      W.key("hash").value(Q.Hash);
      W.key("crashes").value(Q.CrashCount);
      W.key("seal_seq").value(Q.SealSeq).endObject();
    }
    W.endArray();
    // The full record history is large; ?quarantined=1 serves only the
    // containment table (what `dsu-updatectl quarantine` reads).
    if (queryParam(Target, "quarantined") != "1") {
      W.key("records").beginArray();
      for (const persist::JournalRecord &R : Journal->records())
        writeJournalRecord(W, R);
      W.endArray();
    }
    W.endObject();
    return Respond(200, J);
  }

  if (Head.Method == "GET" && PathOnly == "/admin/metrics")
    return appendHttpResponse(Out, 200, "text/plain; version=0.0.4",
                              renderMetrics(), Head.KeepAlive);

  if (Head.Method == "POST" && PathOnly == "/admin/rollout") {
    if (Body.empty())
      return Respond(400, errorJson("empty patch artifact"));
    RolloutOptions O;
    std::string Bad = parseRolloutOptions(Target, O);
    if (!Bad.empty())
      return Respond(400, errorJson(Bad));
    Expected<uint64_t> Id = rollouts().startArtifactText(
        std::string(Body), "POST /admin/rollout", O);
    if (!Id)
      return RespondError(Id.takeError());
    W.beginObject().key("rollout").value(*Id).endObject();
    return Respond(202, J);
  }

  if (Head.Method == "GET" && PathOnly == "/admin/rollouts") {
    uint64_t Id = 0;
    if (parseUInt(queryParam(Target, "id"), Id)) {
      Expected<RolloutRecord> R = rollouts().rollout(Id);
      if (!R)
        return Respond(404, errorJson(R.takeError().str()));
      writeRollout(W, *R);
      return Respond(200, J);
    }
    W.beginObject().key("rollouts").beginArray();
    for (const RolloutRecord &R : rollouts().rollouts())
      writeRollout(W, R);
    W.endArray().endObject();
    return Respond(200, J);
  }

  if (Head.Method == "POST" && PathOnly == "/admin/rollback") {
    std::string Name(queryParam(Target, "name"));
    if (Name.empty())
      Name = std::string(Body);
    if (Name.empty())
      return Respond(400, errorJson("missing updateable name"));
    // A rolling swing: every worker adopts the restored code at its own
    // next quiescent point, and none parks.
    if (Error E = RT.rollbackUpdateable(Name))
      return RespondError(E);
    W.beginObject().key("rolled_back").value(Name).endObject();
    return Respond(200, J);
  }

  if (Head.Method == "GET" && PathOnly == "/admin/lint") {
    uint64_t Id = 0;
    if (!parseUInt(queryParam(Target, "id"), Id))
      return Respond(400, errorJson("missing or malformed ?id=<tx>"));
    // A tx still queued is in the pending list; finished ones (and
    // analyzer refusals, which never stage) are in the update log.
    std::optional<UpdateRecord> Found;
    auto Match = [&](const UpdateRecord &R) {
      if (R.TxId == Id)
        Found = R;
    };
    for (const UpdateRecord &R : RT.pendingUpdates())
      Match(R);
    RT.forEachUpdate(Match);
    if (!Found)
      return Respond(404, errorJson(formatString(
                              "no update record for tx %" PRIu64, Id)));
    const UpdateRecord &R = *Found;
    W.beginObject().key("tx").value(R.TxId);
    W.key("patch").value(R.PatchId);
    W.key("phase").value(R.Phase);
    W.key("analysis_ran").value(R.AnalysisRan);
    W.key("analysis_ms").value(R.AnalysisMs, 3);
    W.key("code_only_predicted").value(R.CodeOnlyPredicted);
    W.key("findings").beginArray();
    for (const analysis::Finding &F : R.AnalysisFindings)
      analysis::writeFindingJson(W, F);
    W.endArray().endObject();
    return Respond(200, J);
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
      return Respond(400, errorJson("missing or malformed ?id=<tx> "
                                    "(or ?export=chrome)"));
    return Respond(200, trace::spanTreeJson(Id));
  }

  if (Head.Method == "GET" && PathOnly == "/admin/profile") {
    // The response is the closing report of the window ?reset=1 resets.
    uint64_t K = 20;
    parseUInt(queryParam(Target, "k"), K);
    std::string Json = trace::profileJson(static_cast<size_t>(K));
    if (queryParam(Target, "reset") == "1")
      trace::ProfileRegistry::instance().resetAll();
    return Respond(200, Json);
  }

  Respond(404, errorJson("unknown admin endpoint"));
}

// --- GET /admin/metrics -------------------------------------------------

namespace {

/// Opens one metric family: its `# HELP` and `# TYPE` lines.
void family(std::string &T, const char *Name, const char *Type,
            const char *Help) {
  T += formatString("# HELP %s %s\n# TYPE %s %s\n", Name, Help, Name, Type);
}

/// A family with one unlabelled sample.
void scalar(std::string &T, const char *Name, const char *Type,
            const char *Help, uint64_t Value) {
  family(T, Name, Type, Help);
  T += formatString("%s %" PRIu64 "\n", Name, Value);
}

/// Emits one histogram's `_bucket`/`_sum`/`_count` series on the shared
/// bucket ladder (support/Histogram.h).  \p Labels is empty or a
/// ready-made label list *without* the `le` label (e.g. `worker="0"`).
/// The exposition invariant that the `+Inf` bucket equals `_count`
/// holds by construction: both lines print the same cumulative sum of
/// the bucket loads, rather than a separately maintained count that may
/// have advanced between the two reads.
void emitHistogram(std::string &T, const char *Name,
                   const std::string &Labels, const LatencyBuckets &Buckets,
                   uint64_t SumUs) {
  const char *Sep = Labels.empty() ? "" : ",";
  uint64_t Cum = 0;
  for (size_t B = 0; B != NumLatencyBuckets; ++B) {
    Cum += load(Buckets[B]);
    std::string Le = B + 1 == NumLatencyBuckets
                         ? std::string("+Inf")
                         : formatString("%" PRIu64, LatencyBucketUs[B]);
    T += formatString("%s_bucket{%s%sle=\"%s\"} %" PRIu64 "\n", Name,
                      Labels.c_str(), Sep, Le.c_str(), Cum);
  }
  std::string Braced = Labels.empty() ? "" : "{" + Labels + "}";
  T += formatString("%s_sum%s %" PRIu64 "\n", Name, Braced.c_str(), SumUs);
  T += formatString("%s_count%s %" PRIu64 "\n", Name, Braced.c_str(), Cum);
}

} // namespace

std::string FlashedApp::renderMetrics() const {
  std::string T;
  scalar(T, "dsu_requests_total", "counter", "Requests handled by the app.",
         Pool ? Pool->requestsServed() : 0);
  scalar(T, "dsu_updates_applied_total", "counter",
         "Committed dynamic updates.", RT.updatesApplied());
  scalar(T, "dsu_rolling_commits_total", "counter",
         "Code-only updates committed without the cross-worker barrier.",
         RT.rollingCommits());
  scalar(T, "dsu_verify_functions_total", "counter",
         "VTAL functions checked by the load-time verifier.",
         RT.verifyFunctionsTotal());
  scalar(T, "dsu_analysis_findings_total", "counter",
         "Findings produced by the whole-patch update-safety analyzer.",
         RT.analysisFindingsTotal());
  scalar(T, "dsu_epoch_global", "gauge",
         "The reclamation domain's global epoch.",
         epoch::domain().globalEpoch());
  // The same samples as dsu_update_phase_us{phase="queue_wait"}, kept
  // under the update-latency SLO's own name.
  const LatencyHistogram &S2C =
      trace::phaseHistogram(trace::Phase::QueueWait);
  family(T, "dsu_stage_to_commit_us", "histogram",
         "Staging-complete to commit latency of dynamic updates, "
         "microseconds.");
  emitHistogram(T, "dsu_stage_to_commit_us", "", S2C.Buckets,
                load(S2C.TotalUs));

  trace::ProfileRegistry::Totals P =
      trace::ProfileRegistry::instance().totals();
  scalar(T, "dsu_vtal_calls_total", "counter",
         "VTAL function activations observed by the profiler.", P.Calls);
  scalar(T, "dsu_vtal_fuel_total", "counter",
         "Fuel burned by VTAL code (deterministic interpreter cost units).",
         P.Fuel);
  scalar(T, "dsu_vtal_traps_total", "counter",
         "VTAL activations that trapped.", P.Traps);

  family(T, "dsu_update_phase_us", "histogram",
         "Update-pipeline phase latency, microseconds, by phase.");
  for (unsigned Ph = 0; Ph != static_cast<unsigned>(trace::Phase::NumPhases);
       ++Ph) {
    trace::Phase Phase = static_cast<trace::Phase>(Ph);
    const LatencyHistogram &H = trace::phaseHistogram(Phase);
    emitHistogram(T, "dsu_update_phase_us",
                  formatString("phase=\"%s\"", trace::phaseName(Phase)),
                  H.Buckets, load(H.TotalUs));
  }
  if (!Pool)
    return T;

  scalar(T, "dsu_barrier_rounds_total", "counter",
         "Completed cross-worker update barriers.", Pool->barrierRounds());
  auto PerWorker = [&](const char *Name, const char *Type, const char *Help,
                       auto ValueOf) {
    family(T, Name, Type, Help);
    for (unsigned I = 0; I != Pool->workers(); ++I)
      T += formatString("%s{worker=\"%u\"} %" PRIu64 "\n", Name, I,
                        ValueOf(I));
  };
  auto Stat = [&](std::atomic<uint64_t> net::WorkerStats::*Field) {
    return [this, Field](unsigned I) {
      return load(Pool->workerStats(I).*Field);
    };
  };
  PerWorker("dsu_worker_requests_total", "counter",
            "Requests served per worker.", Stat(&net::WorkerStats::Requests));
  PerWorker("dsu_worker_connections_total", "counter",
            "Connections accepted per worker.",
            Stat(&net::WorkerStats::Connections));
  PerWorker("dsu_worker_bytes_sent_total", "counter",
            "Bytes written per worker.", Stat(&net::WorkerStats::BytesSent));
  uint64_t GlobalEpoch = epoch::domain().globalEpoch();
  PerWorker("dsu_worker_epoch_lag", "gauge",
            "How far each worker's announced epoch trails the global epoch "
            "(rises while a worker is stuck mid-request).",
            [&](unsigned I) { return epochLag(*Pool, I, GlobalEpoch); });
  PerWorker("dsu_worker_commits_total", "counter",
            "Barrier rounds this worker committed (it was the last "
            "arrival).",
            Stat(&net::WorkerStats::Commits));

  family(T, "dsu_update_pause_us", "histogram",
         "Update-barrier park duration per worker, microseconds.");
  for (unsigned I = 0; I != Pool->workers(); ++I) {
    const net::WorkerStats &S = Pool->workerStats(I);
    emitHistogram(T, "dsu_update_pause_us", formatString("worker=\"%u\"", I),
                  S.PauseBuckets, load(S.PauseTotalUs));
  }
  family(T, "dsu_request_duration_us", "histogram",
         "Request handler latency per worker, microseconds.");
  for (unsigned I = 0; I != Pool->workers(); ++I) {
    const net::WorkerStats &S = Pool->workerStats(I);
    emitHistogram(T, "dsu_request_duration_us",
                  formatString("worker=\"%u\"", I), S.ServeBuckets,
                  load(S.ServeTotalUs));
  }
  return T;
}

RolloutController &FlashedApp::rollouts() {
  std::lock_guard<std::mutex> G(RolloutLock);
  if (!Rollout) {
    // The controller gets the serving plane as hooks: worker counters
    // to gate on.  Without a pool the hooks stay empty and every
    // rollout commits ungated, judged on absolute rates.
    RolloutController::Hooks H;
    if (net::ReactorPool *P = Pool) {
      H.WorkerCount = [P] { return static_cast<size_t>(P->workers()); };
      H.Stats = [P](size_t I) {
        return &P->workerStats(static_cast<unsigned>(I));
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
