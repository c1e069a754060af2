//===- tools/dsu-updatectl.cpp - Remote update control CLI ----*- C++ -*-===//
///
/// \file
/// Drives a running FlashEd server's /admin control plane, closing the
/// build -> ship -> hot-load loop end to end:
///
///   dsu-updatectl stage    <port> <patch-file>   POST the artifact; the
///                                                server stages it off-thread
///                                                and commits at its next
///                                                idle update point
///   dsu-updatectl log      <port>                GET the update log (JSON:
///                                                phase, stage/commit timings,
///                                                failure reasons); analyzed
///                                                updates get an analyzer
///                                                verdict summary on stderr
///   dsu-updatectl lint     <port> <tx-id>        GET /admin/lint?id=N — the
///                                                update-safety analyzer's
///                                                full finding list for one
///                                                transaction
///   dsu-updatectl status   <port> [--workers]    GET counters + queue depth;
///                                                --workers requires the
///                                                per-worker state array (a
///                                                reactor pool attached) and
///                                                fails when absent
///   dsu-updatectl metrics  <port>                GET /admin/metrics (the
///                                                text exposition: per-worker
///                                                counters, pause + epoch +
///                                                stage->commit histograms)
///   dsu-updatectl rollback <port> <updateable>   roll one function back;
///                                                a 503 means "busy, retry"
///   dsu-updatectl history  <port>                GET /admin/journal — the
///                                                durable update journal's
///                                                decoded record history
///                                                (boots, intents, seals,
///                                                replay + quarantine state);
///                                                404 when the server runs
///                                                without a journal
///   dsu-updatectl quarantine <port>              GET /admin/journal
///                                                ?quarantined=1 — just the
///                                                crash-loop quarantine table
///   dsu-updatectl rollout  <port> <patch-file>   drive the patch through a
///                                                metric-gated canary rollout
///                                                and wait for the verdict;
///                                                flags: --canary-workers N,
///                                                --window-ms N,
///                                                --max-error-delta F,
///                                                --max-latency-delta-us F,
///                                                --min-samples N,
///                                                --max-canary-traps N
///   dsu-updatectl trace    <port> <tx-id>        GET /admin/trace?id=N — the
///                                                flight recorder's span tree
///                                                for one update (staging,
///                                                per-function verify, queue
///                                                wait, commit parks/adoptions
///                                                per worker, rollout gates,
///                                                journal fsyncs);
///                                                --chrome dumps the whole
///                                                recorder as Chrome
///                                                trace-event JSON instead
///                                                (load in Perfetto)
///   dsu-updatectl profile  <port>                GET /admin/profile — the
///                                                VTAL hot-function ranking
///                                                (calls, self-fuel, traps,
///                                                sampled self-time); flags:
///                                                --top N (0 = all),
///                                                --reset (zero the window
///                                                after reporting)
///
/// Every command accepts --timeout-ms N (bounds each socket send/receive
/// so a wedged server cannot hang the operator) and retries 503 "busy"
/// answers with capped exponential backoff, honouring the server's
/// Retry-After hint.
///
/// Exit status: 0 on 2xx (for rollout: promoted), 1 on a rolled-back or
/// failed rollout (the deploy was rejected — the operator must know),
/// 2 on usage errors, 3 when the server cannot be reached at all, 4 when
/// the connection is lost (or times out) mid-command, and the HTTP
/// status class (4, 5) otherwise; `status --workers` against a poolless
/// server exits 1.
///
//===----------------------------------------------------------------------===//

#include "flashed/Client.h"
#include "support/MemoryBuffer.h"
#include "support/StringUtil.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace dsu;
using namespace dsu::flashed;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s stage <port> <patch-file>\n"
      "       %s log <port>\n"
      "       %s lint <port> <tx-id>\n"
      "       %s status <port> [--workers]\n"
      "       %s metrics <port>\n"
      "       %s history <port>\n"
      "       %s quarantine <port>\n"
      "       %s rollback <port> <updateable-name>\n"
      "       %s rollout <port> <patch-file> [--canary-workers N]\n"
      "           [--window-ms N] [--max-error-delta F]\n"
      "           [--max-latency-delta-us F] [--min-samples N]\n"
      "           [--max-canary-traps N]\n"
      "       %s trace <port> <tx-id> | trace <port> --chrome\n"
      "       %s profile <port> [--top N] [--reset]\n"
      "common flags: --timeout-ms N\n",
      Argv0, Argv0, Argv0, Argv0, Argv0, Argv0, Argv0, Argv0, Argv0, Argv0,
      Argv0);
  return 2;
}

/// Exit code for a request that failed at the transport layer: 3 when
/// the server was never reachable this command, 4 when the connection
/// died (or timed out) after the command was already under way — the
/// distinction between "server down" and "command outcome unknown".
int transportExit(const Error &E, bool MidCommand) {
  std::fprintf(stderr, "error: %s\n", E.str().c_str());
  return MidCommand || E.code() == ErrorCode::EC_Timeout ? 4 : 3;
}

int finish(Expected<FetchResult> R, bool MidCommand = false) {
  if (!R)
    return transportExit(R.error(), MidCommand);
  std::printf("%s\n", R->Body.c_str());
  if (R->Status >= 200 && R->Status < 300)
    return 0;
  std::fprintf(stderr, "HTTP %d\n", R->Status);
  return R->Status / 100;
}

/// Pulls `"Key": <number>` out of a flat JSON body (the control plane
/// writes every body through support/Json.h, so the spacing is exact).
bool jsonNumber(const std::string &Body, const char *Key, uint64_t &Out) {
  std::string Needle = std::string("\"") + Key + "\": ";
  size_t At = Body.find(Needle);
  if (At == std::string::npos)
    return false;
  return parseUInt(
      std::string_view(Body).substr(At + Needle.size(),
                                    Body.find_first_of(",}", At) -
                                        (At + Needle.size())),
      Out);
}

/// Pulls `"Key": "value"` out of a flat JSON body.
std::string jsonString(const std::string &Body, const char *Key) {
  std::string Needle = std::string("\"") + Key + "\": \"";
  size_t At = Body.find(Needle);
  if (At == std::string::npos)
    return "";
  size_t Start = At + Needle.size();
  size_t End = Body.find('"', Start);
  return End == std::string::npos ? "" : Body.substr(Start, End - Start);
}

struct RolloutFlags {
  std::string Query;
  uint64_t StageTimeoutMs = 10000;
  uint64_t WindowMs = 500;
};

/// Drives POST /admin/rollout + GET /admin/rollouts?id=N to the verdict.
int runRollout(KeepAliveClient &C, const std::string &Artifact,
               const RolloutFlags &F) {
  Expected<FetchResult> Posted = C.postWithRetry(
      "/admin/rollout" + F.Query, Artifact, "application/x-dsu-patch");
  if (!Posted)
    return transportExit(Posted.error(), /*MidCommand=*/true);
  if (Posted->Status != 202) {
    std::printf("%s\n", Posted->Body.c_str());
    std::fprintf(stderr, "HTTP %d\n", Posted->Status);
    return Posted->Status / 100;
  }
  uint64_t Id = 0;
  if (!jsonNumber(Posted->Body, "rollout", Id)) {
    std::fprintf(stderr, "error: no rollout id in: %s\n",
                 Posted->Body.c_str());
    return 4;
  }
  std::fprintf(stderr, "rollout %llu started; observing...\n",
               static_cast<unsigned long long>(Id));

  // Poll until the state machine resolves.  Budget: staging deadline +
  // observation window + generous scheduling margin.
  std::string Target =
      "/admin/rollouts?id=" + std::to_string(Id);
  uint64_t BudgetMs = F.StageTimeoutMs + F.WindowMs + 30000;
  for (uint64_t WaitedMs = 0;; WaitedMs += 50) {
    Expected<FetchResult> R = C.get(Target);
    if (!R)
      return transportExit(R.error(), /*MidCommand=*/true);
    if (R->Status != 200) {
      std::printf("%s\n", R->Body.c_str());
      std::fprintf(stderr, "HTTP %d\n", R->Status);
      return R->Status / 100;
    }
    std::string State = jsonString(R->Body, "state");
    if (State == "promoted" || State == "rolled-back" || State == "failed") {
      std::printf("%s\n", R->Body.c_str());
      std::string Reason = jsonString(R->Body, "reason");
      std::fprintf(stderr, "rollout %llu: %s%s%s\n",
                   static_cast<unsigned long long>(Id), State.c_str(),
                   Reason.empty() ? "" : " — ", Reason.c_str());
      return State == "promoted" ? 0 : 1;
    }
    if (WaitedMs >= BudgetMs) {
      std::printf("%s\n", R->Body.c_str());
      std::fprintf(stderr, "error: rollout %llu still '%s' after %llu ms\n",
                   static_cast<unsigned long long>(Id), State.c_str(),
                   static_cast<unsigned long long>(WaitedMs));
      return 4;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 3)
    return usage(argv[0]);
  const char *Cmd = argv[1];
  uint16_t Port = static_cast<uint16_t>(std::atoi(argv[2]));
  if (Port == 0) {
    std::fprintf(stderr, "error: bad port '%s'\n", argv[2]);
    return 2;
  }

  // Peel the common --timeout-ms flag (anywhere after the command) and
  // collect the rest as positional/command-specific arguments.
  uint64_t TimeoutMs = 0;
  std::vector<std::string> Args;
  for (int I = 3; I < argc; ++I) {
    if (std::strcmp(argv[I], "--timeout-ms") == 0 && I + 1 < argc) {
      TimeoutMs = std::strtoull(argv[++I], nullptr, 10);
      continue;
    }
    Args.push_back(argv[I]);
  }

  KeepAliveClient C;
  C.setTimeoutMs(TimeoutMs);
  if (Error E = C.connectTo(Port))
    return transportExit(E, /*MidCommand=*/false);

  if (std::strcmp(Cmd, "stage") == 0) {
    if (Args.empty())
      return usage(argv[0]);
    Expected<std::string> Artifact = readFile(Args[0].c_str());
    if (!Artifact) {
      std::fprintf(stderr, "error: %s\n", Artifact.error().str().c_str());
      return 2;
    }
    return finish(C.postWithRetry("/admin/patches", *Artifact,
                                  "application/x-dsu-patch"),
                  /*MidCommand=*/true);
  }
  if (std::strcmp(Cmd, "log") == 0) {
    Expected<FetchResult> R = C.get("/admin/updates");
    if (R && R->Status >= 200 && R->Status < 300) {
      // Sum the analyzer's flat verdict fields across the whole log so
      // one glance at stderr says whether any update carried findings.
      uint64_t Errors = 0, Warnings = 0;
      size_t Analyzed = 0;
      const std::string &B = R->Body;
      const char *EKey = "\"analysis_errors\": ";
      const char *WKey = "\"analysis_warnings\": ";
      for (size_t At = B.find(EKey); At != std::string::npos;
           At = B.find(EKey, At + 1)) {
        ++Analyzed;
        Errors += std::strtoull(B.c_str() + At + std::strlen(EKey),
                                nullptr, 10);
      }
      for (size_t At = B.find(WKey); At != std::string::npos;
           At = B.find(WKey, At + 1))
        Warnings += std::strtoull(B.c_str() + At + std::strlen(WKey),
                                  nullptr, 10);
      if (Analyzed)
        std::fprintf(stderr,
                     "analysis: %zu update(s) analyzed, %llu error / "
                     "%llu warning finding(s)\n",
                     Analyzed, static_cast<unsigned long long>(Errors),
                     static_cast<unsigned long long>(Warnings));
    }
    return finish(std::move(R), /*MidCommand=*/true);
  }
  if (std::strcmp(Cmd, "lint") == 0) {
    if (Args.empty())
      return usage(argv[0]);
    return finish(C.get("/admin/lint?id=" + Args[0]), /*MidCommand=*/true);
  }
  if (std::strcmp(Cmd, "status") == 0) {
    bool WantWorkers = !Args.empty() && Args[0] == "--workers";
    Expected<FetchResult> R = C.get("/admin/status");
    // --workers asserts the multi-core serving plane is attached: the
    // per-worker state array is how operators see parked/stuck workers
    // and per-worker epoch lag.
    bool MissingWorkers =
        WantWorkers && R &&
        R->Body.find("\"worker_state\"") == std::string::npos;
    int Code = finish(std::move(R), /*MidCommand=*/true);
    if (Code == 0 && MissingWorkers) {
      std::fprintf(stderr,
                   "error: no per-worker state (no reactor pool attached)\n");
      return 1;
    }
    return Code;
  }
  if (std::strcmp(Cmd, "metrics") == 0)
    return finish(C.get("/admin/metrics"), /*MidCommand=*/true);
  if (std::strcmp(Cmd, "trace") == 0) {
    if (Args.empty())
      return usage(argv[0]);
    if (Args[0] == "--chrome")
      return finish(C.get("/admin/trace?export=chrome"),
                    /*MidCommand=*/true);
    return finish(C.get("/admin/trace?id=" + Args[0]), /*MidCommand=*/true);
  }
  if (std::strcmp(Cmd, "profile") == 0) {
    std::string Query;
    bool Reset = false;
    for (size_t I = 0; I < Args.size(); ++I) {
      if (Args[I] == "--top" && I + 1 < Args.size())
        Query = "?k=" + Args[++I];
      else if (Args[I] == "--reset")
        Reset = true;
      else {
        std::fprintf(stderr, "error: unknown profile flag '%s'\n",
                     Args[I].c_str());
        return usage(argv[0]);
      }
    }
    if (Reset)
      Query += Query.empty() ? "?reset=1" : "&reset=1";
    return finish(C.get("/admin/profile" + Query), /*MidCommand=*/true);
  }
  if (std::strcmp(Cmd, "history") == 0)
    return finish(C.get("/admin/journal"), /*MidCommand=*/true);
  if (std::strcmp(Cmd, "quarantine") == 0)
    return finish(C.get("/admin/journal?quarantined=1"), /*MidCommand=*/true);
  if (std::strcmp(Cmd, "rollback") == 0) {
    if (Args.empty())
      return usage(argv[0]);
    return finish(C.postWithRetry("/admin/rollback?name=" + Args[0], "",
                                  "text/plain"),
                  /*MidCommand=*/true);
  }
  if (std::strcmp(Cmd, "rollout") == 0) {
    if (Args.empty())
      return usage(argv[0]);
    Expected<std::string> Artifact = readFile(Args[0].c_str());
    if (!Artifact) {
      std::fprintf(stderr, "error: %s\n", Artifact.error().str().c_str());
      return 2;
    }
    RolloutFlags F;
    std::string Query;
    auto Append = [&Query](const char *Key, const std::string &Val) {
      Query += Query.empty() ? '?' : '&';
      Query += Key;
      Query += '=';
      Query += Val;
    };
    for (size_t I = 1; I < Args.size(); ++I) {
      const std::string &A = Args[I];
      std::string V = I + 1 < Args.size() ? Args[I + 1] : "";
      if (A == "--canary-workers")
        Append("canary_workers", V);
      else if (A == "--window-ms") {
        Append("window_ms", V);
        F.WindowMs = std::strtoull(V.c_str(), nullptr, 10);
      } else if (A == "--max-error-delta")
        Append("max_error_delta", V);
      else if (A == "--max-latency-delta-us")
        Append("max_latency_delta_us", V);
      else if (A == "--min-samples")
        Append("min_samples", V);
      else if (A == "--max-canary-traps")
        Append("max_canary_traps", V);
      else if (A == "--stage-timeout-ms") {
        Append("stage_timeout_ms", V);
        F.StageTimeoutMs = std::strtoull(V.c_str(), nullptr, 10);
      } else {
        std::fprintf(stderr, "error: unknown rollout flag '%s'\n", A.c_str());
        return usage(argv[0]);
      }
      ++I; // consumed the value
    }
    F.Query = std::move(Query);
    return runRollout(C, *Artifact, F);
  }
  return usage(argv[0]);
}
