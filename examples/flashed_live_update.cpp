//===- examples/flashed_live_update.cpp - The paper's headline demo -*- C++ -*-//
///
/// \file
/// FlashEd end to end: an event-driven web server (a 1-worker reactor
/// pool) keeps serving while the full P1..P5 patch series is applied
/// through its update point.  This is the PLDI 2001 evaluation scenario
/// in one binary: every request before, during and after each update is
/// answered on one persistent connection; behaviour changes between
/// requests, never within one.  Exits 1 unless the first request after
/// P1 and after P2 already shows the patched behaviour.
///
//===----------------------------------------------------------------------===//

#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/Patches.h"
#include "net/ReactorPool.h"
#include "runtime/UpdateController.h"

#include <cstdio>
#include <thread>

using namespace dsu;
using namespace dsu::flashed;

namespace {

/// Fetches \p Target and prints its status line; a failed fetch prints
/// the error and returns Status 0.
FetchResult show(const char *Label, KeepAliveClient &C,
                 const std::string &Target) {
  Expected<FetchResult> R = C.get(Target);
  if (!R) {
    std::printf("  %-34s -> error: %s\n", Target.c_str(),
                R.error().str().c_str());
    return FetchResult();
  }
  std::string FirstLine = R->Headers.substr(0, R->Headers.find('\r'));
  std::printf("  %-34s -> %s  [%zu bytes] (%s)\n", Target.c_str(),
              FirstLine.c_str(), R->Body.size(), Label);
  return std::move(*R);
}

} // namespace

int main() {
  Runtime RT;
  FlashedApp App(RT);

  DocStore Docs;
  Docs.put("/index.html", "<html><h1>FlashEd</h1></html>");
  Docs.put("/paper.html", "<html>Dynamic Software Updating</html>");
  Docs.put("/style.css", "h1 { color: teal }");
  cantFail(App.init(std::move(Docs)), "init");

  net::ReactorPool Srv([&App](const RequestHead &Head, std::string_view Raw,
                              std::string &Out, SharedBody &Body) {
    App.handleInto(Head, Raw, Out, Body);
  });
  Srv.setUpdateRuntime(RT); // the worker's update point commits patches
  // A staged patch wakes the worker, so it commits without waiting out
  // a poll timeout.
  RT.controller().setOnStaged(Srv.wakeCallback());
  cantFail(Srv.start(), "start");
  std::printf("FlashEd serving on 127.0.0.1:%u\n\n", Srv.port());
  KeepAliveClient C;
  cantFail(C.connectTo(Srv.port()), "connect");

  bool Ok = true;
  auto check = [&Ok](bool Cond, const char *What) {
    if (!Cond) {
      std::printf("  FAIL: %s\n", What);
      Ok = false;
    }
  };

  auto applyAndWait = [&](Expected<Patch> P, const char *Name) {
    Patch Patch = cantFail(std::move(P), Name);
    unsigned Want = RT.updatesApplied() + 1;
    // Stage asynchronously on the controller's worker; the pool worker
    // commits at its next (quiescent) update point.
    RT.controller().stagePatch(std::move(Patch));
    while (RT.updatesApplied() < Want)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    UpdateRecord Rec = RT.updateLog().back();
    std::printf("\n== applied %s (staged %.3fms off-thread: verify %.3f "
                "prepare %.3f build %.3f; serving pause %.3fms%s, %zu "
                "cells)\n",
                Rec.PatchId.c_str(), Rec.StageMs, Rec.VerifyMs,
                Rec.PrepareMs, Rec.BuildMs, Rec.CommitMs,
                Rec.StateRebuilt ? " [state rebuilt]" : "",
                Rec.CellsMigrated);
  };

  std::printf("-- version 1 behaviour\n");
  show("works", C, "/index.html");
  show("v1 bug: query string defeats lookup", C,
       "/paper.html?ref=pldi01");
  show("v1: css is octet-stream", C, "/style.css");

  applyAndWait(makePatchP1(App), "P1");
  check(show("query strings fixed, server never stopped", C,
             "/paper.html?ref=pldi01")
                .Status == 200,
        "P1: /paper.html?ref=pldi01 did not answer 200");

  applyAndWait(makePatchP2(App), "P2");
  FetchResult Css = show("css typed properly now", C, "/style.css");
  check(Css.Headers.find("Content-Type: text/css") != std::string::npos,
        "P2: /style.css was not served as text/css");

  // Warm the cache, then migrate its representation live.
  show("warming cache", C, "/paper.html");
  applyAndWait(makePatchP3(App), "P3");
  show("served from the *migrated* cache", C, "/paper.html");
  {
    auto Stats = cantFail(bindUpdateable<SharedStr()>(
                              RT.updateables(), RT.types(),
                              "flashed.cache_stats"),
                          "cache_stats");
    std::printf("  cache stats (new fn from P3): %s\n", Stats().c_str());
  }

  applyAndWait(makePatchP4(App), "P4");
  applyAndWait(makePatchP5(App), "P5");
  show("still serving after 5 live updates", C, "/index.html");
  {
    auto Count = cantFail(bindUpdateable<int64_t()>(RT.updateables(),
                                                    RT.types(),
                                                    "flashed.log_count"),
                          "log_count");
    auto Recent = cantFail(bindUpdateable<SharedStr()>(
                               RT.updateables(), RT.types(),
                               "flashed.log_recent"),
                           "log_recent");
    std::printf("  access log (new subsystem from P5): %lld entries\n",
                static_cast<long long>(Count()));
    std::printf("%s", Recent().c_str());
  }

  std::printf("\ntotal requests served across all versions: %llu\n",
              static_cast<unsigned long long>(Srv.requestsServed()));
  Srv.stop();
  return Ok ? 0 : 1;
}
