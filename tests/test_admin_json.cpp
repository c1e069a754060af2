//===- tests/test_admin_json.cpp - Admin JSON conformance -----*- C++ -*-===//
///
/// The JSON analogue of test_metrics.cpp: drives a fixed scenario on a
/// 2-worker FlashEd pool with an update journal attached, then parses
/// EVERY JSON body the /admin control plane serves with a strict
/// validator and pins, for each body, the ordered list of keys of every
/// object in it.  All bodies except /admin/trace and /admin/profile are
/// also pinned to the one separator style (`"k": v`, `", "`), which
/// dsu-updatectl's flat field readers depend on.

#include "JsonValidator.h"

#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/Patches.h"
#include "net/ReactorPool.h"
#include "persist/Journal.h"
#include "runtime/UpdateController.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>
#include <unistd.h>

using namespace dsu;
using namespace dsu::flashed;
using dsu::testjson::JsonValidator;
using dsu::testjson::Keys;

namespace {

constexpr unsigned kWorkers = 2;

/// A benign code-only patch for the rollout endpoints: map_url becomes
/// a passthrough (the scenario never requests "/").
const char *MapUrlPatch = R"dsu(
(patch
  (id "admin-json-map-url")
  (description "map_url passthrough")
  (provides
    (fn (name "flashed.map_url")
        (type "fn(string) -> string")
        (vtal-fn "map_url")))
  (vtal-module
"module admin_json
func map_url (target: string) -> string {
  load target
  ret
}"))
)dsu";

const Keys RecordKeys = {
    "tx",          "patch",          "phase",          "stage_ms",
    "commit_ms",   "verify_ms",      "prepare_ms",     "build_ms",
    "total_ms",    "cells_migrated", "provides",       "state_rebuilt",
    "commit_mode", "stage_to_commit_us"};
const Keys AnalysisKeys = {"analysis_errors", "analysis_warnings",
                           "analysis_ms", "code_only_predicted",
                           "analysis_codes"};
const Keys RolloutKeys = {"id",        "tx",        "patch",     "state",
                          "verdict",   "canary_mask", "window_ms",
                          "detect_ms", "revert_ms", "canary",    "control"};
const Keys FindingKeys = {"severity", "code", "message", "fn"};
const Keys ErrorKeys = {"error"};
const Keys RetryableErrorKeys = {"error", "retryable"};

Keys concat(Keys A, const Keys &B) {
  A.insert(A.end(), B.begin(), B.end());
  return A;
}

class AdminJsonTest : public ::testing::Test {
protected:
  void SetUp() override {
    trace::Recorder::instance().clear();
    // A journal whose previous run crashed mid-update, so the
    // quarantine table and every record kind have an entry.
    Dir = ::testing::TempDir() + "dsu_admin_json_" +
          std::to_string(static_cast<unsigned>(::getpid()));
    std::system(("rm -rf '" + Dir + "'").c_str());
    persist::UpdateJournal::Options JO;
    JO.Sync = false;
    JO.QuarantineAfter = 1;
    {
      Expected<std::unique_ptr<persist::UpdateJournal>> J =
          persist::UpdateJournal::open(Dir, JO);
      ASSERT_TRUE(J) << J.takeError().str();
      (*J)->beginBoot("");
      ASSERT_TRUE((*J)->appendIntent("crashed-patch", "(patch)",
                                     persist::IntentOrigin::Operator));
    }
    Expected<std::unique_ptr<persist::UpdateJournal>> J =
        persist::UpdateJournal::open(Dir, JO);
    ASSERT_TRUE(J) << J.takeError().str();
    Journal = std::move(*J);
    Journal->beginBoot("signal 9");

    DocStore Docs;
    Docs.put("/doc.html", "<html>doc</html>");
    ASSERT_FALSE(App.init(std::move(Docs)));
    RT.attachJournal(Journal.get());
    App.enableAdmin(RT.controller());
    App.attachJournal(*Journal);

    net::PoolOptions O;
    O.Workers = kWorkers;
    O.PollTimeoutMs = 2;
    Pool = std::make_unique<net::ReactorPool>(
        [this](const RequestHead &Head, std::string_view Raw,
               std::string &Out, SharedBody &Body) {
          App.handleInto(Head, Raw, Out, Body);
        },
        O);
    Pool->setUpdateRuntime(RT);
    App.attachPool(*Pool);
    ASSERT_FALSE(Pool->start());
  }

  void TearDown() override {
    if (Pool) {
      App.rollouts().waitIdle();
      Pool->stop();
    }
    RT.attachJournal(nullptr);
  }

  /// One admin exchange: checks the status and that the body is JSON.
  JsonValidator fetch(const std::string &Method, const std::string &Target,
                      int Status, const std::string &Body = "") {
    Expected<FetchResult> R =
        Method == "GET" ? httpGet(Pool->port(), Target)
                        : httpPost(Pool->port(), Target, Body, "text/plain");
    JsonValidator V;
    EXPECT_TRUE(R) << Target << ": " << R.takeError().str();
    if (!R)
      return V;
    EXPECT_EQ(R->Status, Status) << Method << " " << Target << ": "
                                 << R->Body;
    EXPECT_NE(R->Headers.find("application/json"), std::string::npos)
        << Target << ": " << R->Headers;
    EXPECT_TRUE(V.parse(R->Body))
        << Target << ": invalid JSON at byte " << V.ErrorAt << ": "
        << R->Body;
    LastBody = R->Body;
    LastHeaders = R->Headers;
    return V;
  }

  /// Every object at \p Path has exactly the keys \p Want, in order,
  /// and there is at least one.
  static void expectEvery(const JsonValidator &V, const std::string &Path,
                          const Keys &Want) {
    auto It = V.Shapes.find(Path);
    ASSERT_NE(It, V.Shapes.end()) << "no object at '" << Path << "'";
    for (const Keys &K : It->second)
      EXPECT_EQ(K, Want) << "at '" << Path << "'";
  }

  /// Every object at \p Path has one of the key lists \p Alternatives.
  static void expectEach(const JsonValidator &V, const std::string &Path,
                         const std::vector<Keys> &Alternatives) {
    auto It = V.Shapes.find(Path);
    if (It == V.Shapes.end())
      return;
    for (const Keys &K : It->second) {
      bool Match = false;
      for (const Keys &A : Alternatives)
        Match = Match || K == A;
      std::string Got;
      for (const std::string &S : K)
        Got += S + " ";
      EXPECT_TRUE(Match) << "at '" << Path << "': " << Got;
    }
  }

  void waitFor(const std::function<bool()> &Pred, const char *What) {
    for (int Spin = 0; Spin != 5000 && !Pred(); ++Spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(Pred()) << "timed out waiting for " << What;
  }

  size_t seals() const {
    size_t N = 0;
    for (const persist::JournalRecord &R : Journal->records())
      N += R.Kind == persist::RecordKind::Seal;
    return N;
  }

  Runtime RT;
  FlashedApp App{RT};
  std::string Dir;
  std::unique_ptr<persist::UpdateJournal> Journal;
  std::unique_ptr<net::ReactorPool> Pool;
  std::string LastBody, LastHeaders;
};

TEST_F(AdminJsonTest, EveryBodyParsesWithPinnedKeys) {
  // --- POST /admin/patches: 400, then 202 and the commit.
  JsonValidator V = fetch("POST", "/admin/patches", 400);
  expectEvery(V, "", ErrorKeys);
  EXPECT_TRUE(V.Canonical) << LastBody;
  V = fetch("POST", "/admin/patches", 202, vtalParseFixPatchText());
  expectEvery(V, "", {"tx", "phase"});
  EXPECT_TRUE(V.Canonical) << LastBody;
  waitFor([&] { return RT.updatesApplied() >= 1; }, "the parse fix");
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(httpGet(Pool->port(), "/doc.html?x=1")->Status, 200);

  // --- POST /admin/rollout: 202, then a 503 while it is in flight.
  V = fetch("POST", "/admin/rollout?window_ms=300", 202, MapUrlPatch);
  expectEvery(V, "", {"rollout"});
  EXPECT_TRUE(V.Canonical) << LastBody;
  V = fetch("POST", "/admin/rollout?window_ms=300", 503, MapUrlPatch);
  expectEvery(V, "", RetryableErrorKeys);
  EXPECT_TRUE(V.Canonical) << LastBody;
  EXPECT_NE(LastHeaders.find("Retry-After: 0\r\n"), std::string::npos)
      << LastHeaders;
  waitFor([&] { return !App.rollouts().busy() && seals() >= 5; },
          "the rollout verdict and its journal seal");

  // --- GET /admin/updates: the parse fix, then the rollout's tx.
  V = fetch("GET", "/admin/updates", 200);
  EXPECT_TRUE(V.Canonical) << LastBody;
  expectEvery(V, "", {"log", "pending"});
  Keys Direct = concat(RecordKeys, AnalysisKeys);
  Keys ViaRollout = concat(concat(RecordKeys, {"rollout"}), AnalysisKeys);
  EXPECT_EQ(V.Shapes["log[]"], (std::vector<Keys>{Direct, ViaRollout}))
      << LastBody;
  EXPECT_EQ(V.Shapes.count("pending[]"), 0u);

  // --- GET /admin/status, with the pool and the journal attached.
  V = fetch("GET", "/admin/status", 200);
  EXPECT_TRUE(V.Canonical) << LastBody;
  expectEvery(V, "",
              {"updates_applied", "queue_depth", "update_pending",
               "pending_commit", "rolling_commits", "epoch_global",
               "staging_backlog", "requests_handled",
               "verify_functions_total", "analysis_findings_total",
               "workers", "barrier_rounds", "worker_state", "journal"});
  expectEvery(V, "worker_state[]",
              {"worker", "state", "requests", "connections", "bytes_sent",
               "pauses", "pause_max_us", "epoch", "epoch_lag", "cpu"});
  EXPECT_EQ(V.Shapes["worker_state[]"].size(), kWorkers);
  expectEvery(V, "journal",
              {"boots", "prev_boot", "chain_length", "quarantined",
               "replayed", "replay_failed", "replay_ms"});

  // --- GET /admin/journal, full and quarantine-only.
  const Keys JournalHead = {"boots",    "prev_boot", "chain_length",
                            "quarantined_count", "replay", "quarantined"};
  const Keys QuarantineKeys = {"patch", "hash", "crashes", "seal_seq"};
  const Keys ReplayKeys = {"attempted", "committed", "failed",
                           "duration_ms"};
  V = fetch("GET", "/admin/journal?quarantined=1", 200);
  EXPECT_TRUE(V.Canonical) << LastBody;
  expectEvery(V, "", JournalHead);
  expectEvery(V, "replay", ReplayKeys);
  expectEvery(V, "quarantined[]", QuarantineKeys);
  V = fetch("GET", "/admin/journal", 200);
  EXPECT_TRUE(V.Canonical) << LastBody;
  expectEvery(V, "", concat(JournalHead, {"records"}));
  expectEvery(V, "replay", ReplayKeys);
  expectEvery(V, "quarantined[]", QuarantineKeys);
  const Keys RecHead = {"seq", "kind", "wall_ms"};
  const Keys Intent =
      concat(RecHead, {"patch", "hash", "origin", "attempt", "bytes"});
  EXPECT_EQ(V.Shapes["records[]"],
            (std::vector<Keys>{
                RecHead,                                         // boot 1
                Intent,                                          // crashes
                concat(RecHead, {"intent", "outcome", "reason"}), // crashed
                concat(RecHead, {"intent", "outcome", "reason"}), // quarantined
                concat(RecHead, {"prev_exit"}),                  // boot 2
                Intent,                                          // parse fix
                concat(RecHead, {"intent", "outcome", "mode"}),
                Intent,                                          // rollout
                concat(RecHead, {"intent", "outcome", "mode"}),  // canary
                concat(RecHead, {"intent", "outcome", "mode", "verdict"}),
            }))
      << LastBody;

  // --- GET /admin/rollouts, as a list and by id.
  V = fetch("GET", "/admin/rollouts", 200);
  EXPECT_TRUE(V.Canonical) << LastBody;
  expectEvery(V, "", {"rollouts"});
  expectEvery(V, "rollouts[]", RolloutKeys);
  expectEvery(V, "rollouts[].canary",
              {"requests", "serves", "errors_5xx", "traps", "error_rate"});
  expectEvery(V, "rollouts[].control",
              {"requests", "serves", "errors_5xx", "error_rate"});
  V = fetch("GET", "/admin/rollouts?id=1", 200);
  EXPECT_TRUE(V.Canonical) << LastBody;
  expectEvery(V, "", RolloutKeys);
  expectEvery(V, "canary",
              {"requests", "serves", "errors_5xx", "traps", "error_rate"});
  expectEvery(V, "control",
              {"requests", "serves", "errors_5xx", "error_rate"});

  // --- GET /admin/lint?id=1: the parse fix's finding list.
  V = fetch("GET", "/admin/lint?id=1", 200);
  EXPECT_TRUE(V.Canonical) << LastBody;
  expectEvery(V, "",
              {"tx", "patch", "phase", "analysis_ran", "analysis_ms",
               "code_only_predicted", "findings"});
  expectEvery(V, "findings[]", FindingKeys);

  // --- GET /admin/trace: the span tree and the Chrome export.
  V = fetch("GET", "/admin/trace?id=1", 200);
  expectEvery(V, "", {"update", "events", "dropped", "spans"});
  const Keys Span = {"category", "name",   "kind", "tid",
                     "start_us", "dur_us", "arg"};
  expectEach(V, "spans[]", {Span, concat(Span, {"children"})});
  ASSERT_FALSE(V.Shapes["spans[]"].empty()) << LastBody;
  for (const auto &KV : V.Shapes)
    if (KV.first.find("children[]") != std::string::npos)
      expectEach(V, KV.first, {Span, concat(Span, {"children"})});
  V = fetch("GET", "/admin/trace?export=chrome", 200);
  expectEvery(V, "", {"traceEvents"});
  const Keys Ev = {"ph", "pid", "tid", "ts"};
  const Keys Tail = {"cat", "name", "args"};
  expectEach(V, "traceEvents[]",
             {concat(concat(Ev, {"dur"}), Tail),
              concat(concat(Ev, {"s"}), Tail),
              concat(concat(Ev, {"id"}), Tail)});
  ASSERT_FALSE(V.Shapes["traceEvents[]"].empty()) << LastBody;
  expectEvery(V, "traceEvents[].args", {"update", "arg"});

  // --- GET /admin/profile.
  V = fetch("GET", "/admin/profile", 200);
  expectEvery(V, "", {"total_calls", "total_fuel", "total_traps",
                      "functions"});
  expectEach(V, "functions[]",
             {{"patch", "module", "fn", "tier", "calls", "self_fuel",
               "avg_fuel", "traps", "sampled_us", "samples",
               "avg_sample_us"}});
  EXPECT_FALSE(V.Shapes["functions[]"].empty()) << LastBody;

  // --- POST /admin/rollback: 200 for a patched slot.
  V = fetch("POST", "/admin/rollback?name=flashed.parse_target", 200);
  EXPECT_TRUE(V.Canonical) << LastBody;
  expectEvery(V, "", {"rolled_back"});
}

TEST_F(AdminJsonTest, ErrorBodiesParseWithPinnedKeys) {
  struct Case {
    const char *Method;
    const char *Target;
    int Status;
    Keys Want;
  } Cases[] = {
      {"GET", "/admin/nope", 404, ErrorKeys},
      {"GET", "/admin/rollouts?id=99", 404, ErrorKeys},
      {"GET", "/admin/lint?id=99", 404, ErrorKeys},
      {"GET", "/admin/lint", 400, ErrorKeys},
      {"GET", "/admin/trace", 400, ErrorKeys},
      {"POST", "/admin/rollout", 400, ErrorKeys},
      {"POST", "/admin/rollback", 400, ErrorKeys},
      {"POST", "/admin/rollback?name=ghost", 404, RetryableErrorKeys},
      {"POST", "/admin/rollback?name=flashed.mime_type", 409,
       RetryableErrorKeys},
  };
  for (const Case &C : Cases) {
    JsonValidator V = fetch(C.Method, C.Target, C.Status);
    expectEvery(V, "", C.Want);
    EXPECT_TRUE(V.Canonical) << C.Target << ": " << LastBody;
  }
}

} // namespace
