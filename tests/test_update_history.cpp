//===- tests/test_update_history.cpp - The one update history -*- C++ -*-===//
///
/// The runtime's update log is the only in-memory history of update
/// outcomes: a resolved rollout's record lives inside its transaction's
/// update record, and /admin/updates, /admin/lint?id=, /admin/rollouts
/// and /admin/rollouts?id= are views of that log.  These tests read
/// every view while updates and rollouts commit, check that a rollout's
/// verdict and reason read the same in the rollout view and in its
/// transaction's record, and that a record dropped from the capped log
/// leaves every view.
///
//===----------------------------------------------------------------------===//

#include "JsonValidator.h"

#include "flashed/App.h"
#include "patch/PatchBuilder.h"
#include "runtime/UpdateController.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace dsu;
using namespace dsu::flashed;
using dsu::testjson::JsonValidator;

namespace {

/// A healthy code-only patch: map_url becomes a passthrough.
const char *PassthroughMapUrl = R"dsu(
(patch
  (id "history-map-url")
  (provides
    (fn (name "flashed.map_url")
        (type "fn(string) -> string")
        (vtal-fn "map_url")))
  (vtal-module
"module history
func map_url (target: string) -> string {
  load target
  ret
}"))
)dsu";

struct Response {
  int Status = 0;
  std::string Body;
};

class UpdateHistoryTest : public ::testing::Test {
protected:
  void SetUp() override {
    DocStore Docs;
    Docs.put("/doc.html", "<html>history</html>");
    ASSERT_FALSE(App.init(std::move(Docs)));
    App.enableAdmin(RT.controller());
    // The trap patch is refused by the analyzer; the rollout's trap gate
    // is what must catch it here.
    RT.setAnalysisGate(false);
  }

  void TearDown() override { App.rollouts().waitIdle(); }

  Response get(const std::string &Target) {
    std::string Raw = App.handle("GET " + Target + " HTTP/1.0\r\n\r\n");
    Response R;
    R.Status = std::atoi(Raw.c_str() + Raw.find(' ') + 1);
    size_t End = Raw.find("\r\n\r\n");
    if (End != std::string::npos)
      R.Body = Raw.substr(End + 4);
    return R;
  }

  /// A get() whose body must be valid JSON.
  Response getJson(const std::string &Target) {
    Response R = get(Target);
    JsonValidator V;
    EXPECT_TRUE(V.parse(R.Body)) << Target << ": invalid JSON at byte "
                                 << V.ErrorAt << ": " << R.Body;
    return R;
  }

  /// Commits one in-process, code-only update of map_url (its version-1
  /// behaviour, so serving is unchanged) and returns its transaction id.
  uint64_t commitInProcess() {
    Patch P = cantFail(PatchBuilder(RT.types(), "history-inproc")
                           .provide("flashed.map_url", &FlashedApp::mapUrlV1)
                           .build());
    uint64_t Tx = RT.requestUpdate(std::move(P)).id();
    EXPECT_EQ(RT.updatePoint(Runtime::PendingCommit::Rolling), 1u);
    return Tx;
  }

  /// \p Tx's record in the update log, if it is there.
  std::optional<UpdateRecord> recordOf(uint64_t Tx) {
    std::optional<UpdateRecord> Found;
    RT.forEachUpdate([&](const UpdateRecord &R) {
      if (R.TxId == Tx)
        Found = R;
    });
    return Found;
  }

  /// Runs one rollout to its verdict.
  RolloutRecord rollOut(const std::string &Text, uint64_t WindowMs) {
    RolloutOptions O;
    O.WindowMs = WindowMs;
    Expected<uint64_t> Id = App.rollouts().startArtifactText(Text, "test", O);
    EXPECT_TRUE(Id) << Id.takeError().str();
    App.rollouts().waitIdle();
    return Id ? cantFail(App.rollouts().rollout(*Id)) : RolloutRecord();
  }

  Runtime RT;
  FlashedApp App{RT};
};

/// One thread commits in-process updates and two rollouts (one promoted,
/// one rolled back by its trap gate) while another reads every view of
/// the history; then each rollout reads the same in both places.
TEST_F(UpdateHistoryTest, ViewsAgreeWhileUpdatesAndRolloutsCommit) {
  constexpr unsigned kBurst = 100;
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Reads{0};
  std::thread Reader([&] {
    while (!Done.load()) {
      std::vector<UpdateRecord> Log = RT.updateLog();
      EXPECT_LE(Log.size(), Runtime::kLogCap);
      for (size_t I = 1; I < Log.size(); ++I)
        EXPECT_LT(Log[I - 1].TxId, Log[I].TxId) << "log out of order";
      EXPECT_EQ(getJson("/admin/updates").Status, 200);
      if (!Log.empty()) {
        std::string Lint = "/admin/lint?id=" + std::to_string(Log.back().TxId);
        EXPECT_EQ(getJson(Lint).Status, 200);
      }
      for (const char *Id : {"1", "2"}) {
        int S = getJson(std::string("/admin/rollouts?id=") + Id).Status;
        EXPECT_TRUE(S == 200 || S == 404) << S;
      }
      EXPECT_EQ(getJson("/admin/rollouts").Status, 200);
      // Traffic for the trap gate: a trapped map_url serves a 404.
      get("/doc.html");
      Reads.fetch_add(1);
    }
  });

  std::vector<uint64_t> Committed;
  for (unsigned I = 0; I != kBurst; ++I)
    Committed.push_back(commitInProcess());
  RolloutRecord Good = rollOut(PassthroughMapUrl, 50);
  for (unsigned I = 0; I != kBurst; ++I)
    Committed.push_back(commitInProcess());
  RolloutRecord Bad = rollOut(faultinject::trapPatchText(), 3000);
  for (unsigned I = 0; I != kBurst; ++I)
    Committed.push_back(commitInProcess());
  while (Reads.load() < 10)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Done.store(true);
  Reader.join();

  EXPECT_EQ(Good.Verdict, "promoted");
  EXPECT_EQ(Bad.Verdict, "rolled-back");
  EXPECT_NE(Bad.Reason.find("trap gate"), std::string::npos) << Bad.Reason;
  EXPECT_EQ(RT.updatesApplied(), 3 * kBurst + 2);
  EXPECT_EQ(RT.updateLog().size(), 3 * kBurst + 2);

  for (const RolloutRecord &Ro : {Good, Bad}) {
    std::optional<UpdateRecord> Rec = recordOf(Ro.TxId);
    ASSERT_TRUE(Rec) << "no update record for rollout " << Ro.Id;
    ASSERT_TRUE(Rec->Rollout);
    EXPECT_EQ(Rec->Rollout->Id, Ro.Id);
    EXPECT_EQ(Rec->Rollout->Verdict, Ro.Verdict);
    EXPECT_EQ(Rec->Rollout->Reason, Ro.Reason);
    EXPECT_EQ(Rec->Phase, "committed");
    if (!Ro.Reason.empty()) {
      EXPECT_EQ(Rec->FailureReason, Ro.Reason);
    }

    std::string Verdict = "\"verdict\": \"" + Ro.Verdict + "\"";
    Response R = getJson("/admin/rollouts?id=" + std::to_string(Ro.Id));
    EXPECT_EQ(R.Status, 200);
    EXPECT_NE(R.Body.find(Verdict), std::string::npos) << R.Body;
    EXPECT_NE(R.Body.find("\"tx\": " + std::to_string(Ro.TxId)),
              std::string::npos)
        << R.Body;
    EXPECT_EQ(getJson("/admin/lint?id=" + std::to_string(Ro.TxId)).Status,
              200);
  }
  std::vector<RolloutRecord> All = App.rollouts().rollouts();
  ASSERT_EQ(All.size(), 2u);
  EXPECT_EQ(All[0].Id, Good.Id);
  EXPECT_EQ(All[1].Id, Bad.Id);

  // /admin/updates carries each verdict on its transaction's record.
  Response Updates = getJson("/admin/updates");
  for (const RolloutRecord &Ro : {Good, Bad}) {
    std::string Tx = "\"tx\": " + std::to_string(Ro.TxId) + ",";
    size_t At = Updates.Body.find(Tx);
    ASSERT_NE(At, std::string::npos) << Updates.Body;
    size_t End = Updates.Body.find('}', At);
    EXPECT_NE(Updates.Body.substr(At, End - At)
                  .find("\"rollout\": \"" + Ro.Verdict + "\""),
              std::string::npos)
        << Updates.Body.substr(At, End - At);
  }
  // Every in-process update is in the log too.
  for (uint64_t Tx : Committed)
    EXPECT_TRUE(recordOf(Tx)) << "tx " << Tx;
}

/// The log keeps the newest Runtime::kLogCap records; one that leaves it
/// leaves every view, rollouts included, while updatesApplied() keeps
/// the running total.
TEST_F(UpdateHistoryTest, DroppedRecordsLeaveEveryView) {
  RolloutRecord Ro = rollOut(PassthroughMapUrl, 20);
  ASSERT_EQ(Ro.Verdict, "promoted");
  std::string RolloutById = "/admin/rollouts?id=" + std::to_string(Ro.Id);
  std::string LintOfTx = "/admin/lint?id=" + std::to_string(Ro.TxId);
  EXPECT_EQ(getJson(RolloutById).Status, 200);
  EXPECT_EQ(getJson(LintOfTx).Status, 200);

  for (size_t I = 0; I != Runtime::kLogCap - 1; ++I)
    commitInProcess();
  // Still the oldest record of a full log.
  EXPECT_EQ(App.rollouts().rollouts().size(), 1u);
  EXPECT_EQ(getJson(RolloutById).Status, 200);

  uint64_t Newest = commitInProcess();
  std::vector<UpdateRecord> Log = RT.updateLog();
  ASSERT_EQ(Log.size(), Runtime::kLogCap);
  EXPECT_EQ(Log.back().TxId, Newest);
  EXPECT_NE(Log.front().TxId, Ro.TxId);
  EXPECT_EQ(RT.updatesApplied(), Runtime::kLogCap + 1);

  EXPECT_TRUE(App.rollouts().rollouts().empty());
  EXPECT_FALSE(App.rollouts().rollout(Ro.Id));
  EXPECT_EQ(getJson(RolloutById).Status, 404);
  EXPECT_EQ(getJson(LintOfTx).Status, 404);
  EXPECT_EQ(getJson("/admin/lint?id=" + std::to_string(Newest)).Status, 200);
  Response Updates = getJson("/admin/updates");
  size_t Records = 0;
  for (size_t At = Updates.Body.find("{\"tx\": "); At != std::string::npos;
       At = Updates.Body.find("{\"tx\": ", At + 1))
    ++Records;
  EXPECT_EQ(Records, Runtime::kLogCap);
}

} // namespace
