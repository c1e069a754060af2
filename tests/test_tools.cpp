//===- tests/test_tools.cpp - CLI tool integration tests ------*- C++ -*-===//
///
/// Drives the installed command-line tools (dsu-vtal, dsu-patchgen,
/// dsu-patchlint, dsu-updatectl) as subprocesses, checking exit codes
/// and artifacts — the offline half of the update workflow.

#include "JsonValidator.h"

#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/Patches.h"
#include "net/ReactorPool.h"
#include "patch/Manifest.h"
#include "runtime/UpdateController.h"
#include "support/MemoryBuffer.h"
#include "vtal/Bytecode.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace dsu;

namespace {

std::string toolPath(const char *Name) {
  return std::string(DSU_BIN_DIR) + "/tools/" + Name;
}

std::string tmpPath(const char *Name) {
  return ::testing::TempDir() + "dsu_tools_" + Name;
}

/// Runs a command, returns its exit status; stdout/stderr are captured
/// into \p OutFile when given.
int run(const std::string &Cmd, const std::string &OutFile = "") {
  std::string Full = Cmd;
  if (!OutFile.empty())
    Full += " > " + OutFile + " 2>&1";
  int Status = std::system(Full.c_str());
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

const char *GoodVtal = R"(
module cli
func triple (x: int) -> int {
  load x
  push.i 3
  mul
  ret
}
)";

const char *BadVtal = R"(
module cli
func broken (x: int) -> int {
  push.s "not an int"
  ret
}
)";

class ToolsTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!fileExists(toolPath("dsu-vtal")))
      GTEST_SKIP() << "tools not built";
  }
};

TEST_F(ToolsTest, VtalVerifyAcceptsGoodCode) {
  std::string Src = tmpPath("good.vtal");
  ASSERT_FALSE(writeFile(Src, GoodVtal));
  EXPECT_EQ(run(toolPath("dsu-vtal") + " verify " + Src, tmpPath("v.out")),
            0);
  std::remove(Src.c_str());
}

TEST_F(ToolsTest, VtalVerifyRejectsBadCode) {
  std::string Src = tmpPath("bad.vtal");
  ASSERT_FALSE(writeFile(Src, BadVtal));
  std::string Out = tmpPath("bad.out");
  EXPECT_EQ(run(toolPath("dsu-vtal") + " verify " + Src, Out), 1);
  Expected<std::string> Text = readFile(Out);
  ASSERT_TRUE(Text);
  EXPECT_NE(Text->find("REJECTED"), std::string::npos);
  std::remove(Src.c_str());
}

TEST_F(ToolsTest, VtalEncodeDumpRoundTrip) {
  std::string Src = tmpPath("enc.vtal");
  std::string Bin = tmpPath("enc.vtalbc");
  ASSERT_FALSE(writeFile(Src, GoodVtal));
  ASSERT_EQ(run(toolPath("dsu-vtal") + " encode " + Src + " " + Bin), 0);

  // The emitted bytecode decodes with the library.
  Expected<std::string> Bytes = readFile(Bin);
  ASSERT_TRUE(Bytes);
  Expected<vtal::Module> M = vtal::decodeModule(*Bytes);
  ASSERT_TRUE(M) << M.error().str();
  EXPECT_EQ(M->Name, "cli");

  std::string Out = tmpPath("dump.out");
  ASSERT_EQ(run(toolPath("dsu-vtal") + " dump " + Bin, Out), 0);
  Expected<std::string> Dump = readFile(Out);
  ASSERT_TRUE(Dump);
  EXPECT_NE(Dump->find("func triple"), std::string::npos);
  std::remove(Src.c_str());
  std::remove(Bin.c_str());
}

TEST_F(ToolsTest, VtalRunExecutes) {
  std::string Src = tmpPath("run.vtal");
  ASSERT_FALSE(writeFile(Src, GoodVtal));
  std::string Out = tmpPath("run.out");
  ASSERT_EQ(run(toolPath("dsu-vtal") + " run " + Src + " triple 14", Out),
            0);
  Expected<std::string> Text = readFile(Out);
  ASSERT_TRUE(Text);
  EXPECT_NE(Text->find("int(42)"), std::string::npos);
  std::remove(Src.c_str());
}

TEST_F(ToolsTest, VtalUsageOnBadInvocation) {
  EXPECT_EQ(run(toolPath("dsu-vtal") + " bogus x", tmpPath("u.out")), 2);
  EXPECT_EQ(run(toolPath("dsu-vtal"), tmpPath("u2.out")), 2);
}

TEST_F(ToolsTest, PatchgenEmitsArtifacts) {
  std::string OldVm = tmpPath("old.vm");
  std::string NewVm = tmpPath("new.vm");
  ASSERT_FALSE(writeFile(OldVm, R"(
(version-manifest (program "app") (version 1)
  (functions (fn (name "f") (type "fn(int) -> int") (body-hash "a")))
  (types (type (name "%t@1") (repr "{x: int}"))))
)"));
  ASSERT_FALSE(writeFile(NewVm, R"(
(version-manifest (program "app") (version 2)
  (functions (fn (name "f") (type "fn(int) -> int") (body-hash "b")))
  (types (type (name "%t@2") (repr "{x: int, y: int}"))))
)"));

  std::string Prefix = tmpPath("genout");
  ASSERT_EQ(run(toolPath("dsu-patchgen") + " " + OldVm + " " + NewVm +
                    " " + Prefix,
                tmpPath("gen.log")),
            0);

  Expected<std::string> ManifestText = readFile(Prefix + ".dsup-manifest");
  ASSERT_TRUE(ManifestText);
  Expected<PatchManifest> M = PatchManifest::parse(*ManifestText);
  ASSERT_TRUE(M) << M.error().str();
  EXPECT_EQ(M->Provides.size(), 1u);
  EXPECT_EQ(M->Transformers.size(), 1u);

  Expected<std::string> Stub = readFile(Prefix + ".cpp");
  ASSERT_TRUE(Stub);
  EXPECT_NE(Stub->find("dsu_patch_manifest"), std::string::npos);

  for (const char *Suffix : {".dsup-manifest", ".cpp"})
    std::remove((Prefix + Suffix).c_str());
  std::remove(OldVm.c_str());
  std::remove(NewVm.c_str());
}

TEST_F(ToolsTest, PatchgenRejectsMissingInput) {
  EXPECT_NE(run(toolPath("dsu-patchgen") + " /no/such.vm /no/such2.vm",
                tmpPath("miss.out")),
            0);
}

TEST_F(ToolsTest, PatchlintJsonReportIsValidJson) {
  if (!fileExists(toolPath("dsu-patchlint")))
    GTEST_SKIP() << "dsu-patchlint not built";
  // The report the CI lint job keeps, over every shipped artifact.
  std::string Out = tmpPath("lint.json");
  std::string Cmd = toolPath("dsu-patchlint") + " --json " +
                    DSU_SOURCE_DIR "/patches/*.dsup > " + Out;
  ASSERT_EQ(run(Cmd), 0);
  Expected<std::string> Report = readFile(Out);
  ASSERT_TRUE(Report);
  testjson::JsonValidator V;
  ASSERT_TRUE(V.parse(*Report))
      << "invalid JSON at byte " << V.ErrorAt << ": " << *Report;
  using testjson::Keys;
  EXPECT_EQ(V.Shapes[""], std::vector<Keys>({{"lint", "errors_total", "ok"}}));
  ASSERT_FALSE(V.Shapes["lint[]"].empty());
  for (const Keys &K : V.Shapes["lint[]"])
    EXPECT_EQ(K, (Keys{"file", "patch", "ok", "errors", "warnings",
                       "analysis_ms", "code_only_predicted", "findings"}));
  for (const Keys &K : V.Shapes["lint[].findings[]"]) {
    ASSERT_GE(K.size(), 3u);
    EXPECT_EQ(Keys(K.begin(), K.begin() + 3),
              (Keys{"severity", "code", "message"}));
  }
  std::remove(Out.c_str());
}

TEST_F(ToolsTest, UpdatectlDrivesALiveServer) {
  if (!fileExists(toolPath("dsu-updatectl")))
    GTEST_SKIP() << "dsu-updatectl not built";

  // A real FlashEd with the admin plane enabled; the CLI ships the VTAL
  // query-fix artifact into it over HTTP — the build -> ship -> hot-load
  // loop, end to end.
  Runtime RT;
  flashed::FlashedApp App(RT);
  App.enableAdmin(RT.controller());
  flashed::DocStore Docs;
  Docs.put("/doc.html", "<html>doc</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));
  net::ReactorPool Srv(
      [&App](const flashed::RequestHead &Head, std::string_view Raw,
             std::string &Out, flashed::SharedBody &Body) {
        App.handleInto(Head, Raw, Out, Body);
      });
  Srv.setUpdateRuntime(RT);
  ASSERT_FALSE(Srv.start());
  std::string Port = std::to_string(Srv.port());

  // v1 bug visible over the wire.
  EXPECT_EQ(flashed::httpGet(Srv.port(), "/doc.html?x=1")->Status, 404);

  std::string Artifact = tmpPath("p1.dsup");
  ASSERT_FALSE(writeFile(Artifact, flashed::vtalParseFixPatchText()));
  std::string Out = tmpPath("updatectl.out");
  EXPECT_EQ(run(toolPath("dsu-updatectl") + " stage " + Port + " " +
                    Artifact,
                Out),
            0);
  Expected<std::string> Accepted = readFile(Out);
  ASSERT_TRUE(Accepted);
  EXPECT_NE(Accepted->find("\"tx\""), std::string::npos);

  for (int Spin = 0; Spin != 500 && RT.updatesApplied() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(RT.updatesApplied(), 1u);
  EXPECT_EQ(flashed::httpGet(Srv.port(), "/doc.html?x=1")->Status, 200);

  // The log and status subcommands read back the transaction.
  EXPECT_EQ(run(toolPath("dsu-updatectl") + " log " + Port, Out), 0);
  Expected<std::string> Log = readFile(Out);
  ASSERT_TRUE(Log);
  EXPECT_NE(Log->find("committed"), std::string::npos);
  EXPECT_EQ(run(toolPath("dsu-updatectl") + " status " + Port, Out), 0);
  // The app has no pool attached: `status --workers` must say so.
  EXPECT_EQ(run(toolPath("dsu-updatectl") + " status " + Port +
                    " --workers",
                Out),
            1);
  // The metrics subcommand works against any admin-enabled server.
  EXPECT_EQ(run(toolPath("dsu-updatectl") + " metrics " + Port, Out), 0);
  Expected<std::string> Metrics = readFile(Out);
  ASSERT_TRUE(Metrics);
  EXPECT_NE(Metrics->find("dsu_updates_applied_total"), std::string::npos);
  EXPECT_NE(Metrics->find("dsu_stage_to_commit_us_count"),
            std::string::npos);

  // Rollback over the wire restores the v1 behaviour; a second rollback
  // of the initial version maps to a non-2xx exit.
  EXPECT_EQ(run(toolPath("dsu-updatectl") + " rollback " + Port +
                    " flashed.parse_target",
                Out),
            0);
  EXPECT_EQ(flashed::httpGet(Srv.port(), "/doc.html?x=1")->Status, 404);
  EXPECT_NE(run(toolPath("dsu-updatectl") + " rollback " + Port + " ghost",
                Out),
            0);

  std::remove(Artifact.c_str());
}

TEST_F(ToolsTest, UpdatectlSurfacesPerWorkerStateAndMetrics) {
  if (!fileExists(toolPath("dsu-updatectl")))
    GTEST_SKIP() << "dsu-updatectl not built";

  // A FlashedApp on a real reactor pool: `status --workers` must render
  // the per-worker state array and `metrics` the text exposition.
  Runtime RT;
  flashed::FlashedApp App(RT);
  App.enableAdmin(RT.controller());
  flashed::DocStore Docs;
  Docs.put("/doc.html", "<html>doc</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));
  net::PoolOptions O;
  O.Workers = 2;
  O.PollTimeoutMs = 2;
  net::ReactorPool Pool(
      [&App](const flashed::RequestHead &Head, std::string_view Raw,
             std::string &Out, flashed::SharedBody &Body) {
        App.handleInto(Head, Raw, Out, Body);
      },
      O);
  Pool.setUpdateRuntime(RT);
  App.attachPool(Pool);
  ASSERT_FALSE(Pool.start());
  std::string Port = std::to_string(Pool.port());

  std::string Out = tmpPath("updatectl_pool.out");
  EXPECT_EQ(run(toolPath("dsu-updatectl") + " status " + Port +
                    " --workers",
                Out),
            0);
  Expected<std::string> Status = readFile(Out);
  ASSERT_TRUE(Status);
  EXPECT_NE(Status->find("\"worker_state\""), std::string::npos);
  EXPECT_NE(Status->find("\"epoch\""), std::string::npos);

  EXPECT_EQ(run(toolPath("dsu-updatectl") + " metrics " + Port, Out), 0);
  Expected<std::string> Metrics = readFile(Out);
  ASSERT_TRUE(Metrics);
  EXPECT_NE(Metrics->find("dsu_worker_requests_total"), std::string::npos);
  EXPECT_NE(Metrics->find("dsu_update_pause_us_bucket"),
            std::string::npos);
  EXPECT_NE(Metrics->find("dsu_worker_epoch_lag"), std::string::npos);

  Pool.stop();
}

} // namespace
