//===- tests/lint/test_lint.cpp - Analyzer negative corpus ----*- C++ -*-===//
///
/// \file
/// The update-safety analyzer's table-driven corpus, staged through the
/// real pipeline (controller worker, journal attached) against the real
/// FlashEd program image.  Each statically-bad patch must be refused
/// with EC_Analysis, carry the expected finding code on its update
/// record, and — the durability contract — leave NO Intent record in
/// the journal: a patch the analyzer can prove bad never enters
/// crash-recovery replay.  Good patches must stage clean through the
/// same gate.
///
//===----------------------------------------------------------------------===//

#include "analysis/Finding.h"
#include "core/Runtime.h"
#include "flashed/App.h"
#include "flashed/Patches.h"
#include "persist/Journal.h"
#include "runtime/UpdateController.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

using namespace dsu;

namespace {

std::string freshDir(const std::string &Name) {
  std::string D = ::testing::TempDir() + "dsu_lint_" + Name;
  std::system(("rm -rf '" + D + "'").c_str());
  return D;
}

/// The staging pipeline with everything the analyzer audits attached:
/// the FlashEd program image (types, state cell, updateable slots, host
/// exports) and a durable journal.
struct LintHarness {
  Runtime RT;
  flashed::FlashedApp App{RT};
  std::unique_ptr<persist::UpdateJournal> Journal;

  explicit LintHarness(const std::string &Name) {
    EXPECT_FALSE(App.init(flashed::DocStore()));
    persist::UpdateJournal::Options O;
    O.Sync = false; // the tests assert record content, not durability
    Expected<std::unique_ptr<persist::UpdateJournal>> J =
        persist::UpdateJournal::open(freshDir(Name), O);
    EXPECT_TRUE(J) << (J ? "" : J.error().str());
    if (J) {
      Journal = std::move(*J);
      Journal->beginBoot("");
      RT.attachJournal(Journal.get());
    }
  }

  ~LintHarness() { RT.attachJournal(nullptr); }

  /// Stages \p Text through the controller and waits for the worker.
  StagedUpdate stage(const std::string &Text) {
    StagedUpdate U = RT.controller().stageArtifactText(Text, "lint-test");
    RT.controller().waitIdle();
    return U;
  }

  size_t intentCount() const {
    size_t N = 0;
    for (const persist::JournalRecord &R : Journal->records())
      N += R.Kind == persist::RecordKind::Intent;
    return N;
  }
};

bool hasFinding(const UpdateRecord &Rec, const char *Code,
                analysis::Severity Sev) {
  for (const analysis::Finding &F : Rec.AnalysisFindings)
    if (F.Code == Code && F.Sev == Sev)
      return true;
  return false;
}

/// Asserts the analyzer refused \p Text with an error finding \p Code
/// and that no Intent reached the journal.
void expectRefused(LintHarness &H, const std::string &Text,
                   const char *Code) {
  size_t IntentsBefore = H.intentCount();
  StagedUpdate U = H.stage(Text);
  UpdateRecord Rec = U.record();
  EXPECT_EQ(U.phase(), UpdatePhase::StageFailed) << Rec.FailureReason;
  EXPECT_NE(Rec.FailureReason.find("update-safety analyzer"),
            std::string::npos)
      << Rec.FailureReason;
  EXPECT_TRUE(Rec.AnalysisRan);
  EXPECT_TRUE(hasFinding(Rec, Code, analysis::Severity::Error))
      << "expected error finding '" << Code << "' on " << Rec.PatchId;
  EXPECT_EQ(H.intentCount(), IntentsBefore)
      << "a statically-refused patch must not journal an Intent";
}

// --- Negative corpus ----------------------------------------------------

TEST(PatchLintTest, MissingTransformerRefusedBeforeIntent) {
  LintHarness H("missing_xform");
  // Bumps the live flashed_cache type (v1 exists) without shipping a
  // transformer for the 1 -> 2 bump: expandBump() would refuse it at
  // stage time; the analyzer refuses it before the Intent.
  expectRefused(H, R"dsu(
(patch
  (id "lint-missing-xform")
  (description "bumps flashed_cache without a transformer")
  (new-types
    (type (name "%flashed_cache@2") (repr "int")))
  (provides
    (fn (name "flashed.mime_type")
        (type "fn(string) -> string")
        (vtal-fn "mime")))
  (vtal-module
"module lint_missing
func mime (path: string) -> string {
  push.s \"text/plain\"
  ret
}"))
)dsu",
                "missing-transformer");
}

TEST(PatchLintTest, OrphanTransformerRefused) {
  LintHarness H("orphan_xform");
  // Transforms between versions of a type neither the program nor the
  // patch defines: the transformer can never fire.
  expectRefused(H, R"dsu(
(patch
  (id "lint-orphan-xform")
  (description "transformer between undefined type versions")
  (transformers
    (transform (from "%ghost@1") (to "%ghost@2") (impl "xform")))
  (provides
    (fn (name "flashed.mime_type")
        (type "fn(string) -> string")
        (vtal-fn "mime")))
  (vtal-module
"module lint_orphan
func mime (path: string) -> string {
  push.s \"text/plain\"
  ret
}
func xform (v: int) -> int {
  load v
  ret
}"))
)dsu",
                "orphan-transformer");
}

TEST(PatchLintTest, MustTrapPatchRefused) {
  LintHarness H("must_trap");
  // The rollout suite's trap-on-call fault: a constant division by
  // zero on the entry path.  Dynamically the canary trap gate catches
  // it after serving bad traffic; statically it never stages.
  expectRefused(H, faultinject::trapPatchText(), "must-trap");
}

TEST(PatchLintTest, FuelBombRefused) {
  LintHarness H("fuel_bomb");
  // 20M iterations x 9 region instructions = ~180M, far past the 64M
  // interpreter fuel budget: guaranteed to trap on every invocation.
  expectRefused(H, faultinject::fuelBurnPatchText(20'000'000),
                "fuel-exhaustion");
}

TEST(PatchLintTest, InfiniteLoopRefused) {
  LintHarness H("infinite_loop");
  // No exit from the loop region at all — fuel exhaustion regardless
  // of the budget.
  expectRefused(H, R"dsu(
(patch
  (id "lint-infinite-loop")
  (description "a loop with no exit")
  (provides
    (fn (name "flashed.mime_type")
        (type "fn(string) -> string")
        (vtal-fn "mime")))
  (vtal-module
"module lint_spin
func mime (path: string) -> string {
loop:
  br loop
  push.s \"text/plain\"
  ret
}"))
)dsu",
                "infinite-loop");
}

TEST(PatchLintTest, ShadowingProvideRefused) {
  LintHarness H("shadowing");
  // flashed.now_ms is a host export (fn() -> int), not an updateable
  // slot: providing it under a different type splits the namespace —
  // imports keep resolving to the host export, updateable dispatch
  // would find the patch binding.
  expectRefused(H, R"dsu(
(patch
  (id "lint-shadowing-provide")
  (description "provides a host export's name under another type")
  (provides
    (fn (name "flashed.now_ms")
        (type "fn(string) -> string")
        (vtal-fn "now")))
  (vtal-module
"module lint_shadow
func now (path: string) -> string {
  push.s \"0\"
  ret
}"))
)dsu",
                "shadowing-provide");
}

// --- Positive corpus ----------------------------------------------------

TEST(PatchLintTest, SmallLoopStagesClean) {
  LintHarness H("small_loop");
  // The same loop shape as the fuel bomb with a trip count (~9k
  // instructions) comfortably inside the budget: the analyzer must not
  // cry wolf on bounded loops.
  StagedUpdate U = H.stage(faultinject::fuelBurnPatchText(1000));
  UpdateRecord Rec = U.record();
  EXPECT_EQ(U.phase(), UpdatePhase::Ready) << Rec.FailureReason;
  EXPECT_TRUE(Rec.AnalysisRan);
  // Clean = nothing actionable; Info-severity advisories are allowed.
  for (const analysis::Finding &F : Rec.AnalysisFindings)
    EXPECT_EQ(F.Sev, analysis::Severity::Info)
        << F.Code << ": " << F.Message;
  EXPECT_TRUE(Rec.CodeOnlyPredicted);
  EXPECT_EQ(H.intentCount(), 1u);
  EXPECT_FALSE(U.abort());
}

TEST(PatchLintTest, ParseFixPatchStagesClean) {
  LintHarness H("parse_fix");
  // The real P1 artifact shipped throughout the controller-path tests:
  // forward branches only, compatible provides, no type changes.
  StagedUpdate U = H.stage(flashed::vtalParseFixPatchText());
  UpdateRecord Rec = U.record();
  EXPECT_EQ(U.phase(), UpdatePhase::Ready) << Rec.FailureReason;
  EXPECT_TRUE(Rec.AnalysisRan);
  for (const analysis::Finding &F : Rec.AnalysisFindings)
    EXPECT_EQ(F.Sev, analysis::Severity::Info)
        << F.Code << ": " << F.Message;
  EXPECT_TRUE(Rec.CodeOnlyPredicted);
  EXPECT_FALSE(U.abort());
}

TEST(PatchLintTest, WarningsRecordedButDoNotRefuse) {
  LintHarness H("warn_only");
  // Dead code after the return is a warning: recorded on the update
  // record for `dsu-updatectl log` / GET /admin/lint, staged anyway.
  StagedUpdate U = H.stage(R"dsu(
(patch
  (id "lint-dead-code")
  (description "unreachable tail after ret")
  (provides
    (fn (name "flashed.mime_type")
        (type "fn(string) -> string")
        (vtal-fn "mime")))
  (vtal-module
"module lint_dead
func mime (path: string) -> string {
  push.s \"text/plain\"
  ret
  push.s \"never\"
  ret
}"))
)dsu");
  UpdateRecord Rec = U.record();
  EXPECT_EQ(U.phase(), UpdatePhase::Ready) << Rec.FailureReason;
  EXPECT_TRUE(Rec.AnalysisRan);
  EXPECT_TRUE(
      hasFinding(Rec, "unreachable-code", analysis::Severity::Warning));
  EXPECT_EQ(H.intentCount(), 1u)
      << "warnings must not block the update";
  EXPECT_FALSE(U.abort());
}

TEST(PatchLintTest, GateDisabledRecordsButStages) {
  LintHarness H("gate_off");
  // The canary-suite escape hatch: with the gate off the analyzer still
  // runs and records its findings, but refusal is left to the dynamic
  // gates (how test_rollout ships its fault-injected patches).
  H.RT.setAnalysisGate(false);
  size_t Before = H.intentCount();
  StagedUpdate U = H.stage(faultinject::trapPatchText());
  UpdateRecord Rec = U.record();
  EXPECT_EQ(U.phase(), UpdatePhase::Ready) << Rec.FailureReason;
  EXPECT_TRUE(Rec.AnalysisRan);
  EXPECT_TRUE(hasFinding(Rec, "must-trap", analysis::Severity::Error));
  EXPECT_EQ(H.intentCount(), Before + 1);
  EXPECT_FALSE(U.abort());
}

} // namespace
