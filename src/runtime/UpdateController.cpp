//===- runtime/UpdateController.cpp ---------------------------*- C++ -*-===//

#include "runtime/UpdateController.h"

#include "analysis/PatchAnalyzer.h"
#include "core/Runtime.h"
#include "persist/Journal.h"
#include "support/FaultInject.h"
#include "support/Logging.h"
#include "trace/Trace.h"

using namespace dsu;

UpdateController::UpdateController(Runtime &RT) : RT(RT) {
  Worker = std::thread([this] { workerMain(); });
}

UpdateController::~UpdateController() {
  {
    std::lock_guard<std::mutex> G(Lock);
    Stopping = true;
  }
  CV.notify_all();
  if (Worker.joinable())
    Worker.join();
}

StagedUpdate UpdateController::submit(Job J) {
  // Queue position — and therefore commit order — is fixed here, at
  // submission, not when the worker gets around to staging.
  RT.Queue.enqueue(J.Tx);
  // Cross-thread interval: opened on the submitter (often an admin
  // serving thread), closed when the staging worker picks the job up.
  trace::Recorder::instance().begin("ctl", "backlog", J.Tx->id());
  StagedUpdate Handle(&RT, J.Tx);
  {
    std::lock_guard<std::mutex> G(Lock);
    Jobs.push_back(std::move(J));
  }
  CV.notify_one();
  return Handle;
}

StagedUpdate UpdateController::stagePatch(Patch P) {
  Job J;
  J.Tx = RT.makeTransaction(P.Id);
  J.Kind = Job::InMemory;
  J.P = std::move(P);
  return submit(std::move(J));
}

StagedUpdate UpdateController::stageArtifactText(std::string Text,
                                                 std::string SourceName,
                                                 bool HoldForRollout) {
  Job J;
  J.Tx = RT.makeTransaction("(loading " + SourceName + ")");
  if (HoldForRollout)
    J.Tx->HeldForRollout.store(true, std::memory_order_release);
  J.Kind = Job::Text;
  J.Artifact = std::move(Text);
  J.SourceName = std::move(SourceName);
  return submit(std::move(J));
}

void UpdateController::setOnStaged(std::function<void()> Fn) {
  std::lock_guard<std::mutex> G(Lock);
  OnStaged = std::move(Fn);
}

size_t UpdateController::backlog() const {
  std::lock_guard<std::mutex> G(Lock);
  return Jobs.size() + InFlight;
}

void UpdateController::waitIdle() {
  std::unique_lock<std::mutex> G(Lock);
  IdleCV.wait(G, [this] { return Jobs.empty() && InFlight == 0; });
}

void UpdateController::workerMain() {
  while (true) {
    Job J;
    {
      std::unique_lock<std::mutex> G(Lock);
      CV.wait(G, [this] { return Stopping || !Jobs.empty(); });
      if (Stopping)
        return;
      J = std::move(Jobs.front());
      Jobs.pop_front();
      ++InFlight;
    }

    // Close the submit->pickup interval and key every event the staging
    // worker records below to this transaction.
    trace::Recorder::instance().end("ctl", "backlog", J.Tx->id());
    trace::ScopedUpdateId TraceId(J.Tx->id());

    // A job aborted while it sat in the backlog needs no staging work
    // at all: mark it and move on.
    if (J.Tx->AbortRequested.load(std::memory_order_seq_cst)) {
      UpdatePhase Expect = UpdatePhase::Staging;
      if (J.Tx->Phase.compare_exchange_strong(Expect, UpdatePhase::Aborted,
                                              std::memory_order_acq_rel))
        RT.finalize(*J.Tx, UpdatePhase::Aborted, nullptr);
      std::lock_guard<std::mutex> G(Lock);
      --InFlight;
      IdleCV.notify_all();
      continue;
    }

    // The staging watchdog also covers backlog time: a job whose
    // deadline passed while it queued behind a slow patch is timed out
    // here rather than staged pointlessly.
    if (J.Tx->StageDeadline.time_since_epoch().count() != 0 &&
        std::chrono::steady_clock::now() > J.Tx->StageDeadline) {
      UpdatePhase Expect = UpdatePhase::Staging;
      if (J.Tx->Phase.compare_exchange_strong(Expect, UpdatePhase::TimedOut,
                                              std::memory_order_acq_rel)) {
        Error E = Error::make(
            ErrorCode::EC_Timeout,
            "tx %llu timed out in the staging backlog before work began",
            static_cast<unsigned long long>(J.Tx->id()));
        RT.finalize(*J.Tx, UpdatePhase::TimedOut, &E);
      }
      std::lock_guard<std::mutex> G(Lock);
      --InFlight;
      IdleCV.notify_all();
      continue;
    }

    // Resolve the artifact text into a Patch (parse + assemble) — off
    // the serving thread.
    trace::Span LoadSp("stage", "artifact.load");
    Error LoadErr;
    switch (J.Kind) {
    case Job::InMemory:
      J.Tx->P = std::move(J.P);
      break;
    case Job::Text: {
      Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(),
                                        J.Artifact, J.SourceName);
      if (P)
        J.Tx->P = std::move(*P);
      else
        LoadErr = P.takeError();
      break;
    }
    }
    LoadSp.finish();

    // Whole-patch static analysis, between manifest parse and everything
    // else: the freshly loaded patch is checked against the live
    // type/symbol state.  An error-severity finding refuses the update
    // *here* — before the durable journal writes an Intent — so a patch
    // the analyzer can prove bad never enters crash-recovery replay or
    // the staging pipeline.  Warnings and infos are recorded on the
    // transaction for `dsu-updatectl log` and GET /admin/lint.
    if (!LoadErr && J.Kind == Job::Text) {
      trace::Span AnalysisSp("stage", "analyze");
      analysis::AnalyzerEnv Env{RT.types(), RT.transformers(), RT.exports(),
                                RT.updateables(), RT.state()};
      analysis::AnalysisReport Report = analysis::analyzePatch(J.Tx->P, Env);
      AnalysisSp.setArg(Report.Findings.size());
      Report.AnalysisMs = AnalysisSp.finish(trace::Phase::Analysis) / 1e6;
      RT.countAnalysisFindings(Report.Findings.size());
      {
        std::lock_guard<std::mutex> G(J.Tx->RecLock);
        J.Tx->Rec.AnalysisRan = true;
        J.Tx->Rec.AnalysisMs = Report.AnalysisMs;
        J.Tx->Rec.CodeOnlyPredicted = Report.CodeOnlyPredicted;
        J.Tx->Rec.AnalysisFindings = Report.Findings;
        J.Tx->Rec.PatchId = J.Tx->P.Id;
      }
      const analysis::Finding *First = Report.firstError();
      if (First && RT.analysisGateEnabled())
        LoadErr = Error::make(
            ErrorCode::EC_Analysis,
            "patch %s refused by the update-safety analyzer: [%s] %s "
            "(%zu error finding(s) total)",
            J.Tx->P.Id.c_str(), First->Code.c_str(), First->Message.c_str(),
            Report.errorCount());
    }

    // Durable journal, phase one: for operator-submitted artifact text
    // the Intent — and the content-addressed artifact it names — must
    // be synced to disk *before* the staging pipeline touches the
    // runtime, so a crash anywhere between here and the terminal seal
    // is observable (and attempt-counted) at the next boot.  The same
    // call refuses artifacts whose hash tripped the crash-loop
    // quarantine; a journal append failure also refuses the update
    // rather than applying it unpersisted.  In-memory Patch values are
    // not journaled (documented in DESIGN.md §14).
    if (!LoadErr && J.Kind == Job::Text) {
      if (persist::UpdateJournal *Journal = RT.journal()) {
        // The artifact parsed, so the patch's own id is known — record
        // that (not the "(loading ...)" placeholder) so journal history
        // and quarantine reports name the patch the operator shipped.
        std::string PatchId = J.Tx->P.Id;
        {
          std::lock_guard<std::mutex> G(J.Tx->RecLock);
          J.Tx->Rec.PatchId = PatchId;
        }
        Expected<uint64_t> Seq = Journal->appendIntent(
            PatchId, J.Artifact, persist::IntentOrigin::Operator);
        if (Seq) {
          J.Tx->JournalSeq = *Seq;
          faultinject::maybeCrash(faultinject::CrashPoint::AfterIntent,
                                  PatchId);
        } else {
          LoadErr = Seq.takeError();
        }
      }
    }

    if (LoadErr) {
      DSU_LOG_WARN("staging worker: artifact rejected: %s",
                   LoadErr.str().c_str());
      RT.finalize(*J.Tx, UpdatePhase::StageFailed, &LoadErr);
    } else {
      (void)RT.stageInto(*J.Tx); // failures are recorded in the log
    }

    std::function<void()> Notify;
    {
      std::lock_guard<std::mutex> G(Lock);
      --InFlight;
      Notify = OnStaged;
    }
    IdleCV.notify_all();
    if (Notify)
      Notify(); // the staged tx may now be committable: wake listeners
  }
}
