//===- runtime/RolloutController.cpp --------------------------*- C++ -*-===//

#include "runtime/RolloutController.h"

#include "core/Runtime.h"
#include "epoch/Epoch.h"
#include "runtime/UpdateController.h"
#include "support/Logging.h"
#include "support/StringUtil.h"
#include "trace/Trace.h"

#include <algorithm>
#include <chrono>

using namespace dsu;

namespace {

double elapsedMsSince(std::chrono::steady_clock::time_point Since) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - Since)
      .count();
}

} // namespace

RolloutController::RolloutController(Runtime &RT, Hooks H)
    : RT(RT), H(std::move(H)) {}

RolloutController::~RolloutController() {
  std::thread T;
  {
    std::lock_guard<std::mutex> G(Lock);
    T = std::move(Thread);
  }
  if (T.joinable())
    T.join();
}

Expected<uint64_t> RolloutController::startArtifactText(std::string Text,
                                                        std::string SourceName,
                                                        RolloutOptions Opts) {
  bool Idle = false;
  if (!Busy.compare_exchange_strong(Idle, true, std::memory_order_acq_rel))
    return Error::make(ErrorCode::EC_Busy,
                       "a rollout is already in flight; its health gates "
                       "compare counters a concurrent rollout would "
                       "pollute — retry after it resolves");

  std::lock_guard<std::mutex> G(Lock);
  if (Thread.joinable())
    Thread.join(); // the previous (resolved) rollout's thread

  // Stage held-for-rollout *before* the transaction is enqueued: no
  // pool worker may ever commit it at an ordinary update point.
  StagedUpdate U = RT.controller().stageArtifactText(
      std::move(Text), SourceName, /*HoldForRollout=*/true);
  std::shared_ptr<UpdateTransaction> Tx = U.Tx;

  InFlight.emplace();
  InFlight->Id = NextId++;
  InFlight->TxId = Tx->id();
  InFlight->PatchId = Tx->patchId();
  InFlight->State = "staged";
  InFlight->WindowMs = Opts.WindowMs;

  Thread = std::thread([this, Tx = std::move(Tx), Opts] { runOne(Tx, Opts); });
  return InFlight->Id;
}

// Both views hold Lock across the log read: a rollout's end moves the
// in-flight record into the log under it, so no view sees a rollout
// twice or not at all.
std::vector<RolloutRecord> RolloutController::rollouts() const {
  std::lock_guard<std::mutex> G(Lock);
  std::vector<RolloutRecord> Out;
  RT.forEachUpdate([&](const UpdateRecord &R) {
    if (R.Rollout)
      Out.push_back(*R.Rollout);
  });
  if (InFlight)
    Out.push_back(*InFlight);
  return Out;
}

Expected<RolloutRecord> RolloutController::rollout(uint64_t Id) const {
  std::lock_guard<std::mutex> G(Lock);
  if (InFlight && InFlight->Id == Id)
    return *InFlight;
  std::shared_ptr<const RolloutRecord> Found;
  RT.forEachUpdate([&](const UpdateRecord &R) {
    if (R.Rollout && R.Rollout->Id == Id)
      Found = R.Rollout;
  });
  if (Found)
    return *Found;
  return Error::make(ErrorCode::EC_Invalid, "no rollout with id %llu",
                     static_cast<unsigned long long>(Id));
}

void RolloutController::waitIdle() {
  while (Busy.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void RolloutController::setRecord(
    const std::function<void(RolloutRecord &)> &Fn) {
  std::lock_guard<std::mutex> G(Lock);
  Fn(*InFlight);
}

void RolloutController::sampleGroups(
    uint64_t Mask, GroupSample &Canary, GroupSample &Control,
    std::vector<GroupSample> &CanaryWorkers) const {
  size_t N = H.WorkerCount ? H.WorkerCount() : 0;
  CanaryWorkers.assign(N, GroupSample{});
  for (size_t I = 0; I != N; ++I) {
    const net::WorkerStats *S = H.Stats ? H.Stats(I) : nullptr;
    if (!S)
      continue;
    // Requests before Serves: each worker notes a request before its
    // handler runs and the serve after, so a finished request never
    // reads as in flight.
    GroupSample W{S->Requests.load(std::memory_order_relaxed),
                  S->Serves.load(std::memory_order_relaxed),
                  S->Errors5xx.load(std::memory_order_relaxed),
                  S->ServeTotalUs.load(std::memory_order_relaxed)};
    bool IsCanary = I < 64 && ((Mask >> I) & 1);
    GroupSample &G = IsCanary ? Canary : Control;
    G.Requests += W.Requests;
    G.Serves += W.Serves;
    G.Errors += W.Errors;
    G.ServeUs += W.ServeUs;
    if (IsCanary)
      CanaryWorkers[I] = W;
  }
}

uint64_t RolloutController::trapsInNewBindings(
    const std::vector<std::string> &Names) const {
  // The bindings this patch installed were created with zeroed trap
  // counters at prepare time, so their absolute counts are exactly the
  // traps attributable to the rollout.
  uint64_t Traps = 0;
  epoch::Guard G; // the bindings stay allocated while their counts are read
  for (const std::string &Name : Names)
    if (const UpdateableSlot *Slot = RT.updateables().lookup(Name))
      if (const Binding *B = Slot->newest())
        Traps += B->trapCount();
  return Traps;
}

void RolloutController::runOne(std::shared_ptr<UpdateTransaction> Tx,
                               RolloutOptions Opts) {
  // Every event the rollout thread records below lands in this
  // update's span tree.
  trace::ScopedUpdateId TraceId(Tx->id());
  auto Finish = [&] {
    // Every path here leaves Tx terminal or, after an abort mid-staging,
    // about to be: its stager finalizes it when staging ends.  Then the
    // in-flight record moves into Tx's record, and that into the log.
    auto Finalized = [&] {
      std::lock_guard<std::mutex> G(Tx->RecLock);
      return Tx->Finalized;
    };
    while (!Finalized())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      std::lock_guard<std::mutex> G(Lock);
      RT.settleRollout(*Tx, std::move(*InFlight));
      InFlight.reset();
    }
    RT.setRolloutActive(false);
    if (H.Wake)
      H.Wake(); // collect the terminal front tx promptly
    Busy.store(false, std::memory_order_release);
  };
  auto Fail = [&](std::string Reason) {
    DSU_LOG_WARN("rollout of tx %llu failed: %s",
                 static_cast<unsigned long long>(Tx->id()), Reason.c_str());
    setRecord([&](RolloutRecord &R) {
      R.State = "failed";
      R.Reason = std::move(Reason);
      R.PatchId = Tx->patchId();
    });
    Finish();
  };

  // --- Staged: wait for the staging pipeline, bounded. -------------------
  trace::Span StageWaitSp("rollout", "stage.wait");
  auto StageStart = std::chrono::steady_clock::now();
  auto StageOverdue = [&] {
    return Opts.StageTimeoutMs != 0 &&
           elapsedMsSince(StageStart) > static_cast<double>(Opts.StageTimeoutMs);
  };
  while (true) {
    UpdatePhase P = Tx->phase();
    if (P == UpdatePhase::Ready)
      break;
    if (P != UpdatePhase::Staging)
      return Fail(formatString("staging ended in phase '%s': %s",
                               updatePhaseName(P),
                               Tx->record().FailureReason.c_str()));
    if (StageOverdue()) {
      (void)RT.abortStagedTx(Tx);
      return Fail("staging exceeded the rollout's stage deadline; "
                  "transaction aborted");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  StageWaitSp.finish();

  // Wait until this transaction reaches the front of the FIFO queue:
  // updates ahead of it must commit first (in submission order), and
  // the rollout must not freeze the pipeline while they wait.
  trace::Span QueueWaitSp("rollout", "queue.wait");
  while (RT.Queue.front().get() != Tx.get()) {
    if (StageOverdue()) {
      (void)RT.abortStagedTx(Tx);
      return Fail("queued updates ahead of the rollout did not drain in "
                  "time; transaction aborted");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  QueueWaitSp.finish();

  // --- Canary: freeze the commit pipeline and commit gated. --------------
  // The latch keeps any later submission from committing during the
  // observation window: a stacked commit would make the registry's
  // rollback history point at the canary binding instead of the
  // pre-rollout one, breaking auto-revert.
  RT.setRolloutActive(true);

  // Snapshot the provide lists while the plan is still intact (commit
  // consumes it): replacements are what rollback reverts; all provides
  // carry trap counters the trap gate reads.
  std::vector<std::string> AllNames, ReplacedNames;
  for (size_t I = 0; I != Tx->Plan.Unit.Provides.size(); ++I) {
    AllNames.push_back(Tx->Plan.Unit.Provides[I].Name);
    if (Tx->Plan.IsReplacement[I])
      ReplacedNames.push_back(Tx->Plan.Unit.Provides[I].Name);
  }

  // A fleet of at least two workers holds back a control group; a
  // smaller one commits ungated and is judged on absolute rates (every
  // worker is in the "canary" group, the control group is empty).
  size_t Workers = H.WorkerCount ? H.WorkerCount() : 0;
  uint64_t Mask = UINT64_MAX;
  if (Workers >= 2) {
    unsigned K = std::min<unsigned>(
        {Opts.CanaryWorkers ? Opts.CanaryWorkers : 1,
         static_cast<unsigned>(Workers) - 1, 63});
    Mask = (uint64_t(1) << K) - 1;
  }
  setRecord([&](RolloutRecord &R) {
    R.State = "canary";
    R.CanaryMask = Mask;
    R.PatchId = Tx->patchId();
  });
  std::vector<RollEntry *> Gated;
  bool NeedsBarrier = false;
  Error E = RT.commitTx(Tx, /*Rolling=*/true, Mask, &Gated, &NeedsBarrier);
  if (NeedsBarrier) {
    // The patch migrates state (as staged, or after revalidation); the
    // transaction is back to Ready with nothing mutated.  Rollouts are
    // code-only: a rollback is a rolling swing, and a rolling swing
    // cannot undo a state migration.
    (void)RT.abortStagedTx(Tx);
    return Fail("the patch migrates state, and rollouts are code-only; "
                "transaction aborted — apply it through POST "
                "/admin/patches");
  }
  if (E)
    return Fail("canary commit rejected: " + E.str());

  // --- Observing: compare canary vs control over the window. -------------
  // The observe span times commit -> verdict (DetectMs); CommitAt is the
  // clock the window and stall gate decide on.
  trace::Span ObserveSp("rollout", "observe");
  auto CommitAt = std::chrono::steady_clock::now();
  GroupSample Can0, Ctl0;
  std::vector<GroupSample> PerCanary;
  sampleGroups(Mask, Can0, Ctl0, PerCanary);
  setRecord([&](RolloutRecord &R) { R.State = "observing"; });

  GroupSample DCan, DCtl;
  double CanRate = 0, CtlRate = 0;
  uint64_t Traps = 0;
  std::string TripReason;
  // Stall evidence, per canary worker: since Since, every poll saw a
  // request of that worker in its handler and none of its serves
  // completed.  Per worker, because one healthy canary's serves must
  // not hide a wedged one.
  struct StallWatch {
    uint64_t Serves = 0;
    bool InFlight = false;
    std::chrono::steady_clock::time_point Since;
  };
  std::vector<StallWatch> Stalls;
  for (const GroupSample &W : PerCanary)
    Stalls.push_back({W.Serves, false, CommitAt});

  auto Sample = [&] {
    GroupSample Can1, Ctl1;
    sampleGroups(Mask, Can1, Ctl1, PerCanary);
    auto Now = std::chrono::steady_clock::now();
    for (size_t I = 0; I != Stalls.size() && I != PerCanary.size(); ++I) {
      StallWatch &W = Stalls[I];
      W.InFlight = PerCanary[I].Requests > PerCanary[I].Serves;
      if (!W.InFlight || PerCanary[I].Serves != W.Serves)
        W.Since = Now;
      W.Serves = PerCanary[I].Serves;
    }
    DCan = {Can1.Requests - Can0.Requests, Can1.Serves - Can0.Serves,
            Can1.Errors - Can0.Errors, Can1.ServeUs - Can0.ServeUs};
    DCtl = {Ctl1.Requests - Ctl0.Requests, Ctl1.Serves - Ctl0.Serves,
            Ctl1.Errors - Ctl0.Errors, Ctl1.ServeUs - Ctl0.ServeUs};
    CanRate = DCan.Serves
                  ? static_cast<double>(DCan.Errors) / DCan.Serves
                  : 0;
    CtlRate = DCtl.Serves
                  ? static_cast<double>(DCtl.Errors) / DCtl.Serves
                  : 0;
    Traps = trapsInNewBindings(AllNames);
  };

  // Monotone gates may trip early — the sooner a bad canary is caught,
  // the fewer requests it serves.  The latency and stall gates need the
  // full window (means stabilize; a stall is only evident at the end).
  auto evalMonotone = [&]() -> std::string {
    if (Traps > Opts.MaxCanaryTraps)
      return formatString("trap gate: canary bindings trapped %llu time(s) "
                          "(budget %llu)",
                          static_cast<unsigned long long>(Traps),
                          static_cast<unsigned long long>(Opts.MaxCanaryTraps));
    if (DCan.Serves >= Opts.MinSamples &&
        CanRate - CtlRate > Opts.MaxErrorDelta)
      return formatString("error gate: canary 5xx rate %.4f vs control "
                          "%.4f exceeds max delta %.4f",
                          CanRate, CtlRate, Opts.MaxErrorDelta);
    return std::string();
  };

  uint64_t Polls = 0;
  uint64_t PollMs = std::max<uint64_t>(1, std::min<uint64_t>(
                                              Opts.WindowMs / 20, 20));
  while (elapsedMsSince(CommitAt) < static_cast<double>(Opts.WindowMs)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(PollMs));
    // One short span per health-gate poll: the trace shows how often
    // the gates looked and (via Arg) the canary serves seen so far.
    trace::Span PollSp("rollout", "gate.poll");
    ++Polls;
    Sample();
    TripReason = evalMonotone();
    PollSp.setArg(DCan.Serves);
    if (!TripReason.empty())
      break;
  }
  if (TripReason.empty()) {
    trace::Span PollSp("rollout", "gate.poll");
    ++Polls;
    Sample();
    TripReason = evalMonotone();
    PollSp.setArg(DCan.Serves);
  }
  if (TripReason.empty() && Opts.MaxLatencyDeltaUs >= 0 &&
      DCan.Serves >= Opts.MinSamples && DCtl.Serves >= Opts.MinSamples) {
    double CanMean = static_cast<double>(DCan.ServeUs) / DCan.Serves;
    double CtlMean = static_cast<double>(DCtl.ServeUs) / DCtl.Serves;
    if (CanMean - CtlMean > Opts.MaxLatencyDeltaUs)
      TripReason = formatString("latency gate: canary mean %.0fus vs "
                                "control %.0fus exceeds max delta %.0fus",
                                CanMean, CtlMean, Opts.MaxLatencyDeltaUs);
  }
  double StalledMs = 0;
  for (const StallWatch &W : Stalls)
    if (W.InFlight)
      StalledMs = std::max(StalledMs, elapsedMsSince(W.Since));
  if (TripReason.empty() &&
      StalledMs >= static_cast<double>(Opts.WindowMs) / 2)
    // A canary worker has had a request in its handler, with none of
    // its serves completing, for at least half the window: the patch
    // wedged its caller (e.g. a fuel bomb still burning).  A stuck
    // request yields no error sample, so only this gate can catch it.
    // A serve that completed earlier (old code finishing just after the
    // commit), or on another canary worker, does not hide the stall.
    TripReason = formatString("stall gate: a canary request has run for "
                              "%.0fms with no serve completing on its "
                              "worker (window %llums)",
                              StalledMs,
                              static_cast<unsigned long long>(Opts.WindowMs));

  ObserveSp.setArg(Polls);
  uint64_t DetectNs = ObserveSp.finish();
  double DetectMs = DetectNs / 1e6;

  // --- Verdict. ----------------------------------------------------------
  trace::Recorder::instance().instant(
      "rollout", TripReason.empty() ? "verdict.promoted" : "verdict.rolled_back",
      DetectNs / 1000);
  // Records the verdict and the window's group health, which both
  // outcomes report alike.
  auto Settle = [&](const char *Verdict, const std::string &Reason,
                    double RevertMs) {
    setRecord([&](RolloutRecord &R) {
      R.State = Verdict;
      R.Verdict = Verdict;
      R.Reason = Reason;
      R.DetectMs = DetectMs;
      R.RevertMs = RevertMs;
      R.CanaryRequests = DCan.Requests;
      R.CanaryServes = DCan.Serves;
      R.CanaryErrors = DCan.Errors;
      R.CanaryTraps = Traps;
      R.ControlRequests = DCtl.Requests;
      R.ControlServes = DCtl.Serves;
      R.ControlErrors = DCtl.Errors;
      R.CanaryErrorRate = CanRate;
      R.ControlErrorRate = CtlRate;
    });
    Finish();
  };
  if (TripReason.empty()) {
    if (!Gated.empty()) {
      // Promote: lower every gate inside one epoch advance — control
      // workers adopt the patch at their own next quiescent point,
      // exactly like an ungated rolling commit.
      struct PromoteCtx {
        std::vector<RollEntry *> *Entries;
      } Ctx{&Gated};
      epoch::domain().advanceWith(
          [](uint64_t E, void *Raw) {
            auto *C = static_cast<PromoteCtx *>(Raw);
            for (RollEntry *R : *C->Entries)
              R->PromoteEpoch.store(E, std::memory_order_release);
          },
          &Ctx);
    }
    DSU_LOG_INFO("rollout of tx %llu promoted after %.1fms",
                 static_cast<unsigned long long>(Tx->id()), DetectMs);
    Settle("promoted", "", 0);
    return;
  }

  // Roll back: one rolling swing that also resolves the gates, in one
  // epoch advance (Runtime::rollback).  No worker parks; the
  // canary's in-flight request finishes on the bad code, every request
  // after its worker's next quiescent point runs the old code, and a
  // control worker never runs the bad binding.
  trace::Span RevertSp("rollout", "revert", ReplacedNames.size());
  Error RevertErr = RT.rollback(ReplacedNames, &Gated);
  double RevertMs = RevertSp.finish() / 1e6;

  std::string Reason = TripReason;
  if (RevertErr)
    Reason += "; rollback error: " + RevertErr.str();
  DSU_LOG_INFO("rollout of tx %llu rolled back: %s (detected %.1fms, "
               "reverted %.1fms)",
               static_cast<unsigned long long>(Tx->id()), TripReason.c_str(),
               DetectMs, RevertMs);
  Settle("rolled-back", Reason, RevertMs);
}
