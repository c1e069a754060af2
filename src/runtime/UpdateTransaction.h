//===- runtime/UpdateTransaction.h - Staged update transactions -*- C++ -*-//
///
/// \file
/// The transactional form of a dynamic update.  A patch no longer enters
/// the runtime as an opaque closure: it becomes an UpdateTransaction
/// with an explicit lifecycle
///
///     staging -> ready -> committing -> committed
///                  \-> aborted          \-> commit-failed
///        \-> stage-failed
///
/// *Staging* (verification, link preparation, state-transform builds)
/// runs on any thread and performs no program mutation; *commit* runs at
/// an update point on the update thread and is only the atomic binding
/// swings plus the (generation-validated) state payload swaps — the
/// split that shrinks the serving pause from full-pipeline cost to
/// commit cost.  Every transaction is introspectable: id, patch id,
/// phase, and the per-stage timing record the E3 experiment reports.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_RUNTIME_UPDATETRANSACTION_H
#define DSU_RUNTIME_UPDATETRANSACTION_H

#include "analysis/Finding.h"
#include "patch/Patch.h"
#include "state/Transform.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace dsu {

class Runtime;
class UpdateController;
class UpdateQueue;

/// Lifecycle phase of one update transaction.
enum class UpdatePhase {
  Staging,      ///< queued or being verified/prepared/built
  Ready,        ///< staged; awaiting commit at an update point
  Committing,   ///< the update thread is swinging bindings
  Committed,    ///< applied; the program runs the new code
  StageFailed,  ///< rejected during staging (program untouched)
  CommitFailed, ///< rejected at commit (rolled back, program untouched)
  Aborted,      ///< withdrawn by the operator before commit
  TimedOut,     ///< staging exceeded the watchdog deadline (aborted so it
                ///< cannot head-of-line-block the FIFO update queue)
};

/// Stable lower-case name for \p P ("staging", "ready", "committed", ...).
const char *updatePhaseName(UpdatePhase P);

/// Timing and outcome of one update transaction, kept while it is in
/// flight and appended to the runtime's update log when it reaches a
/// terminal phase.
struct UpdateRecord {
  uint64_t TxId = 0;
  std::string PatchId;
  std::string Phase; ///< terminal (or current) phase name
  bool Succeeded = false;
  std::string FailureReason;

  // The transactional split: what ran off-thread vs. what the program
  // paused for.
  double StageMs = 0;  ///< verify + link prepare + state build (any thread)
  double CommitMs = 0; ///< pause at the update point (swings + swaps)

  double VerifyMs = 0;    ///< VTAL verification (0 for native patches)
  double PrepareMs = 0;   ///< link preparation within staging
  double BuildMs = 0;     ///< state-transform build within staging
  double LinkMs = 0;      ///< prepare + commit of the link unit
  double TransformMs = 0; ///< state build + commit-time swap/rebuild
  double TotalMs = 0;     ///< StageMs + CommitMs

  /// True when the commit had to rebuild the state migration because a
  /// cell mutated between staging and commit (the optimistic protocol's
  /// slow path).
  bool StateRebuilt = false;

  /// How the commit landed: "rolling" (code-only, barrier-free — every
  /// worker swings at its own quiescent point) or "barrier" (global
  /// quiescence; required whenever state migrates or types bump).
  /// Empty until the transaction commits.
  std::string CommitMode;

  /// Interval from staging-complete (phase Ready) to the commit landing
  /// at an update point — the operator-visible update-latency SLO
  /// (dsu_stage_to_commit_us in /admin/metrics).
  uint64_t StageToCommitUs = 0;

  size_t CodeBytes = 0; ///< artifact size
  size_t InstructionsVerified = 0;
  size_t CellsMigrated = 0;
  size_t ProvidesLinked = 0;

  /// Canary rollout verdict, when this transaction was committed through
  /// the rollout controller: "promoted" (health gates passed; the patch
  /// reached the whole fleet) or "rolled-back" (a gate tripped and the
  /// canary was reverted).  Empty for updates committed directly.
  std::string Rollout;

  /// Whole-patch analyzer results.  AnalysisRan distinguishes "the
  /// analyzer found nothing" from "this staging path never ran it"
  /// (in-memory patches bypass the manifest-parse gate).  Error-severity
  /// findings refuse staging before the journal Intent is written;
  /// warnings and infos ride along here for `dsu-updatectl log` and
  /// GET /admin/lint.
  bool AnalysisRan = false;
  std::vector<analysis::Finding> AnalysisFindings;
  double AnalysisMs = 0;
  /// The analyzer's code-only prediction (meaningful when AnalysisRan);
  /// stageInto cross-checks it against the actual classification.
  bool CodeOnlyPredicted = false;
};

/// One staged update in flight.  Created by Runtime::stage() (or the
/// UpdateController's staging worker); owned via shared_ptr by the queue
/// and any StagedUpdate handles.
class UpdateTransaction {
public:
  uint64_t id() const { return Id; }
  UpdatePhase phase() const { return Phase.load(std::memory_order_acquire); }

  /// The patch id ("(loading)" until an asynchronously posted artifact
  /// has been parsed).
  std::string patchId() const;

  /// Snapshot of the timing/outcome record (consistent copy).
  UpdateRecord record() const;

private:
  friend class Runtime;
  friend class UpdateController;
  friend class UpdateQueue;
  friend class RolloutController;

  explicit UpdateTransaction(uint64_t Id) : Id(Id) {}

  const uint64_t Id;
  std::atomic<UpdatePhase> Phase{UpdatePhase::Staging};
  std::atomic<bool> AbortRequested{false};
  bool Enqueued = false; ///< on the runtime's update queue (set once)

  /// Reserved by a rollout: pool workers must not commit this
  /// transaction at their quiescent points — the RolloutController
  /// commits it itself, canary-gated, and drives the verdict.  Atomic
  /// because workers read it from UpdateQueue acceptance predicates.
  std::atomic<bool> HeldForRollout{false};

  /// Absolute staging deadline (steady clock); zero (the epoch) = no
  /// watchdog.  Set before the transaction is handed to the staging
  /// pipeline; stageInto() checks it between stages and the staged
  /// controller checks it while the job queues.
  std::chrono::steady_clock::time_point StageDeadline{};

  /// Staging-time classification: true when the patch migrates no state,
  /// bumps no types and ships no transformers — the cheap common case
  /// the paper identifies, committable as a rolling (barrier-free)
  /// update.  Commit-time revalidation may demote it to false.
  std::atomic<bool> CodeOnly{false};

  /// When staging completed (phase turned Ready), in trace-recorder
  /// nanoseconds; start of the stage->commit latency interval.  0 until
  /// then.
  uint64_t ReadyAtNs = 0;

  /// Sequence number of this transaction's durable-journal Intent, or 0
  /// when the update is not journaled.  Set before the transaction
  /// enters the staging pipeline (by the controller worker or
  /// Runtime::stage), read by Runtime::finalize to seal the
  /// Intent with the terminal outcome.
  uint64_t JournalSeq = 0;

  /// The patch, consumed by staging.
  Patch P;

  // Staged artifacts, valid in phase Ready.
  LinkPlan Plan;
  std::vector<VersionBump> DeclaredBumps; ///< from the patch's new types
  std::vector<VersionBump> Bumps;         ///< union with the plan's bumps
  StagedStateSwap Swap;
  uint64_t PreparedAtGeneration = 0; ///< runtime commit generation observed

  mutable std::mutex RecLock; ///< guards Rec (read from other threads)
  UpdateRecord Rec;
};

/// The operator's handle on a staged transaction: observe its phase,
/// commit it at a safe point, or abort it.  Copyable; all copies refer
/// to the same transaction.
class StagedUpdate {
public:
  StagedUpdate() = default;

  bool valid() const { return Tx != nullptr; }
  uint64_t id() const { return Tx->id(); }
  UpdatePhase phase() const { return Tx->phase(); }
  UpdateRecord record() const { return Tx->record(); }

  /// Commits this transaction now.  The caller asserts this is a safe
  /// point on the update thread; refused with EC_Busy when updateable
  /// code is active on this thread, and with EC_Invalid when the
  /// transaction is not ready (already committed, aborted, or failed).
  Error commit();

  /// Withdraws the transaction: a ready transaction aborts immediately,
  /// one still staging aborts when staging completes.  Fails with
  /// EC_Invalid once the transaction is terminal.
  Error abort();

private:
  friend class Runtime;
  friend class UpdateController;
  friend class RolloutController;

  StagedUpdate(Runtime *RT, std::shared_ptr<UpdateTransaction> Tx)
      : RT(RT), Tx(std::move(Tx)) {}

  Runtime *RT = nullptr;
  std::shared_ptr<UpdateTransaction> Tx;
};

} // namespace dsu

#endif // DSU_RUNTIME_UPDATETRANSACTION_H
