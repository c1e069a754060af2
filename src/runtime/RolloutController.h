//===- runtime/RolloutController.h - Metric-gated canary rollouts -*- C++ -*-//
///
/// \file
/// The rollout control plane: commit a patch on a canary subset of the
/// worker fleet first, observe health counters for a configurable
/// window, and either promote the patch to every worker or roll it back
/// automatically — the operator never has to watch the deploy.
///
/// The state machine is
///
///     Staged -> Canary -> Observing -> Promoted
///                              \-> RolledBack
///        \-> Failed (staging rejected / timed out / rollout abandoned)
///
/// *Canary* commits a code-only patch as a rolling update whose
/// RollEntries carry a worker-id mask (see RollEntry::CanaryMask): only
/// canary workers adopt the new bindings at their quiescent points;
/// every control worker keeps executing the old code.  *Observing*
/// compares the canary group's error rate, serve latency and VTAL trap
/// count against the control group over the window, trips early on
/// clear failures, and resolves the gate:
///
///  - promotion lowers every entry's PromoteEpoch inside one epoch
///    advance, so the rest of the fleet adopts the patch at their own
///    quiescent points — still no barrier;
///  - rollback is one rolling swing back to each replaced slot's
///    previous binding, published in the same epoch advance that
///    resolves the gates (Runtime::rollback): no worker
///    parks, the canary's in-flight request finishes on the code it
///    started with, and no control worker ever runs the bad binding.
///
/// Rollouts are code-only.  State is shared, not per-worker, so a
/// state-migrating patch cannot be worker-gated, and a rolling swing
/// cannot undo its migration: such a patch fails its rollout and its
/// transaction is aborted (POST /admin/patches applies it).  A fleet of
/// fewer than two workers cannot hold back a control group: its rollout
/// commits ungated and is judged on absolute rates.
///
/// While a rollout is in flight the runtime-wide rollout latch freezes
/// the ordinary commit pipeline (Runtime::rolloutActive()) and refuses
/// an operator rollback with EC_Busy: a stacked commit or a rollback
/// swing during observation would corrupt the one-version-deep history
/// auto-rollback depends on.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_RUNTIME_ROLLOUTCONTROLLER_H
#define DSU_RUNTIME_ROLLOUTCONTROLLER_H

#include "net/WorkerStats.h"
#include "support/Error.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dsu {

class Runtime;
class UpdateTransaction;
struct RollEntry;

/// Health-gate and pacing configuration for one rollout.
struct RolloutOptions {
  /// Size of the canary group (clamped to fleet size - 1 and to the
  /// 64-bit mask width); the lowest-indexed workers are chosen.
  unsigned CanaryWorkers = 1;

  /// Observation window after the canary commit.
  uint64_t WindowMs = 500;

  /// Error gate: trips when (canary 5xx rate - control 5xx rate)
  /// exceeds this, with at least MinSamples canary serves observed.
  double MaxErrorDelta = 0.01;

  /// Latency gate: trips when (canary mean serve us - control mean
  /// serve us) exceeds this.  Negative disables the gate (default: a
  /// canary sharing a small host with the control group sees noisy
  /// scheduling latency).
  double MaxLatencyDeltaUs = -1;

  /// Sample floor: the error and latency gates need this many serves in
  /// the canary group before they may trip (or block promotion).  An
  /// idle window with no traffic and no traps promotes.
  uint64_t MinSamples = 8;

  /// Trap gate: trips when the patch's new bindings trap (VTAL runtime
  /// fault or fuel exhaustion) more than this many times.  Zero
  /// tolerance by default — traps surface to callers as zero values,
  /// not HTTP errors, so the error gate alone would miss them.
  uint64_t MaxCanaryTraps = 0;

  /// Abandon the rollout if the patch has not staged (and reached the
  /// front of the update queue) within this deadline; the transaction
  /// is aborted so it cannot block later updates.
  uint64_t StageTimeoutMs = 10000;
};

/// One rollout's introspectable record (GET /admin/rollouts).
struct RolloutRecord {
  uint64_t Id = 0;
  uint64_t TxId = 0;
  std::string PatchId;
  std::string State;   ///< "staged", "canary", "observing", "promoted",
                       ///< "rolled-back", "failed"
  std::string Verdict; ///< "" until resolved, then "promoted"/"rolled-back"
  std::string Reason;  ///< which gate tripped, or why the rollout failed
  uint64_t CanaryMask = 0; ///< UINT64_MAX: ungated (fleet < 2 workers)
  uint64_t WindowMs = 0;

  double DetectMs = 0; ///< canary commit -> gate verdict
  double RevertMs = 0; ///< gate trip -> rollback complete (0 if promoted)

  // Group health over the observation window (deltas, not totals).
  uint64_t CanaryRequests = 0;
  uint64_t CanaryServes = 0;
  uint64_t CanaryErrors = 0;
  uint64_t CanaryTraps = 0;
  uint64_t ControlRequests = 0;
  uint64_t ControlServes = 0;
  uint64_t ControlErrors = 0;
  double CanaryErrorRate = 0;
  double ControlErrorRate = 0;
};

/// Drives metric-gated canary rollouts over a Runtime.  The serving
/// plane is injected as hooks so this stays a runtime-layer component:
/// the net layer (or a test) supplies worker counters without the
/// runtime linking against it.
class RolloutController {
public:
  struct Hooks {
    /// Fleet size; 0 or unset means "no worker fleet": the rollout
    /// commits ungated, with baseline-relative gates.
    std::function<size_t()> WorkerCount;
    /// Per-worker health counters, indexed [0, WorkerCount()).
    std::function<const net::WorkerStats *(size_t)> Stats;
    /// Nudges workers out of epoll_wait so held/terminal transactions
    /// are noticed promptly.  Optional.
    std::function<void()> Wake;
  };

  RolloutController(Runtime &RT, Hooks H);
  ~RolloutController();
  RolloutController(const RolloutController &) = delete;
  RolloutController &operator=(const RolloutController &) = delete;

  /// Starts a rollout of a patch artifact (VTAL/manifest text, e.g. the
  /// body of POST /admin/rollout).  Stages asynchronously, commits
  /// canary-gated, observes, and resolves the verdict — all on the
  /// rollout thread.  Returns the rollout id immediately, or EC_Busy if
  /// a rollout is already in flight (one at a time: the gates compare
  /// counters that a concurrent rollout would pollute).
  Expected<uint64_t> startArtifactText(std::string Text,
                                       std::string SourceName,
                                       RolloutOptions Opts);

  /// All rollouts, newest last.
  std::vector<RolloutRecord> rollouts() const;

  /// One rollout by id.
  Expected<RolloutRecord> rollout(uint64_t Id) const;

  /// True while a rollout is staging/observing.
  bool busy() const { return Busy.load(std::memory_order_acquire); }

  /// Blocks until the in-flight rollout (if any) resolves.
  void waitIdle();

private:
  struct GroupSample {
    uint64_t Requests = 0;
    uint64_t Serves = 0;
    uint64_t Errors = 0;
    uint64_t ServeUs = 0;
  };

  void runOne(std::shared_ptr<UpdateTransaction> Tx, RolloutOptions Opts,
              size_t RecIdx);
  /// Sums the workers' counters into the canary (bit set in \p Mask)
  /// and control groups.  \p CanaryWorkers gets each canary worker's
  /// own sample, indexed by worker (zero for control workers).
  void sampleGroups(uint64_t Mask, GroupSample &Canary, GroupSample &Control,
                    std::vector<GroupSample> &CanaryWorkers) const;
  uint64_t trapsInNewBindings(const std::vector<std::string> &Names) const;
  void setRecord(size_t RecIdx, const std::function<void(RolloutRecord &)> &Fn);

  Runtime &RT;
  Hooks H;

  mutable std::mutex Lock; ///< guards Records and Thread handoff
  std::vector<RolloutRecord> Records;
  std::thread Thread; ///< at most one rollout in flight
  std::atomic<bool> Busy{false};
  uint64_t NextId = 1;
};

} // namespace dsu

#endif // DSU_RUNTIME_ROLLOUTCONTROLLER_H
