//===- runtime/UpdateController.h - Asynchronous staging -------*- C++ -*-//
///
/// \file
/// The operator-facing staging engine: accepts patches (as in-memory
/// Patch values or as raw artifact text POSTed over the control plane)
/// and stages them on a dedicated worker thread, so the serving thread
/// never pays for verification, link preparation, or state-transform
/// builds.  Submission order fixes commit order: each submission is
/// enqueued on the runtime's update queue immediately, and the queue
/// commits strictly front-first.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_RUNTIME_UPDATECONTROLLER_H
#define DSU_RUNTIME_UPDATECONTROLLER_H

#include "runtime/UpdateTransaction.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

namespace dsu {

class Runtime;

/// Owns the staging worker of one runtime.  Obtain via
/// Runtime::controller(); destroyed with the runtime.
class UpdateController {
public:
  explicit UpdateController(Runtime &RT);
  ~UpdateController();
  UpdateController(const UpdateController &) = delete;
  UpdateController &operator=(const UpdateController &) = delete;

  /// Submits \p P for asynchronous staging and enqueues it for the next
  /// update point.  Returns immediately with the transaction handle.
  StagedUpdate stagePatch(Patch P);

  /// Submits a patch artifact by content (a VTAL/manifest patch text,
  /// e.g. the body of POST /admin/patches).  Parsing, verification and
  /// preparation all happen on the worker; a malformed artifact becomes
  /// a stage-failed transaction visible in the update log.
  /// With \p HoldForRollout set, the transaction is marked
  /// HeldForRollout *before* it is enqueued, so no pool worker can
  /// commit it at an update point — the rollout controller owns its
  /// commit and verdict.
  StagedUpdate stageArtifactText(std::string Text, std::string SourceName,
                                 bool HoldForRollout = false);

  /// Installs a notification fired (on the worker thread) every time a
  /// submitted job finishes staging — i.e. whenever a transaction may
  /// have become ready to commit.  The multi-core serving plane uses it
  /// to wake parked reactors so the update barrier forms without
  /// waiting out a poll timeout.  Pass nullptr to clear.
  void setOnStaged(std::function<void()> Fn);

  /// Jobs accepted but not yet fully staged.
  size_t backlog() const;

  /// Blocks until every accepted job has finished staging (test hook;
  /// commit still happens at the program's update point).
  void waitIdle();

private:
  struct Job {
    std::shared_ptr<UpdateTransaction> Tx;
    enum { InMemory, Text } Kind = InMemory;
    Patch P;
    std::string Artifact; ///< patch text
    std::string SourceName;
  };

  StagedUpdate submit(Job J);
  void workerMain();

  Runtime &RT;
  mutable std::mutex Lock;
  std::condition_variable CV;
  std::condition_variable IdleCV;
  std::deque<Job> Jobs;
  std::function<void()> OnStaged; ///< guarded by Lock; invoked unlocked
  bool Stopping = false;
  unsigned InFlight = 0; ///< jobs popped but still staging
  std::thread Worker;
};

} // namespace dsu

#endif // DSU_RUNTIME_UPDATECONTROLLER_H
