//===- runtime/UpdateQueue.h - Pending updates and update points -*- C++ -*-//
///
/// \file
/// The update-point mechanism over staged transactions.  Programs call
/// updatePoint() at places they deem safe (the top of an event loop,
/// between requests); the call is a single relaxed atomic flag test when
/// no transaction is actionable, so it can sit on hot paths — the same
/// contract as the PLDI 2001 `update` primitive.
///
/// The queue holds UpdateTransactions in submission order and preserves
/// strict FIFO commit order: updatePoint() pops from the front only
/// while the front transaction is actionable (ready to commit, or
/// terminal and awaiting collection).  A transaction still staging
/// blocks later — even already-ready — transactions, so updates commit
/// in exactly the order operators submitted them.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_RUNTIME_UPDATEQUEUE_H
#define DSU_RUNTIME_UPDATEQUEUE_H

#include "runtime/UpdateTransaction.h"

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace dsu {

/// FIFO of staged update transactions plus the hot-path pending flag.
class UpdateQueue {
public:
  /// True when the front transaction is actionable at the next update
  /// point.  Hot path: relaxed load, no fence, no branch beyond the test
  /// itself.
  bool pending() const { return Pending.load(std::memory_order_relaxed); }

  /// Appends \p Tx in submission order.  Returns false (and leaves the
  /// queue unchanged) when \p Tx was already enqueued once.
  bool enqueue(std::shared_ptr<UpdateTransaction> Tx);

  /// Pops and returns the front transaction if it is actionable —
  /// ready to commit, or already terminal (failed, aborted, or
  /// committed directly through its handle) and awaiting collection —
  /// and accepted by \p Accept, evaluated on the front under the queue
  /// lock; nullptr otherwise.  The FIFO guarantee lives here: a staging
  /// (or mid-commit) front blocks everything behind it.  A rolling
  /// update point accepts only fronts that need no barrier, leaving a
  /// state-migrating front in place for the barrier.
  std::shared_ptr<UpdateTransaction> popActionableIf(
      const std::function<bool(const UpdateTransaction &)> &Accept);

  /// The front transaction without popping (nullptr when empty).
  std::shared_ptr<UpdateTransaction> front() const;

  /// Returns \p Tx to the *front* of the queue (commit-order position),
  /// used when a popped transaction turns out to need the barrier after
  /// all (its plan was reclassified during commit-time revalidation).
  void pushFront(std::shared_ptr<UpdateTransaction> Tx);

  /// Recomputes the pending flag after a transaction phase transition
  /// (staging finished, abort landed).
  void refresh();

  /// Number of transactions waiting (any phase).
  size_t depth() const;

  /// Snapshot of the queued transactions, front first (introspection:
  /// the admin endpoint's pending view).
  std::vector<std::shared_ptr<UpdateTransaction>> snapshot() const;

private:
  static bool actionable(const UpdateTransaction &Tx) {
    UpdatePhase P = Tx.phase();
    return P != UpdatePhase::Staging && P != UpdatePhase::Committing;
  }
  void refreshLocked();

  std::atomic<bool> Pending{false};
  mutable std::mutex Lock;
  std::deque<std::shared_ptr<UpdateTransaction>> Items;
};

} // namespace dsu

#endif // DSU_RUNTIME_UPDATEQUEUE_H
