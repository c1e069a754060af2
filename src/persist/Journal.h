//===- persist/Journal.h - Durable update journal -------------*- C++ -*-===//
///
/// \file
/// Crash-safe persistence for the update chain.  In the PLDI 2001 system
/// a long-running service accretes its identity from the patches applied
/// to it; here that identity survives the process: every patch artifact
/// is content-addressed into a store directory and every update attempt
/// is recorded in an append-only, checksummed, fsync'd journal with
/// two-phase records:
///
///   Intent  — written (and synced) *before* Runtime::stage sees the
///             patch; names the artifact by content hash and carries the
///             attempt number.
///   Seal    — written after the outcome is known, referencing the
///             Intent by sequence number: Committed, RolledBack (stage/
///             commit failure, abort, watchdog timeout, or a canary
///             rollout verdict), Crashed (sealed at the *next* boot when
///             an Intent is found with no seal — the process died
///             mid-update), or Quarantined (crash-loop containment).
///
/// Boot-time recovery derives the committed patch chain (operator
/// intents whose latest seal is Committed, minus quarantined hashes) for
/// replay through the ordinary stage->commit pipeline, and seals every
/// unsealed Intent as Crashed.  A hash whose consecutive-Crashed streak
/// reaches QuarantineAfter is sealed Quarantined: it is dropped from the
/// replay chain and refused at staging, so a patch that kills the
/// process is contained instead of crash-looped.
///
/// Torn tails are expected, not fatal: records are length-prefixed and
/// FNV-64 checksummed, the scan stops at the first record that fails to
/// frame or verify, and the torn tail is truncated on reopen.
///
/// Single-writer discipline is enforced with an flock'd pidfile
/// (journal.lock): a second live process opening the same directory is
/// refused with EC_IO instead of interleaving appends.
///
/// Layering: this file depends only on support/ — the runtime attaches a
/// journal via an opaque pointer and persist/Replay.h (which does know
/// the runtime) drives boot-time replay.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_PERSIST_JOURNAL_H
#define DSU_PERSIST_JOURNAL_H

#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace dsu {
namespace persist {

/// On-disk record kinds.  Values are stable (they are written to disk);
/// append only.
enum class RecordKind : uint32_t {
  BootStart = 1,     ///< a process opened the journal and began recovery
  Intent = 2,        ///< a patch is about to enter the staging pipeline
  Seal = 3,          ///< outcome for one Intent (by sequence number)
  CleanShutdown = 4, ///< the process drained and exited deliberately
};

/// Who wrote an Intent: the operator control plane, or boot-time replay
/// re-applying the committed chain.  Replay intents carry crash
/// accounting (a patch that kills every boot crashes *during replay*)
/// but never extend the chain themselves.
enum class IntentOrigin : uint32_t { Operator = 0, Replay = 1 };

/// Seal outcomes.  Values are stable on disk.
enum class SealOutcome : uint32_t {
  Committed = 0,   ///< the update landed (bindings swung, state migrated)
  RolledBack = 1,  ///< rejected, aborted, timed out, or canary-reverted
  Quarantined = 2, ///< crash-loop containment: excluded from the chain
  Crashed = 3,     ///< sealed at the next boot: died between Intent and Seal
};

const char *recordKindName(RecordKind K);
const char *sealOutcomeName(SealOutcome O);
const char *intentOriginName(IntentOrigin O);

/// One journal record, decoded.  Fields beyond Kind/Seq/WallMs are
/// meaningful per kind (see the writers in Journal.cpp).
struct JournalRecord {
  RecordKind Kind = RecordKind::Intent;
  uint64_t Seq = 0;    ///< monotonically increasing, 1-based
  uint64_t WallMs = 0; ///< wall-clock milliseconds since the Unix epoch

  // BootStart
  std::string PrevExit; ///< supervisor-reported exit of the previous run

  // Intent
  std::string PatchId;
  std::string Hash; ///< 16-hex-digit artifact fingerprint (store key)
  IntentOrigin Origin = IntentOrigin::Operator;
  uint32_t Attempt = 1;   ///< 1 + consecutive-Crashed streak at write time
  uint64_t SizeBytes = 0; ///< artifact size

  // Seal
  uint64_t IntentSeq = 0; ///< the Intent this seals
  SealOutcome Outcome = SealOutcome::RolledBack;
  std::string CommitMode; ///< "rolling" / "barrier" / "canary" (when known)
  std::string Reason;     ///< failure/crash reason, empty on success
  std::string Verdict;    ///< rollout verdict ("promoted"/"rolled-back")
};

/// One entry of the committed chain, in commit (= journal) order.
struct ChainEntry {
  uint64_t IntentSeq = 0;
  std::string PatchId;
  std::string Hash;
};

/// A quarantined artifact, for the admin surface.
struct QuarantineInfo {
  std::string PatchId;
  std::string Hash;
  uint32_t CrashCount = 0; ///< consecutive crashes that tripped the policy
  uint64_t SealSeq = 0;    ///< the Quarantined seal's sequence number
};

/// What beginBoot() found and did.
struct BootInfo {
  uint64_t Boots = 0;      ///< BootStart records including this one
  bool PrevCrashed = false;///< previous run ended without CleanShutdown
  unsigned CrashSealed = 0;///< unsealed intents sealed Crashed now
  std::vector<std::string> NewlyQuarantined; ///< patch ids tripped now
};

/// Aggregate status for /admin/status and GET /admin/journal.
struct JournalStatus {
  uint64_t Boots = 0;
  bool PrevCrashed = false;
  uint64_t ChainLength = 0;
  uint64_t QuarantinedCount = 0;
  unsigned ReplayAttempted = 0;
  unsigned ReplayCommitted = 0;
  unsigned ReplayFailed = 0;
  uint64_t ReplayMs = 0;
};

/// The durable update journal: one directory holding
///
///   journal.log    the append-only record log
///   journal.lock   flock'd pidfile (single-writer enforcement)
///   store/<hash>.dsup   content-addressed patch artifacts
///
/// All methods are thread-safe: Intents are appended from the staging
/// worker, Seals from whichever thread finalizes a transaction (commit
/// thread, staging worker, or the rollout controller), and the admin
/// plane snapshots concurrently.
class UpdateJournal {
public:
  struct Options {
    /// Consecutive crashes (of one artifact hash) before quarantine.
    unsigned QuarantineAfter = 3;
    /// Synchronize appends to stable storage (fdatasync).  On by
    /// default; benches may disable it to measure the fsync cost.
    bool Sync = true;
  };

  /// Opens (creating if needed) the journal directory, acquires the
  /// single-writer lock, scans the log — truncating a torn tail — and
  /// rebuilds the in-memory index (one IntentEntry per Intent).  EC_IO
  /// when the directory is locked by a live process, cannot be created
  /// or cannot be synced; torn/corrupt tails are recovered, not errors.
  static Expected<std::unique_ptr<UpdateJournal>> open(const std::string &Dir,
                                                       Options Opts);
  static Expected<std::unique_ptr<UpdateJournal>> open(const std::string &Dir) {
    return open(Dir, Options());
  }

  ~UpdateJournal();
  UpdateJournal(const UpdateJournal &) = delete;
  UpdateJournal &operator=(const UpdateJournal &) = delete;

  /// Boot-time recovery: seals every unsealed Intent as Crashed (with
  /// \p PrevExit woven into the reason), applies the quarantine policy
  /// to the resulting streaks, and appends this boot's BootStart.  Call
  /// exactly once, before replay and before the listeners open.
  BootInfo beginBoot(const std::string &PrevExit);

  /// Phase one of an update: content-addresses \p ArtifactText into the
  /// store and appends (+syncs) the Intent.  Returns the Intent's
  /// sequence number — the handle every later Seal references.
  /// EC_Invalid when the artifact's hash is quarantined; EC_IO, with no
  /// Intent appended, when the artifact or the store directory holding
  /// it cannot be synced.
  Expected<uint64_t> appendIntent(const std::string &PatchId,
                                  const std::string &ArtifactText,
                                  IntentOrigin Origin);

  /// Phase two: seals \p IntentSeq with \p Outcome.  A later seal for
  /// the same Intent supersedes an earlier one (a canary rollout
  /// commits, then may roll back).
  Error appendSeal(uint64_t IntentSeq, SealOutcome Outcome,
                   const std::string &CommitMode, const std::string &Reason,
                   const std::string &Verdict = std::string());

  /// Marks a deliberate exit, so the next boot can tell a clean stop
  /// from a crash.
  Error sealCleanShutdown();

  /// True when \p Hash tripped the crash-loop policy.
  bool isQuarantined(const std::string &Hash) const;

  /// The committed chain (operator intents whose latest seal is
  /// Committed, quarantined hashes excluded), in commit order.
  std::vector<ChainEntry> committedChain() const;

  /// Reads one content-addressed artifact back from the store and
  /// verifies its fingerprint (EC_Corrupt on mismatch).
  Expected<std::string> readArtifact(const std::string &Hash) const;

  /// Every record, decoded from journal.log on each call (nothing but
  /// the index is kept in memory), for GET /admin/journal and the
  /// dsu-updatectl history command.
  std::vector<JournalRecord> records() const;

  /// Quarantined artifacts, for GET /admin/journal?quarantined=1.
  std::vector<QuarantineInfo> quarantined() const;

  /// Aggregate counters for /admin/status.
  JournalStatus status() const;

  /// Boot-time replay reports its outcome here so the admin plane can
  /// surface it (persist/Replay.cpp calls this; tests read status()).
  void noteReplay(unsigned Attempted, unsigned Committed, unsigned Failed,
                  uint64_t DurationMs);

  /// The artifact content hash used as the store key and the quarantine
  /// identity: the 16-hex-digit FNV-1a fingerprint of the artifact text.
  static std::string artifactHash(const std::string &ArtifactText);

private:
  UpdateJournal(std::string Dir, Options Opts);

  /// Scans journal.log, truncating a torn tail; called from open().
  Error recover();

  /// Calls \p Fn on each record of journal.log's valid prefix, in order,
  /// and with \p TruncateTail set cuts the file to that prefix.
  Error scanLog(const std::function<void(JournalRecord &)> &Fn,
                bool TruncateTail) const;

  /// Serializes one record, appends it (length + payload + checksum)
  /// and syncs.  Lock held by caller.
  Error appendLocked(JournalRecord &R);

  /// Applies \p R to the in-memory index.  Lock held by caller (or
  /// during single-threaded recovery).
  void indexRecord(const JournalRecord &R);

  /// What the journal keeps in memory of one Intent: enough to derive
  /// the committed chain, the quarantine table and crash accounting.
  struct IntentEntry {
    std::string PatchId;
    std::string Hash;
    IntentOrigin Origin = IntentOrigin::Operator;
    uint32_t Attempt = 1;
    std::optional<SealOutcome> Seal; ///< the latest seal's outcome
  };

  /// True when \p E is in the committed chain (Mu held).
  bool inChain(const IntentEntry &E) const;

  /// Consecutive-Crashed streak for \p Hash (reset by Committed).
  uint32_t crashStreak(const std::string &Hash) const;

  std::string Dir;
  Options Opts;
  int LogFd = -1;
  int LockFd = -1;

  mutable std::mutex Mu; ///< guards the index and appends to journal.log
  uint64_t NextSeq = 1;
  std::map<uint64_t, IntentEntry> Intents; ///< by Intent seq
  /// Quarantined hashes, each as its first Quarantined seal found it.
  std::map<std::string, QuarantineInfo> Quarantined;
  /// Consecutive-Crashed streak per hash, maintained by indexRecord().
  std::map<std::string, uint32_t> CrashStreaks;
  uint64_t Boots = 0;
  bool PrevCrashed = false;
  bool BootBegun = false;
  unsigned ReplayAttempted = 0, ReplayCommitted = 0, ReplayFailed = 0;
  uint64_t ReplayMs = 0;
};

} // namespace persist
} // namespace dsu

#endif // DSU_PERSIST_JOURNAL_H
