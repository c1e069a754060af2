//===- persist/Journal.cpp ------------------------------------*- C++ -*-===//

#include "persist/Journal.h"

#include "support/Hashing.h"
#include "support/Logging.h"
#include "support/MemoryBuffer.h"
#include "support/StringUtil.h"
#include "trace/Trace.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

using namespace dsu;
using namespace dsu::persist;

const char *persist::recordKindName(RecordKind K) {
  switch (K) {
  case RecordKind::BootStart:
    return "boot-start";
  case RecordKind::Intent:
    return "intent";
  case RecordKind::Seal:
    return "seal";
  case RecordKind::CleanShutdown:
    return "clean-shutdown";
  }
  return "unknown";
}

const char *persist::sealOutcomeName(SealOutcome O) {
  switch (O) {
  case SealOutcome::Committed:
    return "committed";
  case SealOutcome::RolledBack:
    return "rolled-back";
  case SealOutcome::Quarantined:
    return "quarantined";
  case SealOutcome::Crashed:
    return "crashed";
  }
  return "unknown";
}

const char *persist::intentOriginName(IntentOrigin O) {
  return O == IntentOrigin::Replay ? "replay" : "operator";
}

// --- Low-level helpers ---------------------------------------------------

namespace {

uint64_t wallMsNow() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void putU32(std::string &Out, uint32_t V) {
  char Buf[4];
  std::memcpy(Buf, &V, 4);
  Out.append(Buf, 4);
}

void putU64(std::string &Out, uint64_t V) {
  char Buf[8];
  std::memcpy(Buf, &V, 8);
  Out.append(Buf, 8);
}

void putStr(std::string &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S);
}

/// Bounds-checked reader over a decoded payload.  Every get* returns
/// false once the payload is exhausted or malformed; the caller treats
/// that as a torn record.
struct Reader {
  const char *P;
  size_t Left;

  bool getU32(uint32_t &V) {
    if (Left < 4)
      return false;
    std::memcpy(&V, P, 4);
    P += 4;
    Left -= 4;
    return true;
  }
  bool getU64(uint64_t &V) {
    if (Left < 8)
      return false;
    std::memcpy(&V, P, 8);
    P += 8;
    Left -= 8;
    return true;
  }
  bool getStr(std::string &S) {
    uint32_t N;
    if (!getU32(N) || Left < N)
      return false;
    S.assign(P, N);
    P += N;
    Left -= N;
    return true;
  }
};

/// Serializes the kind-specific payload of \p R (after Kind/Seq/WallMs).
std::string encodePayload(const JournalRecord &R) {
  std::string Out;
  putU32(Out, static_cast<uint32_t>(R.Kind));
  putU64(Out, R.Seq);
  putU64(Out, R.WallMs);
  switch (R.Kind) {
  case RecordKind::BootStart:
    putStr(Out, R.PrevExit);
    break;
  case RecordKind::Intent:
    putStr(Out, R.PatchId);
    putStr(Out, R.Hash);
    putU32(Out, static_cast<uint32_t>(R.Origin));
    putU32(Out, R.Attempt);
    putU64(Out, R.SizeBytes);
    break;
  case RecordKind::Seal:
    putU64(Out, R.IntentSeq);
    putU32(Out, static_cast<uint32_t>(R.Outcome));
    putStr(Out, R.CommitMode);
    putStr(Out, R.Reason);
    putStr(Out, R.Verdict);
    break;
  case RecordKind::CleanShutdown:
    break;
  }
  return Out;
}

/// Decodes one payload into \p R.  False on any framing violation.
bool decodePayload(const char *Data, size_t Size, JournalRecord &R) {
  Reader Rd{Data, Size};
  uint32_t Kind;
  if (!Rd.getU32(Kind) || !Rd.getU64(R.Seq) || !Rd.getU64(R.WallMs))
    return false;
  switch (static_cast<RecordKind>(Kind)) {
  case RecordKind::BootStart:
    R.Kind = RecordKind::BootStart;
    return Rd.getStr(R.PrevExit);
  case RecordKind::Intent: {
    R.Kind = RecordKind::Intent;
    uint32_t Origin;
    if (!Rd.getStr(R.PatchId) || !Rd.getStr(R.Hash) || !Rd.getU32(Origin) ||
        !Rd.getU32(R.Attempt) || !Rd.getU64(R.SizeBytes))
      return false;
    if (Origin > static_cast<uint32_t>(IntentOrigin::Replay))
      return false;
    R.Origin = static_cast<IntentOrigin>(Origin);
    return true;
  }
  case RecordKind::Seal: {
    R.Kind = RecordKind::Seal;
    uint32_t Outcome;
    if (!Rd.getU64(R.IntentSeq) || !Rd.getU32(Outcome) ||
        !Rd.getStr(R.CommitMode) || !Rd.getStr(R.Reason) ||
        !Rd.getStr(R.Verdict))
      return false;
    if (Outcome > static_cast<uint32_t>(SealOutcome::Crashed))
      return false;
    R.Outcome = static_cast<SealOutcome>(Outcome);
    return true;
  }
  case RecordKind::CleanShutdown:
    R.Kind = RecordKind::CleanShutdown;
    return true;
  }
  return false;
}

Error writeFull(int Fd, const char *Data, size_t Size) {
  while (Size) {
    ssize_t N = ::write(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Error::make(ErrorCode::EC_IO, "journal write failed: %s",
                         std::strerror(errno));
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return Error::success();
}

Error makeDir(const std::string &Path) {
  if (::mkdir(Path.c_str(), 0755) == 0 || errno == EEXIST)
    return Error::success();
  return Error::make(ErrorCode::EC_IO, "cannot create directory '%s': %s",
                     Path.c_str(), std::strerror(errno));
}

void syncDir(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
  }
}

} // namespace

// --- Open / recovery -----------------------------------------------------

UpdateJournal::UpdateJournal(std::string Dir, Options Opts)
    : Dir(std::move(Dir)), Opts(Opts) {}

UpdateJournal::~UpdateJournal() {
  if (LogFd >= 0)
    ::close(LogFd);
  if (LockFd >= 0)
    ::close(LockFd); // releases the flock
}

std::string UpdateJournal::artifactHash(const std::string &ArtifactText) {
  return Fingerprint().addString(ArtifactText).hex();
}

Expected<std::unique_ptr<UpdateJournal>>
UpdateJournal::open(const std::string &Dir, Options Opts) {
  if (Error E = makeDir(Dir))
    return E;
  if (Error E = makeDir(Dir + "/store"))
    return E;

  std::unique_ptr<UpdateJournal> J(new UpdateJournal(Dir, Opts));

  // Single-writer enforcement: an flock'd pidfile.  A second live
  // process is refused up front — two instances interleaving appends
  // would corrupt the log's framing.
  std::string LockPath = Dir + "/journal.lock";
  J->LockFd = ::open(LockPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (J->LockFd < 0)
    return Error::make(ErrorCode::EC_IO, "cannot open '%s': %s",
                       LockPath.c_str(), std::strerror(errno));
  if (::flock(J->LockFd, LOCK_EX | LOCK_NB) != 0) {
    char Pid[32] = {0};
    ssize_t N = ::pread(J->LockFd, Pid, sizeof(Pid) - 1, 0);
    if (N > 0 && Pid[N - 1] == '\n')
      Pid[N - 1] = 0;
    return Error::make(
        ErrorCode::EC_IO,
        "update journal '%s' is locked by live process %s; refusing to "
        "start a second instance against the same journal directory",
        Dir.c_str(), N > 0 ? Pid : "(unknown)");
  }
  // Pidfile content is advisory (the flock is the authority), so write
  // failures here are not fatal.
  std::string Pid = formatString("%ld\n", static_cast<long>(::getpid()));
  if (::ftruncate(J->LockFd, 0) == 0)
    (void)writeFull(J->LockFd, Pid.data(), Pid.size());

  J->LogFd = ::open((Dir + "/journal.log").c_str(),
                    O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (J->LogFd < 0)
    return Error::make(ErrorCode::EC_IO, "cannot open '%s/journal.log': %s",
                       Dir.c_str(), std::strerror(errno));
  syncDir(Dir);

  if (Error E = J->recover())
    return E;
  return std::move(J);
}

Error UpdateJournal::recover() {
  struct stat St;
  if (::fstat(LogFd, &St) != 0)
    return Error::make(ErrorCode::EC_IO, "fstat on journal.log failed: %s",
                       std::strerror(errno));
  std::string Buf(static_cast<size_t>(St.st_size), '\0');
  size_t Got = 0;
  while (Got < Buf.size()) {
    ssize_t N = ::pread(LogFd, &Buf[Got], Buf.size() - Got,
                        static_cast<off_t>(Got));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Got += static_cast<size_t>(N);
  }
  Buf.resize(Got);

  // Scan frames: u32 payload-length | payload | u64 FNV-64(payload).
  // The scan stops at the first record that fails to frame, decode, or
  // verify — everything after a torn write is unreachable by design —
  // and the torn tail is truncated so the next append starts clean.
  size_t Off = 0;
  bool CleanSinceBoot = true;
  while (Buf.size() - Off >= 4) {
    uint32_t Len;
    std::memcpy(&Len, Buf.data() + Off, 4);
    if (Len == 0 || Len > (1u << 28) || Buf.size() - Off - 4 < Len + 8u)
      break; // torn or truncated frame
    const char *Payload = Buf.data() + Off + 4;
    uint64_t Want;
    std::memcpy(&Want, Payload + Len, 8);
    if (Fingerprint().addBytes(Payload, Len).value() != Want)
      break; // checksum mismatch: torn write or bit rot
    JournalRecord R;
    if (!decodePayload(Payload, Len, R))
      break;
    if (R.Seq < NextSeq)
      break; // sequence went backwards: treat as corruption
    indexRecord(R);
    NextSeq = R.Seq + 1;
    if (R.Kind == RecordKind::BootStart)
      CleanSinceBoot = false;
    else if (R.Kind == RecordKind::CleanShutdown)
      CleanSinceBoot = true;
    All.push_back(std::move(R));
    Off += 4 + Len + 8;
  }
  if (Off < Buf.size()) {
    DSU_LOG_WARN("journal '%s': truncating torn tail (%zu of %zu bytes "
                 "valid)",
                 Dir.c_str(), Off, Buf.size());
    if (::ftruncate(LogFd, static_cast<off_t>(Off)) != 0)
      return Error::make(ErrorCode::EC_IO,
                         "cannot truncate torn journal tail: %s",
                         std::strerror(errno));
  }
  PrevCrashed = Boots > 0 && !CleanSinceBoot;
  return Error::success();
}

void UpdateJournal::indexRecord(const JournalRecord &R) {
  switch (R.Kind) {
  case RecordKind::BootStart:
    ++Boots;
    break;
  case RecordKind::Intent:
    IntentIndex[R.Seq] = All.size();
    break;
  case RecordKind::Seal: {
    LatestSeal[R.IntentSeq] = All.size();
    auto It = IntentIndex.find(R.IntentSeq);
    if (It == IntentIndex.end())
      break;
    const std::string &Hash = All[It->second].Hash;
    // The consecutive-Crashed streak, kept in seal order: a Committed
    // seal proves the patch can land and resets it; a RolledBack seal
    // is a deterministic rejection, not a crash, and leaves it alone.
    if (R.Outcome == SealOutcome::Crashed)
      ++CrashStreaks[Hash];
    else if (R.Outcome == SealOutcome::Committed)
      CrashStreaks[Hash] = 0;
    else if (R.Outcome == SealOutcome::Quarantined)
      Quarantined.insert(Hash);
    break;
  }
  case RecordKind::CleanShutdown:
    break;
  }
}

uint32_t UpdateJournal::crashStreak(const std::string &Hash) const {
  auto It = CrashStreaks.find(Hash);
  return It == CrashStreaks.end() ? 0 : It->second;
}

// --- Appending -----------------------------------------------------------

Error UpdateJournal::appendLocked(JournalRecord &R) {
  R.Seq = NextSeq;
  R.WallMs = wallMsNow();
  std::string Payload = encodePayload(R);
  std::string Frame;
  Frame.reserve(Payload.size() + 12);
  putU32(Frame, static_cast<uint32_t>(Payload.size()));
  Frame.append(Payload);
  putU64(Frame, Fingerprint().addBytes(Payload.data(), Payload.size()).value());
  if (Error E = writeFull(LogFd, Frame.data(), Frame.size()))
    return E;
  if (Opts.Sync && ::fdatasync(LogFd) != 0)
    return Error::make(ErrorCode::EC_IO, "journal fdatasync failed: %s",
                       std::strerror(errno));
  ++NextSeq;
  indexRecord(R);
  All.push_back(R);
  return Error::success();
}

BootInfo UpdateJournal::beginBoot(const std::string &PrevExit) {
  std::lock_guard<std::mutex> G(Mu);
  BootInfo Info;
  Info.PrevCrashed = PrevCrashed;

  // Seal every Intent the previous run left open.  If that run ended
  // cleanly the patch simply never reached its commit point (staged but
  // not committed at shutdown): seal RolledBack, no crash accounting.
  // Otherwise the process died between Intent and Seal: seal Crashed,
  // weaving in the supervisor-reported exit status, and apply the
  // quarantine policy to the resulting streak.
  if (!BootBegun) {
    std::vector<uint64_t> Unsealed;
    for (const auto &KV : IntentIndex)
      if (!LatestSeal.count(KV.first))
        Unsealed.push_back(KV.first);
    for (uint64_t Seq : Unsealed) {
      const JournalRecord Intent = All[IntentIndex[Seq]];
      JournalRecord S;
      S.Kind = RecordKind::Seal;
      S.IntentSeq = Seq;
      if (!PrevCrashed) {
        S.Outcome = SealOutcome::RolledBack;
        S.Reason = "process shut down cleanly before the commit point";
      } else {
        S.Outcome = SealOutcome::Crashed;
        S.Reason = formatString(
            "process died between intent and seal (attempt %u%s%s)",
            Intent.Attempt, PrevExit.empty() ? "" : "; previous run: ",
            PrevExit.c_str());
        ++Info.CrashSealed;
      }
      (void)appendLocked(S);
      if (S.Outcome == SealOutcome::Crashed &&
          !Quarantined.count(Intent.Hash) &&
          crashStreak(Intent.Hash) >= Opts.QuarantineAfter) {
        JournalRecord Q;
        Q.Kind = RecordKind::Seal;
        Q.IntentSeq = Seq;
        Q.Outcome = SealOutcome::Quarantined;
        Q.Reason = formatString(
            "crash-loop quarantine: artifact %s crashed %u consecutive "
            "boot(s); excluded from the replay chain and refused at "
            "staging",
            Intent.Hash.c_str(), crashStreak(Intent.Hash));
        (void)appendLocked(Q);
        Info.NewlyQuarantined.push_back(Intent.PatchId);
        DSU_LOG_WARN("journal: %s", Q.Reason.c_str());
      }
    }

    JournalRecord B;
    B.Kind = RecordKind::BootStart;
    B.PrevExit = PrevExit;
    (void)appendLocked(B);
    BootBegun = true;
  }
  Info.Boots = Boots;
  return Info;
}

Expected<uint64_t> UpdateJournal::appendIntent(const std::string &PatchId,
                                               const std::string &ArtifactText,
                                               IntentOrigin Origin) {
  // The span covers the artifact-store fsync plus the framed append +
  // fdatasync — the durable-write cost on the staging path.
  trace::Span Sp("journal", "intent", ArtifactText.size());
  std::string Hash = artifactHash(ArtifactText);
  std::lock_guard<std::mutex> G(Mu);
  if (Quarantined.count(Hash))
    return Error::make(
        ErrorCode::EC_Invalid,
        "patch %s refused: artifact %s is quarantined (crashed the "
        "process on %u consecutive boot(s))",
        PatchId.c_str(), Hash.c_str(), Opts.QuarantineAfter);

  // Content-address the artifact before the Intent: an Intent must
  // never name an artifact replay cannot read back.  Write-to-temp +
  // rename keeps a crashed writer from leaving a half-written store
  // entry under the final name.
  std::string Final = Dir + "/store/" + Hash + ".dsup";
  if (::access(Final.c_str(), F_OK) != 0) {
    std::string Tmp = Dir + "/store/.tmp." + Hash +
                      formatString(".%ld", static_cast<long>(::getpid()));
    int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (Fd < 0)
      return Error::make(ErrorCode::EC_IO, "cannot write artifact '%s': %s",
                         Tmp.c_str(), std::strerror(errno));
    Error WE = writeFull(Fd, ArtifactText.data(), ArtifactText.size());
    if (!WE && Opts.Sync && ::fsync(Fd) != 0)
      WE = Error::make(ErrorCode::EC_IO, "artifact fsync failed: %s",
                       std::strerror(errno));
    ::close(Fd);
    if (WE)
      return WE;
    if (::rename(Tmp.c_str(), Final.c_str()) != 0)
      return Error::make(ErrorCode::EC_IO,
                         "cannot publish artifact '%s': %s", Final.c_str(),
                         std::strerror(errno));
    if (Opts.Sync)
      syncDir(Dir + "/store");
  }

  JournalRecord R;
  R.Kind = RecordKind::Intent;
  R.PatchId = PatchId;
  R.Hash = Hash;
  R.Origin = Origin;
  R.Attempt = crashStreak(Hash) + 1;
  R.SizeBytes = ArtifactText.size();
  if (Error E = appendLocked(R))
    return E;
  Sp.finish(trace::Phase::JournalIntent);
  return R.Seq;
}

Error UpdateJournal::appendSeal(uint64_t IntentSeq, SealOutcome Outcome,
                                const std::string &CommitMode,
                                const std::string &Reason,
                                const std::string &Verdict) {
  trace::Span Sp("journal", "seal", IntentSeq);
  std::lock_guard<std::mutex> G(Mu);
  if (!IntentIndex.count(IntentSeq))
    return Error::make(ErrorCode::EC_Invalid,
                       "seal references unknown intent %llu",
                       static_cast<unsigned long long>(IntentSeq));
  JournalRecord R;
  R.Kind = RecordKind::Seal;
  R.IntentSeq = IntentSeq;
  R.Outcome = Outcome;
  R.CommitMode = CommitMode;
  R.Reason = Reason;
  R.Verdict = Verdict;
  Error E = appendLocked(R);
  if (!E)
    Sp.finish(trace::Phase::JournalSeal);
  return E;
}

Error UpdateJournal::sealCleanShutdown() {
  std::lock_guard<std::mutex> G(Mu);
  JournalRecord R;
  R.Kind = RecordKind::CleanShutdown;
  return appendLocked(R);
}

// --- Queries -------------------------------------------------------------

bool UpdateJournal::isQuarantined(const std::string &Hash) const {
  std::lock_guard<std::mutex> G(Mu);
  return Quarantined.count(Hash) != 0;
}

std::vector<ChainEntry> UpdateJournal::committedChain() const {
  std::lock_guard<std::mutex> G(Mu);
  std::vector<ChainEntry> Chain;
  for (const JournalRecord &R : All) {
    if (R.Kind != RecordKind::Intent || R.Origin != IntentOrigin::Operator)
      continue;
    auto SealIt = LatestSeal.find(R.Seq);
    if (SealIt == LatestSeal.end())
      continue;
    if (All[SealIt->second].Outcome != SealOutcome::Committed)
      continue;
    if (Quarantined.count(R.Hash))
      continue;
    Chain.push_back(ChainEntry{R.Seq, R.PatchId, R.Hash});
  }
  return Chain;
}

Expected<std::string> UpdateJournal::readArtifact(const std::string &Hash) const {
  Expected<std::string> Text = readFile(Dir + "/store/" + Hash + ".dsup");
  if (!Text)
    return Text;
  if (artifactHash(*Text) != Hash)
    return Error::make(ErrorCode::EC_Corrupt,
                       "store artifact %s fails its fingerprint check "
                       "(content does not hash to its name)",
                       Hash.c_str());
  return Text;
}

std::vector<JournalRecord> UpdateJournal::records() const {
  std::lock_guard<std::mutex> G(Mu);
  return All;
}

std::vector<QuarantineInfo> UpdateJournal::quarantined() const {
  std::lock_guard<std::mutex> G(Mu);
  std::vector<QuarantineInfo> Out;
  for (const JournalRecord &R : All) {
    if (R.Kind != RecordKind::Seal || R.Outcome != SealOutcome::Quarantined)
      continue;
    auto It = IntentIndex.find(R.IntentSeq);
    if (It == IntentIndex.end())
      continue;
    const JournalRecord &Intent = All[It->second];
    // One entry per hash: the first Quarantined seal wins.
    bool Seen = false;
    for (const QuarantineInfo &Q : Out)
      Seen |= Q.Hash == Intent.Hash;
    if (Seen)
      continue;
    QuarantineInfo Q;
    Q.PatchId = Intent.PatchId;
    Q.Hash = Intent.Hash;
    Q.CrashCount = Intent.Attempt;
    Q.SealSeq = R.Seq;
    Out.push_back(std::move(Q));
  }
  return Out;
}

JournalStatus UpdateJournal::status() const {
  std::lock_guard<std::mutex> G(Mu);
  JournalStatus S;
  S.Boots = Boots;
  S.PrevCrashed = PrevCrashed;
  S.Records = All.size();
  S.QuarantinedCount = Quarantined.size();
  for (const JournalRecord &R : All) {
    if (R.Kind != RecordKind::Intent || R.Origin != IntentOrigin::Operator)
      continue;
    auto SealIt = LatestSeal.find(R.Seq);
    if (SealIt != LatestSeal.end() &&
        All[SealIt->second].Outcome == SealOutcome::Committed &&
        !Quarantined.count(R.Hash))
      ++S.ChainLength;
  }
  S.ReplayAttempted = ReplayAttempted;
  S.ReplayCommitted = ReplayCommitted;
  S.ReplayFailed = ReplayFailed;
  S.ReplayMs = ReplayMs;
  return S;
}

void UpdateJournal::noteReplay(unsigned Attempted, unsigned Committed,
                               unsigned Failed, uint64_t DurationMs) {
  std::lock_guard<std::mutex> G(Mu);
  ReplayAttempted = Attempted;
  ReplayCommitted = Committed;
  ReplayFailed = Failed;
  ReplayMs = DurationMs;
}
