//===- tests/test_persist.cpp - Durable update journal --------------------===//
///
/// The crash-safe persistence layer end to end: journal roundtrips,
/// torn-tail and bad-checksum recovery, single-writer locking, the
/// clean-stop vs. crash boot distinction, the crash-loop quarantine
/// policy, in-process replay equivalence — and subprocess crash drills
/// that SIGKILL a live dsu-flashed server at each injected crash point
/// under keep-alive load, restart it through dsu-supervise, and assert
/// the replayed chain serves byte-identical responses.
///
/// Run alone with `ctest -L persist`.  The subprocess drills kill child
/// processes, so this binary is excluded from the TSan lane.

#include "core/Runtime.h"
#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/DocStore.h"
#include "persist/Journal.h"
#include "persist/Replay.h"
#include "runtime/UpdateController.h"
#include "support/MemoryBuffer.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace dsu;
using namespace dsu::flashed;

namespace {

#define WAIT_FOR(Pred)                                                     \
  do {                                                                     \
    int Spin_ = 0;                                                         \
    while (!(Pred) && Spin_++ != 5000)                                     \
      std::this_thread::sleep_for(std::chrono::milliseconds(2));           \
    ASSERT_TRUE(Pred) << "timed out waiting for: " #Pred;                  \
  } while (0)

/// A code-only patch making mime_type return the constant \p CType — a
/// response byte every crash-recovery assertion can see on the wire.
std::string mimePatch(const std::string &Id, const std::string &CType) {
  return formatString(R"dsu(
(patch
  (id "%s")
  (description "persist test: mime_type constant")
  (provides
    (fn (name "flashed.mime_type")
        (type "fn(string) -> string")
        (vtal-fn "mime_type")))
  (vtal-module
"module persist_mime
func mime_type (path: string) -> string {
  push.s \"%s\"
  ret
}"))
)dsu",
                      Id.c_str(), CType.c_str());
}

/// Parses and loads fine but fails VTAL verification in staging (an int
/// returned from a -> string function): exercises the RolledBack seal
/// without ever reaching a commit point.
const char *BadVerifyPatch = R"dsu(
(patch
  (id "persist-bad-verify")
  (description "persist test: fails verification after the intent")
  (provides
    (fn (name "flashed.mime_type")
        (type "fn(string) -> string")
        (vtal-fn "mime_type")))
  (vtal-module
"module persist_bad
func mime_type (path: string) -> string {
  push.i 7
  ret
}"))
)dsu";

std::string freshDir(const std::string &Name) {
  std::string D = ::testing::TempDir() + "dsu_persist_" + Name;
  std::system(("rm -rf '" + D + "' '" + D + ".port' '" + D + ".log'")
                  .c_str());
  return D;
}

std::unique_ptr<persist::UpdateJournal> openJ(const std::string &Dir,
                                              unsigned QuarantineAfter = 3) {
  persist::UpdateJournal::Options O;
  O.QuarantineAfter = QuarantineAfter;
  O.Sync = false; // the tests assert ordering/content, not durability
  Expected<std::unique_ptr<persist::UpdateJournal>> J =
      persist::UpdateJournal::open(Dir, O);
  EXPECT_TRUE(J) << (J ? "" : J.error().str());
  return J ? std::move(*J) : nullptr;
}

// --- Journal unit coverage ----------------------------------------------

TEST(JournalTest, RoundtripAcrossReopen) {
  std::string Dir = freshDir("roundtrip");
  std::string Art = mimePatch("persist-rt", "text/x-rt");
  std::string Hash = persist::UpdateJournal::artifactHash(Art);
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    persist::BootInfo B = J->beginBoot("");
    EXPECT_EQ(B.Boots, 1u);
    EXPECT_FALSE(B.PrevCrashed);
    Expected<uint64_t> Seq =
        J->appendIntent("persist-rt", Art, persist::IntentOrigin::Operator);
    ASSERT_TRUE(Seq) << Seq.takeError().str();
    ASSERT_FALSE(J->appendSeal(*Seq, persist::SealOutcome::Committed,
                               "barrier", ""));
    ASSERT_FALSE(J->sealCleanShutdown());
  }
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    persist::BootInfo B = J->beginBoot("");
    EXPECT_EQ(B.Boots, 2u);
    EXPECT_FALSE(B.PrevCrashed);
    EXPECT_EQ(B.CrashSealed, 0u);

    std::vector<persist::ChainEntry> Chain = J->committedChain();
    ASSERT_EQ(Chain.size(), 1u);
    EXPECT_EQ(Chain[0].PatchId, "persist-rt");
    EXPECT_EQ(Chain[0].Hash, Hash);

    Expected<std::string> Back = J->readArtifact(Hash);
    ASSERT_TRUE(Back) << Back.takeError().str();
    EXPECT_EQ(*Back, Art);

    // boot, intent, seal, clean-shutdown, boot — in sequence order.
    std::vector<persist::JournalRecord> Recs = J->records();
    ASSERT_EQ(Recs.size(), 5u);
    EXPECT_EQ(Recs[0].Kind, persist::RecordKind::BootStart);
    EXPECT_EQ(Recs[1].Kind, persist::RecordKind::Intent);
    EXPECT_EQ(Recs[1].Attempt, 1u);
    EXPECT_EQ(Recs[2].Kind, persist::RecordKind::Seal);
    EXPECT_EQ(Recs[2].Outcome, persist::SealOutcome::Committed);
    EXPECT_EQ(Recs[2].CommitMode, "barrier");
    EXPECT_EQ(Recs[3].Kind, persist::RecordKind::CleanShutdown);
    EXPECT_EQ(Recs[4].Kind, persist::RecordKind::BootStart);
    for (size_t I = 0; I != Recs.size(); ++I)
      EXPECT_EQ(Recs[I].Seq, I + 1);
  }
}

TEST(JournalTest, TornTailIsTruncatedOnReopen) {
  std::string Dir = freshDir("torn");
  size_t Intact;
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    J->beginBoot("");
    Expected<uint64_t> Seq = J->appendIntent(
        "torn-a", mimePatch("torn-a", "text/x-a"),
        persist::IntentOrigin::Operator);
    ASSERT_TRUE(Seq);
    ASSERT_FALSE(
        J->appendSeal(*Seq, persist::SealOutcome::Committed, "rolling", ""));
    Intact = J->records().size();
  }
  // A torn append: a frame header promising 100 bytes with only 10
  // behind it — exactly what a crash mid-write leaves.
  {
    int Fd = ::open((Dir + "/journal.log").c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(Fd, 0);
    uint32_t Len = 100;
    char Torn[14];
    std::memcpy(Torn, &Len, 4);
    std::memset(Torn + 4, 0xAB, 10);
    ASSERT_EQ(::write(Fd, Torn, sizeof(Torn)),
              static_cast<ssize_t>(sizeof(Torn)));
    ::close(Fd);
  }
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    EXPECT_EQ(J->records().size(), Intact) << "torn tail not dropped";
    EXPECT_EQ(J->committedChain().size(), 1u);
    // The truncation leaves a cleanly appendable log.
    J->beginBoot("");
    Expected<uint64_t> Seq = J->appendIntent(
        "torn-b", mimePatch("torn-b", "text/x-b"),
        persist::IntentOrigin::Operator);
    ASSERT_TRUE(Seq) << Seq.takeError().str();
  }
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    EXPECT_EQ(J->records().size(), Intact + 2u); // boot + intent survive
  }
}

TEST(JournalTest, CorruptedChecksumStopsTheScan) {
  std::string Dir = freshDir("corrupt");
  size_t Intact;
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    J->beginBoot("");
    Expected<uint64_t> Seq = J->appendIntent(
        "corrupt-a", mimePatch("corrupt-a", "text/x-a"),
        persist::IntentOrigin::Operator);
    ASSERT_TRUE(Seq);
    ASSERT_FALSE(
        J->appendSeal(*Seq, persist::SealOutcome::Committed, "rolling", ""));
    Intact = J->records().size();
  }
  // Flip one byte inside the final record: its FNV-64 check must fail
  // and the scan must stop there, dropping the record.
  {
    Expected<std::string> Log = readFile(Dir + "/journal.log");
    ASSERT_TRUE(Log);
    ASSERT_GT(Log->size(), 12u);
    (*Log)[Log->size() - 10] ^= 0x5A;
    ASSERT_FALSE(writeFile(Dir + "/journal.log", *Log));
  }
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    EXPECT_EQ(J->records().size(), Intact - 1u);
    // The dropped record was the Committed seal, so the chain is empty:
    // a patch whose seal never made it to disk is not replayed.
    EXPECT_TRUE(J->committedChain().empty());
  }
}

TEST(JournalTest, CorruptedStoreArtifactIsRefused) {
  std::string Dir = freshDir("badstore");
  std::string Art = mimePatch("store-a", "text/x-a");
  std::string Hash = persist::UpdateJournal::artifactHash(Art);
  auto J = openJ(Dir);
  ASSERT_TRUE(J);
  J->beginBoot("");
  ASSERT_TRUE(
      J->appendIntent("store-a", Art, persist::IntentOrigin::Operator));
  ASSERT_FALSE(writeFile(Dir + "/store/" + Hash + ".dsup", "tampered"));
  Expected<std::string> Back = J->readArtifact(Hash);
  ASSERT_FALSE(Back);
  EXPECT_EQ(Back.error().code(), ErrorCode::EC_Corrupt)
      << Back.error().str();
}

TEST(JournalTest, SecondLiveInstanceIsRefused) {
  std::string Dir = freshDir("lock");
  auto J1 = openJ(Dir);
  ASSERT_TRUE(J1);
  Expected<std::unique_ptr<persist::UpdateJournal>> J2 =
      persist::UpdateJournal::open(Dir);
  ASSERT_FALSE(J2) << "second instance acquired the journal lock";
  EXPECT_EQ(J2.error().code(), ErrorCode::EC_IO);
  std::string Msg = J2.error().str();
  EXPECT_NE(Msg.find("locked by live process"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find(std::to_string(::getpid())), std::string::npos)
      << "refusal does not name the holder pid: " << Msg;

  // The lock dies with the holder: release and reopen.
  J1.reset();
  auto J3 = openJ(Dir);
  EXPECT_TRUE(J3);
}

TEST(JournalTest, CleanStopAndCrashAreSealedDifferently) {
  std::string Dir = freshDir("cleanvscrash");
  std::string Art = mimePatch("cvs-a", "text/x-a");
  // Boot 1 stages an intent and stops cleanly before its commit point.
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    J->beginBoot("");
    ASSERT_TRUE(
        J->appendIntent("cvs-a", Art, persist::IntentOrigin::Operator));
    ASSERT_FALSE(J->sealCleanShutdown());
  }
  // Boot 2: the unsealed intent is RolledBack — no crash accounting —
  // then a second intent is left open with NO clean shutdown.
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    persist::BootInfo B = J->beginBoot("");
    EXPECT_FALSE(B.PrevCrashed);
    EXPECT_EQ(B.CrashSealed, 0u);
    std::vector<persist::JournalRecord> Recs = J->records();
    const persist::JournalRecord &Seal = Recs[Recs.size() - 2];
    ASSERT_EQ(Seal.Kind, persist::RecordKind::Seal);
    EXPECT_EQ(Seal.Outcome, persist::SealOutcome::RolledBack);
    EXPECT_NE(Seal.Reason.find("cleanly"), std::string::npos) << Seal.Reason;
    ASSERT_TRUE(
        J->appendIntent("cvs-a", Art, persist::IntentOrigin::Operator));
    // no sealCleanShutdown: this run "crashes"
  }
  // Boot 3: that one is Crashed, with the supervisor's exit status woven
  // into the reason.
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    persist::BootInfo B = J->beginBoot("signal:9");
    EXPECT_TRUE(B.PrevCrashed);
    EXPECT_EQ(B.CrashSealed, 1u);
    EXPECT_TRUE(B.NewlyQuarantined.empty());
    std::vector<persist::JournalRecord> Recs = J->records();
    const persist::JournalRecord &Seal = Recs[Recs.size() - 2];
    ASSERT_EQ(Seal.Kind, persist::RecordKind::Seal);
    EXPECT_EQ(Seal.Outcome, persist::SealOutcome::Crashed);
    EXPECT_NE(Seal.Reason.find("signal:9"), std::string::npos) << Seal.Reason;
    EXPECT_TRUE(J->committedChain().empty());
  }
}

TEST(JournalTest, CrashLoopTripsTheQuarantinePolicy) {
  std::string Dir = freshDir("quarantine");
  std::string Art = mimePatch("looper", "text/x-loop");
  std::string Hash = persist::UpdateJournal::artifactHash(Art);

  // Three consecutive boots each leave the looper's intent unsealed and
  // die; each next boot seals it Crashed, growing the streak.
  for (unsigned Boot = 0; Boot != 3; ++Boot) {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    persist::BootInfo B = J->beginBoot("");
    EXPECT_TRUE(B.NewlyQuarantined.empty()) << "quarantined too early";
    Expected<uint64_t> Seq =
        J->appendIntent("looper", Art, persist::IntentOrigin::Operator);
    ASSERT_TRUE(Seq) << Seq.takeError().str();
    EXPECT_EQ(J->records().back().Attempt, Boot + 1);
  }

  // Boot 4 seals the third crash, the streak reaches QuarantineAfter=3,
  // and the hash is contained.
  auto J = openJ(Dir);
  ASSERT_TRUE(J);
  persist::BootInfo B = J->beginBoot("exit:134");
  ASSERT_EQ(B.NewlyQuarantined.size(), 1u);
  EXPECT_EQ(B.NewlyQuarantined[0], "looper");
  EXPECT_TRUE(J->isQuarantined(Hash));
  EXPECT_TRUE(J->committedChain().empty());

  std::vector<persist::QuarantineInfo> Q = J->quarantined();
  ASSERT_EQ(Q.size(), 1u);
  EXPECT_EQ(Q[0].PatchId, "looper");
  EXPECT_EQ(Q[0].Hash, Hash);
  EXPECT_EQ(Q[0].CrashCount, 3u);

  // Quarantined artifacts are refused at the intent, before any staging.
  Expected<uint64_t> Refused =
      J->appendIntent("looper", Art, persist::IntentOrigin::Operator);
  ASSERT_FALSE(Refused);
  EXPECT_EQ(Refused.error().code(), ErrorCode::EC_Invalid);
  EXPECT_NE(Refused.error().str().find("quarantined"), std::string::npos);
}

TEST(JournalTest, CrashStreakResetsOnCommitAndIgnoresRollback) {
  std::string Dir = freshDir("streak");
  std::string Art = mimePatch("streaky", "text/x-streak");
  std::string Other = mimePatch("bystander", "text/x-other");
  // Each Intent's Attempt is one more than its artifact's streak of
  // consecutive Crashed seals.
  auto Attempt = [](persist::UpdateJournal &J, const std::string &Id,
                    const std::string &Text,
                    persist::SealOutcome Outcome) -> uint32_t {
    Expected<uint64_t> Seq =
        J.appendIntent(Id, Text, persist::IntentOrigin::Operator);
    EXPECT_TRUE(Seq) << (Seq ? "" : Seq.error().str());
    if (!Seq)
      return 0;
    uint32_t A = J.records().back().Attempt;
    EXPECT_FALSE(J.appendSeal(*Seq, Outcome, "barrier", "test"));
    return A;
  };
  using persist::SealOutcome;
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    J->beginBoot("");
    EXPECT_EQ(Attempt(*J, "streaky", Art, SealOutcome::Crashed), 1u);
    // Another artifact's seals do not touch this one's streak.
    EXPECT_EQ(Attempt(*J, "bystander", Other, SealOutcome::Crashed), 1u);
    // RolledBack leaves the streak unchanged.
    EXPECT_EQ(Attempt(*J, "streaky", Art, SealOutcome::RolledBack), 2u);
    EXPECT_EQ(Attempt(*J, "streaky", Art, SealOutcome::Crashed), 2u);
    // Committed resets it.
    EXPECT_EQ(Attempt(*J, "streaky", Art, SealOutcome::Committed), 3u);
    EXPECT_EQ(Attempt(*J, "streaky", Art, SealOutcome::Crashed), 1u);
    EXPECT_EQ(Attempt(*J, "bystander", Other, SealOutcome::Committed), 2u);
    ASSERT_FALSE(J->sealCleanShutdown());
  }
  // Recovery rebuilds the streaks from the log in seal order.
  auto J = openJ(Dir);
  ASSERT_TRUE(J);
  J->beginBoot("");
  EXPECT_EQ(Attempt(*J, "streaky", Art, SealOutcome::RolledBack), 2u);
  EXPECT_EQ(Attempt(*J, "bystander", Other, SealOutcome::Crashed), 1u);
}

// --- In-process replay equivalence --------------------------------------

TEST(JournalReplayTest, ReplayRebuildsTheCommittedChain) {
  std::string Dir = freshDir("replay");
  // Session one: two committed patches and one verification failure.
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    J->beginBoot("");
    Runtime RT;
    FlashedApp App(RT);
    DocStore Docs;
    Docs.put("/doc.html", "<html>persist</html>");
    ASSERT_FALSE(App.init(std::move(Docs)));
    RT.attachJournal(J.get());

    StagedUpdate S1 = RT.controller().stageArtifactText(
        mimePatch("persist-a", "text/x-persist-a"), "test");
    WAIT_FOR(S1.record().Phase == "ready");
    ASSERT_FALSE(S1.commit());
    StagedUpdate S2 = RT.controller().stageArtifactText(
        mimePatch("persist-b", "text/x-persist-b"), "test");
    WAIT_FOR(S2.record().Phase == "ready");
    ASSERT_FALSE(S2.commit());

    // The bad patch journals its intent (it parses), then fails VTAL
    // verification: Runtime::finalize must seal it RolledBack.
    StagedUpdate S3 =
        RT.controller().stageArtifactText(BadVerifyPatch, "test");
    WAIT_FOR(S3.record().Phase == "stage-failed");

    persist::JournalStatus St = J->status();
    EXPECT_EQ(St.ChainLength, 2u);
    std::vector<persist::JournalRecord> Recs = J->records();
    unsigned Committed = 0, RolledBack = 0;
    for (const persist::JournalRecord &R : Recs)
      if (R.Kind == persist::RecordKind::Seal) {
        Committed += R.Outcome == persist::SealOutcome::Committed;
        RolledBack += R.Outcome == persist::SealOutcome::RolledBack;
      }
    EXPECT_EQ(Committed, 2u);
    EXPECT_EQ(RolledBack, 1u);
    ASSERT_FALSE(J->sealCleanShutdown());
    RT.attachJournal(nullptr);
  }
  // Session two: replay through the ordinary pipeline and observe the
  // same behaviour the pre-restart server had.
  {
    auto J = openJ(Dir);
    ASSERT_TRUE(J);
    J->beginBoot("");
    Runtime RT;
    FlashedApp App(RT);
    DocStore Docs;
    Docs.put("/doc.html", "<html>persist</html>");
    ASSERT_FALSE(App.init(std::move(Docs)));
    RT.attachJournal(J.get());

    persist::ReplayStats St = persist::replayJournal(RT, *J);
    EXPECT_EQ(St.Attempted, 2u);
    EXPECT_EQ(St.Committed, 2u);
    EXPECT_EQ(St.Failed, 0u);
    EXPECT_EQ(RT.updatesApplied(), 2u);

    std::string Resp = App.handle("GET /doc.html HTTP/1.0\r\n\r\n");
    EXPECT_NE(Resp.find("text/x-persist-b"), std::string::npos)
        << "replayed chain does not serve the last committed binding:\n"
        << Resp;

    // Replay intents carry crash accounting but never extend the chain.
    EXPECT_EQ(J->status().ChainLength, 2u);
    persist::JournalStatus JS = J->status();
    EXPECT_EQ(JS.ReplayCommitted, 2u);
    RT.attachJournal(nullptr);
  }
}

// --- Subprocess crash drills --------------------------------------------

std::string toolPath(const char *Name) {
  return std::string(DSU_BIN_DIR) + "/tools/" + Name;
}

pid_t spawnProc(const std::vector<std::string> &Argv,
                const std::vector<std::pair<std::string, std::string>> &Env,
                const std::string &LogPath) {
  pid_t P = ::fork();
  if (P != 0)
    return P;
  int Fd = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (Fd >= 0) {
    ::dup2(Fd, 1);
    ::dup2(Fd, 2);
    ::close(Fd);
  }
  for (const auto &KV : Env)
    ::setenv(KV.first.c_str(), KV.second.c_str(), 1);
  std::vector<char *> Args;
  Args.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  ::execv(Args[0], Args.data());
  _exit(127);
}

/// Polls the port file + /admin/status until the server answers.
bool waitServer(const std::string &PortFile, uint16_t &Port,
                int BudgetMs = 30000) {
  for (int Waited = 0; Waited < BudgetMs; Waited += 25) {
    Expected<std::string> S = readFile(PortFile);
    if (S) {
      uint64_t V = std::strtoull(S->c_str(), nullptr, 10);
      if (V && V < 65536) {
        Expected<FetchResult> R =
            httpGet(static_cast<uint16_t>(V), "/admin/status");
        if (R && R->Status == 200) {
          Port = static_cast<uint16_t>(V);
          return true;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

/// The server's pid, from the journal's flock'd pidfile.
pid_t serverPid(const std::string &Dir) {
  Expected<std::string> S = readFile(Dir + "/journal.lock");
  return S ? static_cast<pid_t>(std::strtol(S->c_str(), nullptr, 10)) : -1;
}

std::string contentTypeOf(uint16_t Port, const std::string &Target) {
  Expected<FetchResult> R = httpGet(Port, Target);
  if (!R)
    return "";
  size_t At = R->Headers.find("Content-Type: ");
  if (At == std::string::npos)
    return "";
  size_t End = R->Headers.find("\r\n", At);
  return R->Headers.substr(At + 14, End - At - 14);
}

std::vector<std::string> fetchAll(uint16_t Port,
                                  const std::vector<std::string> &Targets) {
  std::vector<std::string> Out;
  for (const std::string &T : Targets) {
    Expected<FetchResult> R = httpGet(Port, T);
    Out.push_back(R ? R->Headers + "\n\n" + R->Body : "(fetch failed)");
  }
  return Out;
}

/// RAII teardown for a supervised server tree: SIGTERM the supervisor
/// (which forwards to the child and expects a clean drain), escalate if
/// the tree wedges, and never leave an orphan holding the journal lock.
struct Supervised {
  pid_t Pid = -1;
  std::string Dir;

  /// The deliberate teardown path: clean stop, asserted.
  void stopCleanly() {
    ASSERT_GT(Pid, 0);
    ASSERT_EQ(::kill(Pid, SIGTERM), 0);
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        << "supervised tree did not exit cleanly (status " << Status << ")";
    Pid = -1;
  }

  ~Supervised() {
    if (Pid <= 0)
      return; // an assertion bailed out mid-test: clean up the tree
    pid_t Child = serverPid(Dir);
    ::kill(Pid, SIGTERM);
    for (int I = 0; I != 200; ++I) {
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid)
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ::kill(Pid, SIGKILL);
    int Status = 0;
    (void)::waitpid(Pid, &Status, 0);
    if (Child > 0)
      ::kill(Child, SIGKILL);
  }
};

struct LiveLoad {
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Served{0};
  std::vector<std::thread> Threads;

  void start(uint16_t Port, unsigned N = 2) {
    for (unsigned T = 0; T != N; ++T)
      Threads.emplace_back([this, Port] {
        KeepAliveClient C;
        C.setTimeoutMs(500);
        (void)C.connectTo(Port);
        while (!Stop.load())
          if (C.get("/doc.html"))
            Served.fetch_add(1);
      });
  }
  void stop() {
    Stop.store(true);
    for (std::thread &T : Threads)
      T.join();
    Threads.clear();
  }
  ~LiveLoad() { stop(); }
};

class PersistE2ETest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!fileExists(toolPath("dsu-flashed")) ||
        !fileExists(toolPath("dsu-supervise")))
      GTEST_SKIP() << "dsu-flashed / dsu-supervise not built";
  }

  /// Launches dsu-flashed under dsu-supervise with \p CrashPoint armed
  /// (via DSU_FAULT_CRASH_POINT) and waits for the first boot to serve.
  void launch(const std::string &Name, const std::string &CrashPoint,
              uint16_t &Port) {
    Dir = freshDir(Name);
    PortFile = Dir + ".port";
    Sup.Dir = Dir;
    std::vector<std::pair<std::string, std::string>> Env;
    if (!CrashPoint.empty())
      Env.emplace_back("DSU_FAULT_CRASH_POINT", CrashPoint);
    Sup.Pid = spawnProc(
        {toolPath("dsu-supervise"), "--backoff-ms", "10", "--max-restarts",
         "12", "--", toolPath("dsu-flashed"), "--journal-dir", Dir,
         "--port-file", PortFile, "--workers", "2", "--no-sync"},
        Env, Dir + ".log");
    ASSERT_GT(Sup.Pid, 0);
    ASSERT_TRUE(waitServer(PortFile, Port)) << logTail();
  }

  /// Stages \p Artifact over the wire and waits until the fleet serves
  /// \p CType (commits land at the pool workers' update points).
  void commitAndObserve(uint16_t Port, const std::string &Artifact,
                        const std::string &CType) {
    Expected<FetchResult> R =
        httpPost(Port, "/admin/patches", Artifact, "application/x-dsu-patch");
    ASSERT_TRUE(R);
    ASSERT_EQ(R->Status, 202) << R->Body;
    WAIT_FOR(contentTypeOf(Port, "/doc.html") == CType);
  }

  std::string logTail() {
    Expected<std::string> L = readFile(Dir + ".log");
    return L ? "server log:\n" + *L : "(no server log)";
  }

  std::string Dir, PortFile;
  Supervised Sup;
  const std::vector<std::string> Targets = {"/index.html", "/doc.html",
                                            "/style.css"};
};

/// The acceptance bar: SIGKILL between the Intent append and the seal,
/// under live keep-alive load; the restarted server must recover to the
/// last-good committed chain and serve byte-identical responses.
TEST_F(PersistE2ETest, KillBetweenIntentAndSealRecoversLastGoodChain) {
  uint16_t Port = 0;
  launch("e2e_intent", "crash_after_intent:persist-bad", Port);
  if (HasFatalFailure())
    return;
  commitAndObserve(Port, mimePatch("persist-a", "text/x-persist-a"),
                   "text/x-persist-a");
  if (HasFatalFailure())
    return;
  std::vector<std::string> Baseline = fetchAll(Port, Targets);

  LiveLoad Load;
  Load.start(Port);
  WAIT_FOR(Load.Served.load() >= 50);

  // The poisoned patch: its intent hits the disk, then the armed crash
  // point SIGKILLs the server before any seal can be written.
  std::remove(PortFile.c_str());
  (void)httpPost(Port, "/admin/patches",
                 mimePatch("persist-bad", "text/x-bad"),
                 "application/x-dsu-patch");

  uint16_t Port2 = 0;
  ASSERT_TRUE(waitServer(PortFile, Port2)) << logTail();
  Load.stop();

  EXPECT_EQ(fetchAll(Port2, Targets), Baseline)
      << "recovered chain does not serve byte-identical responses";

  // The mid-update death is surfaced: the bad intent is sealed crashed,
  // the boot is marked a crash recovery, and history shows both.
  Expected<FetchResult> Status = httpGet(Port2, "/admin/status");
  ASSERT_TRUE(Status);
  EXPECT_NE(Status->Body.find("\"prev_boot\": \"crash\""), std::string::npos)
      << Status->Body;
  Expected<FetchResult> Hist = httpGet(Port2, "/admin/journal");
  ASSERT_TRUE(Hist);
  EXPECT_EQ(Hist->Status, 200);
  EXPECT_NE(Hist->Body.find("persist-bad"), std::string::npos) << Hist->Body;
  EXPECT_NE(Hist->Body.find("\"outcome\": \"crashed\""), std::string::npos)
      << Hist->Body;
  EXPECT_NE(Hist->Body.find("signal:9"), std::string::npos)
      << "supervisor exit status not woven into the crash seal: "
      << Hist->Body;

  Sup.stopCleanly();
}

/// SIGKILL after the commit landed but before the Committed seal: the
/// update never becomes durable, so the restarted server excludes it —
/// the journal's word, not the dead process's memory, is the truth.
TEST_F(PersistE2ETest, KillAfterCommitBeforeSealExcludesThePatch) {
  uint16_t Port = 0;
  launch("e2e_preseal", "crash_after_commit_pre_seal:persist-bad2", Port);
  if (HasFatalFailure())
    return;
  commitAndObserve(Port, mimePatch("persist-a", "text/x-persist-a"),
                   "text/x-persist-a");
  if (HasFatalFailure())
    return;
  std::vector<std::string> Baseline = fetchAll(Port, Targets);

  std::remove(PortFile.c_str());
  (void)httpPost(Port, "/admin/patches",
                 mimePatch("persist-bad2", "text/x-bad2"),
                 "application/x-dsu-patch");

  uint16_t Port2 = 0;
  ASSERT_TRUE(waitServer(PortFile, Port2)) << logTail();
  EXPECT_EQ(contentTypeOf(Port2, "/doc.html"), "text/x-persist-a")
      << "an unsealed commit leaked across the restart";
  EXPECT_EQ(fetchAll(Port2, Targets), Baseline);

  Expected<FetchResult> Hist = httpGet(Port2, "/admin/journal");
  ASSERT_TRUE(Hist);
  EXPECT_NE(Hist->Body.find("persist-bad2"), std::string::npos);
  EXPECT_NE(Hist->Body.find("\"outcome\": \"crashed\""), std::string::npos);

  Sup.stopCleanly();
}

/// A committed patch that kills the server during every replay is
/// quarantined after three consecutive crashed boots; the fourth boot
/// comes up healthy on the remaining chain with the patch contained.
TEST_F(PersistE2ETest, CrashLoopingPatchIsQuarantinedAfterThreeBoots) {
  uint16_t Port = 0;
  launch("e2e_quarantine", "crash_mid_replay:persist-looper", Port);
  if (HasFatalFailure())
    return;
  // Boot 1: the looper commits normally (the crash point only fires
  // during replay) and joins the durable chain.
  commitAndObserve(Port, mimePatch("persist-looper", "text/x-looper"),
                   "text/x-looper");
  if (HasFatalFailure())
    return;

  // Crash the server.  Boots 2-4 die replaying the looper; boot 4's
  // death trips the quarantine policy, and boot 5 serves healthy.
  pid_t Server = serverPid(Dir);
  ASSERT_GT(Server, 0);
  std::remove(PortFile.c_str());
  ASSERT_EQ(::kill(Server, SIGKILL), 0);

  uint16_t Port2 = 0;
  ASSERT_TRUE(waitServer(PortFile, Port2, 60000)) << logTail();
  EXPECT_NE(contentTypeOf(Port2, "/doc.html"), "text/x-looper")
      << "a quarantined patch was replayed anyway";

  Expected<FetchResult> Q = httpGet(Port2, "/admin/journal?quarantined=1");
  ASSERT_TRUE(Q);
  EXPECT_EQ(Q->Status, 200);
  EXPECT_NE(Q->Body.find("persist-looper"), std::string::npos) << Q->Body;
  Expected<FetchResult> Status = httpGet(Port2, "/admin/status");
  ASSERT_TRUE(Status);
  EXPECT_NE(Status->Body.find("\"quarantined\": 1"), std::string::npos)
      << Status->Body;

  // Re-submitting the quarantined artifact is refused at staging: the
  // update log records a stage failure naming the quarantine.
  Expected<FetchResult> Again =
      httpPost(Port2, "/admin/patches",
               mimePatch("persist-looper", "text/x-looper"),
               "application/x-dsu-patch");
  ASSERT_TRUE(Again);
  EXPECT_EQ(Again->Status, 202);
  WAIT_FOR([&] {
    Expected<FetchResult> Log = httpGet(Port2, "/admin/updates");
    return Log && Log->Body.find("quarantined") != std::string::npos;
  }());

  // The dsu-updatectl quarantine command sees the same table.
  std::string Ctl = toolPath("dsu-updatectl");
  if (fileExists(Ctl)) {
    std::string OutFile = Dir + ".ctl.out";
    int St = std::system((Ctl + " quarantine " + std::to_string(Port2) +
                          " > " + OutFile + " 2>&1")
                             .c_str());
    ASSERT_TRUE(WIFEXITED(St));
    EXPECT_EQ(WEXITSTATUS(St), 0);
    Expected<std::string> Out = readFile(OutFile);
    ASSERT_TRUE(Out);
    EXPECT_NE(Out->find("persist-looper"), std::string::npos) << *Out;
    std::remove(OutFile.c_str());
  }

  Sup.stopCleanly();
}

/// SIGTERM is a clean stop, not a crash: the drained server seals
/// CleanShutdown and the next boot performs no crash accounting.
TEST_F(PersistE2ETest, SigtermDrainsAndSealsCleanShutdown) {
  uint16_t Port = 0;
  launch("e2e_clean", "", Port);
  if (HasFatalFailure())
    return;
  commitAndObserve(Port, mimePatch("persist-a", "text/x-persist-a"),
                   "text/x-persist-a");
  if (HasFatalFailure())
    return;
  Sup.stopCleanly();

  // The journal's last word is CleanShutdown, and the next boot agrees
  // this was deliberate.
  auto J = openJ(Dir);
  ASSERT_TRUE(J);
  std::vector<persist::JournalRecord> Recs = J->records();
  ASSERT_FALSE(Recs.empty());
  EXPECT_EQ(Recs.back().Kind, persist::RecordKind::CleanShutdown);
  persist::BootInfo B = J->beginBoot("");
  EXPECT_FALSE(B.PrevCrashed);
  EXPECT_EQ(B.CrashSealed, 0u);
  EXPECT_EQ(J->committedChain().size(), 1u);
}

} // namespace
