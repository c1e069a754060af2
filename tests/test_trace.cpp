//===- tests/test_trace.cpp - Flight recorder + VTAL profiler -*- C++ -*-===//
///
/// The update-pipeline flight recorder (trace/Trace.h): the per-thread
/// seqlocked ring, span/instant/interval recording, drop-oldest
/// accounting, the span-tree builder's time-containment nesting, the
/// Chrome trace-event export, the per-phase latency histograms, and the
/// span as the update lifecycle's one stopwatch.  Plus the VTAL hot-function profiler (trace/Profile.h): self-fuel
/// attribution across calls, trap counting, and the ranking that
/// surfaces an injected hot function.

#include "core/Runtime.h"
#include "flashed/App.h"
#include "flashed/Patches.h"
#include "persist/Journal.h"
#include "runtime/UpdateController.h"
#include "trace/Profile.h"
#include "trace/Trace.h"
#include "vtal/Assembler.h"
#include "vtal/Interp.h"
#include "vtal/Verifier.h"

#include <gtest/gtest.h>

#include <thread>
#include <unistd.h>

using namespace dsu;
using namespace dsu::trace;

namespace {

/// Events recorded by this test binary's threads, for one update id.
std::vector<EventCopy> eventsFor(uint64_t UpdateId) {
  std::vector<EventCopy> Out;
  for (const EventCopy &E : Recorder::instance().snapshot())
    if (E.UpdateId == UpdateId)
      Out.push_back(E);
  return Out;
}

size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t Count = 0;
  for (size_t Pos = Hay.find(Needle); Pos != std::string::npos;
       Pos = Hay.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

TEST(TraceRecorderTest, RecordsCompleteInstantAndIntervalEvents) {
  Recorder &R = Recorder::instance();
  R.clear();
  const uint64_t Id = 9001;
  {
    ScopedUpdateId Tag(Id);
    R.complete("cat", "work", 100, 50, 7);
    R.instant("cat", "mark", 3);
  }
  R.begin("ctl", "hop", Id);
  R.end("ctl", "hop", Id);

  std::vector<EventCopy> Mine = eventsFor(Id);
  ASSERT_EQ(Mine.size(), 4u);
  // snapshot() sorts by Serial: publication order.
  EXPECT_STREQ(Mine[0].Name, "work");
  EXPECT_EQ(Mine[0].Kind, EventKind::Complete);
  EXPECT_EQ(Mine[0].StartUs, 100u);
  EXPECT_EQ(Mine[0].DurUs, 50u);
  EXPECT_EQ(Mine[0].Arg, 7u);
  EXPECT_STREQ(Mine[1].Name, "mark");
  EXPECT_EQ(Mine[1].Kind, EventKind::Instant);
  EXPECT_EQ(Mine[2].Kind, EventKind::Begin);
  EXPECT_EQ(Mine[3].Kind, EventKind::End);
  EXPECT_LT(Mine[0].Serial, Mine[1].Serial);
  EXPECT_LT(Mine[1].Serial, Mine[2].Serial);
  // All four came from this thread.
  EXPECT_EQ(Mine[0].Tid, Mine[3].Tid);
}

TEST(TraceRecorderTest, ScopedUpdateIdNestsAndRestores) {
  EXPECT_EQ(currentUpdateId(), 0u);
  {
    ScopedUpdateId Outer(11);
    EXPECT_EQ(currentUpdateId(), 11u);
    {
      ScopedUpdateId Inner(22);
      EXPECT_EQ(currentUpdateId(), 22u);
    }
    EXPECT_EQ(currentUpdateId(), 11u);
  }
  EXPECT_EQ(currentUpdateId(), 0u);
}

TEST(TraceRecorderTest, DropsOldestWhenTheRingWraps) {
  Recorder &R = Recorder::instance();
  R.clear();
  const uint64_t Id = 9002;
  const size_t Extra = 100;
  uint64_t DroppedBefore = R.dropped();
  {
    ScopedUpdateId Tag(Id);
    for (size_t I = 0; I != Recorder::SlotsPerThread + Extra; ++I)
      R.complete("wrap", "evt", I, 1, I);
  }
  std::vector<EventCopy> Mine = eventsFor(Id);
  // The ring holds at most SlotsPerThread events; the survivors are the
  // most recent ones.
  EXPECT_EQ(Mine.size(), Recorder::SlotsPerThread);
  uint64_t MinArg = UINT64_MAX;
  for (const EventCopy &E : Mine)
    MinArg = std::min(MinArg, E.Arg);
  EXPECT_GE(MinArg, Extra);
  EXPECT_GE(R.dropped(), DroppedBefore + Extra);
}

TEST(TraceRecorderTest, SnapshotSeesOtherThreadsRings) {
  Recorder &R = Recorder::instance();
  R.clear();
  const uint64_t Id = 9003;
  uint32_t MainTid = 0;
  {
    ScopedUpdateId Tag(Id);
    R.instant("t", "main");
  }
  std::thread([&] {
    ScopedUpdateId Tag(Id);
    R.instant("t", "worker");
  }).join();
  std::vector<EventCopy> Mine = eventsFor(Id);
  ASSERT_EQ(Mine.size(), 2u);
  for (const EventCopy &E : Mine)
    if (std::string(E.Name) == "main")
      MainTid = E.Tid;
  for (const EventCopy &E : Mine)
    if (std::string(E.Name) == "worker") {
      EXPECT_NE(E.Tid, MainTid);
    }
}

TEST(TraceRecorderTest, InternReturnsStablePointers) {
  const char *A = intern("verify.mod.fn1");
  const char *B = intern(std::string("verify.mod.") + "fn1");
  const char *C = intern("verify.mod.fn2");
  EXPECT_EQ(A, B); // same content, same pooled pointer
  EXPECT_NE(A, C);
  EXPECT_STREQ(C, "verify.mod.fn2");
}

TEST(TraceSpanTreeTest, NestsByTimeContainmentPerThread) {
  Recorder &R = Recorder::instance();
  R.clear();
  const uint64_t Id = 9004;
  {
    ScopedUpdateId Tag(Id);
    R.complete("stage", "pipeline", 100, 900);  // [100, 1000)
    R.complete("stage", "verify", 150, 100, 42); // [150, 250) -> child
    R.complete("stage", "link", 300, 100);       // [300, 400) -> child
    R.instant("update", "ready"); // real-time ts: a root, not nested
  }
  {
    ScopedUpdateId Tag(777); // different update: must not appear
    R.complete("stage", "other", 100, 10);
  }
  std::string J = spanTreeJson(Id);
  EXPECT_NE(J.find("\"update\": 9004"), std::string::npos);
  EXPECT_NE(J.find("\"events\": 4"), std::string::npos);
  EXPECT_EQ(J.find("\"other\""), std::string::npos);
  // The pipeline span is the single root and carries children.
  size_t Pipeline = J.find("\"name\": \"pipeline\"");
  ASSERT_NE(Pipeline, std::string::npos);
  size_t Children = J.find("\"children\": [", Pipeline);
  ASSERT_NE(Children, std::string::npos);
  EXPECT_LT(Children, J.find("\"name\": \"verify\""));
  EXPECT_LT(Children, J.find("\"name\": \"link\""));
  EXPECT_NE(J.find("\"arg\": 42"), std::string::npos);
  // verify and link are siblings: link is not inside verify's subtree.
  EXPECT_LT(J.find("\"name\": \"verify\""), J.find("\"name\": \"link\""));
  EXPECT_EQ(countOccurrences(J, "\"children\": ["), 1u);
}

TEST(TraceSpanTreeTest, PairsCrossThreadBeginEndByUpdateId) {
  Recorder &R = Recorder::instance();
  R.clear();
  const uint64_t Id = 9005;
  R.begin("ctl", "backlog", Id);
  std::thread([&] { R.end("ctl", "backlog", Id); }).join();
  std::string J = spanTreeJson(Id);
  // The pair is synthesized into one interval span with a finite
  // duration (not left dangling to "now").
  size_t At = J.find("\"name\": \"backlog\"");
  ASSERT_NE(At, std::string::npos);
  EXPECT_NE(J.find("\"kind\": \"interval\""), std::string::npos);
  EXPECT_EQ(countOccurrences(J, "\"name\": \"backlog\""), 1u);
}

TEST(TraceChromeExportTest, EmitsTraceEventJson) {
  Recorder &R = Recorder::instance();
  R.clear();
  const uint64_t Id = 9006;
  {
    ScopedUpdateId Tag(Id);
    R.complete("stage", "pipeline", 10, 20, 1);
    R.instant("update", "ready");
  }
  R.begin("ctl", "backlog", Id);
  R.end("ctl", "backlog", Id);

  std::string J = chromeTraceJson(Id);
  EXPECT_EQ(J.find("{\"traceEvents\": ["), 0u);
  EXPECT_NE(J.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(J.find("\"dur\": 20"), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(J.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(J.find("\"id\": 9006"), std::string::npos);
  EXPECT_NE(J.find("\"args\": {\"update\": 9006"), std::string::npos);

  // Unfiltered export includes everything; the filter excludes other
  // updates' events.
  {
    ScopedUpdateId Tag(12345);
    R.instant("x", "noise");
  }
  EXPECT_EQ(chromeTraceJson(Id).find("noise"), std::string::npos);
  EXPECT_NE(chromeTraceJson().find("noise"), std::string::npos);
}

TEST(TracePhaseTest, PhaseNamesAndHistogramsWork) {
  EXPECT_STREQ(phaseName(Phase::Analysis), "analysis");
  EXPECT_STREQ(phaseName(Phase::QueueWait), "queue_wait");
  EXPECT_STREQ(phaseName(Phase::BarrierPark), "barrier_park");
  EXPECT_STREQ(phaseName(Phase::JournalSeal), "journal_seal");
  LatencyHistogram &H = phaseHistogram(Phase::Analysis);
  uint64_t Before = H.count();
  notePhase(Phase::Analysis, 123);
  EXPECT_EQ(H.count(), Before + 1);
  EXPECT_GE(H.TotalUs.load(), 123u);
}

/// Each update phase is timed once, by its span: a journaled VTAL patch's
/// record fields and phase samples are the durations of the spans that
/// cover them.  The ring keeps microseconds truncated to the recorder's
/// timebase, so a span and its nanosecond-derived field agree to 1 us.
TEST(TracePhaseTest, RecordFieldsAndPhaseSamplesAreSpanDurations) {
  Recorder::instance().clear();
  std::string Dir = ::testing::TempDir() + "dsu_trace_stopwatch_" +
                    std::to_string(static_cast<unsigned>(::getpid()));
  persist::UpdateJournal::Options JO;
  JO.Sync = false;
  Expected<std::unique_ptr<persist::UpdateJournal>> J =
      persist::UpdateJournal::open(Dir, JO);
  ASSERT_TRUE(J) << J.takeError().str();
  (*J)->beginBoot("");

  Runtime RT;
  flashed::FlashedApp App(RT);
  flashed::DocStore Docs;
  Docs.put("/doc.html", "<html>doc</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));
  RT.attachJournal(J->get());

  const LatencyHistogram &Intent = phaseHistogram(Phase::JournalIntent);
  uint64_t IntentN = Intent.count(), IntentUs = Intent.TotalUs.load();
  StagedUpdate U = RT.controller().stageArtifactText(
      flashed::vtalParseFixPatchText(), "stopwatch");
  RT.controller().waitIdle();
  ASSERT_EQ(RT.updatePoint(), 1u);
  RT.attachJournal(nullptr);
  UpdateRecord Rec = U.record();
  ASSERT_TRUE(Rec.Succeeded) << Rec.FailureReason;
  ASSERT_GT(Rec.InstructionsVerified, 0u);

  std::vector<EventCopy> Events = eventsFor(U.id());
  auto DurUsOf = [&](const char *Cat, const std::string &Name) -> double {
    const EventCopy *Found = nullptr;
    for (const EventCopy &E : Events)
      if (E.Kind == EventKind::Complete && std::string(E.Category) == Cat &&
          Name == E.Name) {
        EXPECT_EQ(Found, nullptr) << Cat << "/" << Name << " recorded twice";
        Found = &E;
      }
    EXPECT_NE(Found, nullptr) << "no " << Cat << "/" << Name << " span";
    return Found ? static_cast<double>(Found->DurUs) : -1;
  };
  EXPECT_NEAR(DurUsOf("stage", "verify"), Rec.VerifyMs * 1000, 1.0);
  EXPECT_NEAR(DurUsOf("stage", "state.build"), Rec.BuildMs * 1000, 1.0);
  EXPECT_NEAR(DurUsOf("commit", Rec.CommitMode), Rec.CommitMs * 1000, 1.0);
  ASSERT_EQ(Intent.count(), IntentN + 1);
  EXPECT_NEAR(DurUsOf("journal", "intent"),
              static_cast<double>(Intent.TotalUs.load() - IntentUs), 1.0);
}

// --- VTAL hot-function profiler -----------------------------------------

vtal::Module mustAssembleVerified(const char *Src) {
  Expected<vtal::Module> M = vtal::assemble(Src);
  EXPECT_TRUE(M) << M.error().str();
  Error E = vtal::verifyModule(*M);
  EXPECT_FALSE(E) << E.str();
  return std::move(*M);
}

/// Three functions: `hot` burns a big loop, `cold` returns immediately,
/// and `outer` calls both — so the ranking must rely on *self*-fuel
/// attribution, not whole-activation fuel.
constexpr const char *kProfiledModule = R"(
module profiled
func hot (n: int) -> int {
  locals (i: int)
  push.i 0
  store i
loop:
  load i
  load n
  ge
  brif done
  load i
  push.i 1
  add
  store i
  br loop
done:
  load i
  ret
}
func cold () -> int {
  push.i 1
  ret
}
func outer (n: int) -> int {
  load n
  call hot
  call cold
  add
  ret
}
func trapper (n: int) -> int {
  push.i 1
  load n
  div
  ret
}
)";

TEST(VtalProfilerTest, RankingSurfacesTheInjectedHotFunction) {
  ProfileRegistry::instance().clearForTest();
  vtal::Module M = mustAssembleVerified(kProfiledModule);
  std::vector<std::string> Names;
  for (const vtal::Function &F : M.Functions)
    Names.push_back(F.Name);
  std::shared_ptr<ModuleProfile> Prof =
      ProfileRegistry::instance().create("p-hot", M.Name, Names);

  vtal::Interpreter I(M);
  I.setProfile(Prof.get());
  for (int K = 0; K != 200; ++K) {
    Expected<vtal::Value> R =
        I.call("outer", {vtal::Value::makeInt(500)});
    ASSERT_TRUE(R) << R.error().str();
    EXPECT_EQ(R->asInt(), 501);
  }

  std::vector<HotFn> Top = ProfileRegistry::instance().ranking(2);
  ASSERT_GE(Top.size(), 1u);
  EXPECT_EQ(Top[0].Fn, "hot");
  EXPECT_EQ(Top[0].Module, "profiled");
  EXPECT_EQ(Top[0].PatchId, "p-hot");
  EXPECT_EQ(Top[0].Calls, 200u);
  // Self-fuel: hot's loop dwarfs outer's glue even though outer's
  // whole-activation fuel includes hot's.
  uint64_t OuterFuel = 0, ColdFuel = 0;
  for (const HotFn &F : ProfileRegistry::instance().ranking(0)) {
    if (F.Fn == "outer")
      OuterFuel = F.SelfFuel;
    if (F.Fn == "cold")
      ColdFuel = F.SelfFuel;
  }
  EXPECT_GT(Top[0].SelfFuel, OuterFuel * 10);
  EXPECT_GT(Top[0].SelfFuel, 500u * 200u);
  EXPECT_LT(ColdFuel, 10u * 200u);

  ProfileRegistry::Totals T = ProfileRegistry::instance().totals();
  EXPECT_EQ(T.Calls, 200u * 3u); // outer + hot + cold activations
  EXPECT_EQ(T.Traps, 0u);
  EXPECT_GT(T.Fuel, 0u);

  std::string J = profileJson(3);
  EXPECT_NE(J.find("\"fn\": \"hot\""), std::string::npos);
  EXPECT_NE(J.find("\"total_calls\": 600"), std::string::npos);
  // Ranked hottest-first: hot's row precedes outer's.
  EXPECT_LT(J.find("\"fn\": \"hot\""), J.find("\"fn\": \"outer\""));
}

TEST(VtalProfilerTest, CountsTrapsAndSamplesActivationTime) {
  ProfileRegistry::instance().clearForTest();
  vtal::Module M = mustAssembleVerified(kProfiledModule);
  std::vector<std::string> Names;
  for (const vtal::Function &F : M.Functions)
    Names.push_back(F.Name);
  std::shared_ptr<ModuleProfile> Prof =
      ProfileRegistry::instance().create("p-trap", M.Name, Names);

  vtal::Interpreter I(M);
  I.setProfile(Prof.get());
  EXPECT_FALSE(I.call("trapper", {vtal::Value::makeInt(0)})); // div by 0
  ASSERT_TRUE(I.call("trapper", {vtal::Value::makeInt(2)}));
  // Activation 0 of each public entry is sampled (SampleEvery-aligned).
  for (int K = 0; K != 2; ++K)
    ASSERT_TRUE(I.call("hot", {vtal::Value::makeInt(10)}));

  EXPECT_EQ(ProfileRegistry::instance().totals().Traps, 1u);
  uint64_t Samples = 0;
  for (const HotFn &F : ProfileRegistry::instance().ranking(0)) {
    if (F.Fn == "trapper") {
      EXPECT_EQ(F.Traps, 1u);
    }
    Samples += F.Samples;
  }
  EXPECT_GE(Samples, 1u);

  // resetAll() zeroes the window but keeps the registrations.
  ProfileRegistry::instance().resetAll();
  EXPECT_EQ(ProfileRegistry::instance().totals().Calls, 0u);
  EXPECT_EQ(ProfileRegistry::instance().totals().Traps, 0u);
}

/// A sampled activation far shorter than a microsecond still records its
/// time: the profiler accumulates ns, and /admin/profile prints µs with
/// three decimals.
TEST(VtalProfilerTest, SubMicrosecondActivationRecordsItsTime) {
  ProfileRegistry::instance().clearForTest();
  vtal::Module M = mustAssembleVerified(R"(
module tiny
func one () -> int {
  push.i 1
  ret
}
)");
  std::shared_ptr<ModuleProfile> Prof =
      ProfileRegistry::instance().create("p-tiny", M.Name, {"one"});
  vtal::Interpreter I(M);
  // Warm up unprofiled, so the one sampled activation (activation 0 of
  // the profile) runs warm and well under a microsecond.
  for (int K = 0; K != 100; ++K)
    ASSERT_TRUE(I.call("one", {}));
  I.setProfile(Prof.get());
  ASSERT_TRUE(I.call("one", {}));
  std::vector<HotFn> Rows = ProfileRegistry::instance().ranking(0);
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_EQ(Rows[0].Samples, 1u);
  EXPECT_GT(Rows[0].SampledNs, 0u);

  std::string J = profileJson(0);
  size_t At = J.find("\"sampled_us\": ");
  ASSERT_NE(At, std::string::npos) << J;
  EXPECT_GT(std::stod(J.substr(At + 14)), 0.0) << J;
}

TEST(VtalProfilerTest, UnattachedInterpreterRecordsNothing) {
  ProfileRegistry::instance().clearForTest();
  vtal::Module M = mustAssembleVerified(kProfiledModule);
  vtal::Interpreter I(M); // no setProfile
  ASSERT_TRUE(I.call("hot", {vtal::Value::makeInt(100)}));
  EXPECT_EQ(ProfileRegistry::instance().totals().Calls, 0u);
}

} // namespace
