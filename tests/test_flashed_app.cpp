//===- tests/test_flashed_app.cpp - FlashEd application tests -*- C++ -*-===//
///
/// The macro-benchmark application and its scripted evolution: behaviour
/// at v1, after each of P1..P5, and the static-vs-updateable equivalence
/// that underpins the throughput experiment (E2).

#include "flashed/App.h"
#include "flashed/Patches.h"
#include "patch/PatchBuilder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace dsu;
using namespace dsu::flashed;

namespace {

std::string get(const std::string &Target) {
  return "GET " + Target + " HTTP/1.0\r\nHost: t\r\n\r\n";
}

class FlashedAppTest : public ::testing::Test {
protected:
  void SetUp() override {
    DocStore Docs;
    Docs.put("/index.html", "<html>home</html>");
    Docs.put("/doc.html", "<html>doc</html>");
    Docs.put("/style.css", "body{}");
    Docs.put("/data.bin", "\x01\x02");
    ASSERT_FALSE(App.init(std::move(Docs)));
  }

  void applyPatch(Expected<Patch> P) {
    ASSERT_TRUE(P) << P.takeError().str();
    Error E = RT.applyNow(std::move(*P));
    ASSERT_FALSE(E) << E.str();
  }

  Runtime RT;
  FlashedApp App{RT};
};

TEST_F(FlashedAppTest, ServesDocuments) {
  std::string R = App.handle(get("/doc.html"));
  EXPECT_NE(R.find("200 OK"), std::string::npos);
  EXPECT_NE(R.find("<html>doc</html>"), std::string::npos);
  EXPECT_NE(R.find("text/html"), std::string::npos);
}

TEST_F(FlashedAppTest, RootMapsToIndex) {
  std::string R = App.handle(get("/"));
  EXPECT_NE(R.find("<html>home</html>"), std::string::npos);
}

TEST_F(FlashedAppTest, MissingDocumentIs404) {
  EXPECT_NE(App.handle(get("/ghost.html")).find("404"), std::string::npos);
}

TEST_F(FlashedAppTest, TraversalIs403) {
  EXPECT_NE(App.handle(get("/../etc/passwd")).find("403"),
            std::string::npos);
}

TEST_F(FlashedAppTest, BadMethodIs405) {
  EXPECT_NE(App.handle("POST / HTTP/1.0\r\n\r\n").find("405"),
            std::string::npos);
}

TEST_F(FlashedAppTest, MalformedIs400) {
  EXPECT_NE(App.handle("GARBAGE\r\n\r\n").find("400"), std::string::npos);
}

TEST_F(FlashedAppTest, HeadOmitsBody) {
  std::string R = App.handle("HEAD /doc.html HTTP/1.0\r\n\r\n");
  EXPECT_NE(R.find("200 OK"), std::string::npos);
  EXPECT_EQ(R.find("<html>doc</html>"), std::string::npos);
}

TEST_F(FlashedAppTest, CachePopulates) {
  EXPECT_TRUE(App.cacheCell()->get<CacheV1>()->Entries.empty());
  App.handle(get("/doc.html"));
  // The fill inserts in place into the cell's one payload.
  auto *C = App.cacheCell()->get<CacheV1>();
  EXPECT_EQ(C->Entries.size(), 1u);
  EXPECT_NE(C->Entries.find("/doc.html"), nullptr);
}

TEST_F(FlashedAppTest, V1QueryStringBug) {
  // The seeded defect: query strings defeat document lookup.
  EXPECT_NE(App.handle(get("/doc.html?x=1")).find("404"),
            std::string::npos);
}

TEST_F(FlashedAppTest, P1FixesQueryStrings) {
  applyPatch(makePatchP1(App));
  std::string R = App.handle(get("/doc.html?x=1"));
  EXPECT_NE(R.find("200 OK"), std::string::npos);
  EXPECT_EQ(App.ParseTarget.version(), 2u);
}

TEST_F(FlashedAppTest, P2ExtendsMimeAndMapping) {
  // v1: css served as octet-stream, trailing slash 404s.
  EXPECT_NE(App.handle(get("/style.css")).find("application/octet-stream"),
            std::string::npos);
  applyPatch(makePatchP2(App));
  EXPECT_NE(App.handle(get("/style.css")).find("text/css; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(App.handle(get("/doc.html/")).find("200 OK"),
            std::string::npos);
  // New function exists.
  auto DefaultDoc = cantFail(bindUpdateable<SharedStr()>(
      RT.updateables(), RT.types(), "flashed.default_doc"));
  EXPECT_EQ(DefaultDoc(), "/index.html");
}

TEST_F(FlashedAppTest, P3MigratesLiveCache) {
  // Warm the v1 cache.
  App.handle(get("/doc.html"));
  App.handle(get("/index.html"));
  ASSERT_EQ(App.cacheCell()->get<CacheV1>()->Entries.size(), 2u);

  applyPatch(makePatchP3(App));

  // Live data survived the representation change.
  EXPECT_EQ(App.cacheCell()->type()->str(), "%flashed_cache@2");
  auto *V2 = App.cacheCell()->get<CacheV2>();
  ASSERT_EQ(V2->Entries.size(), 2u);
  const CacheEntryV2 *Doc = V2->Entries.find("/doc.html");
  ASSERT_NE(Doc, nullptr);
  EXPECT_EQ(*Doc->Body, "<html>doc</html>");
  EXPECT_EQ(Doc->hits(), 0);

  // Hits now count.
  App.handle(get("/doc.html"));
  App.handle(get("/doc.html"));
  EXPECT_EQ(Doc->hits(), 2);

  // And the new stats function reports them.
  auto Stats = cantFail(bindUpdateable<SharedStr()>(
      RT.updateables(), RT.types(), "flashed.cache_stats"));
  EXPECT_NE(Stats().str().find("hits=2"), std::string::npos);

  // Serving still works end to end.
  EXPECT_NE(App.handle(get("/doc.html")).find("200 OK"),
            std::string::npos);
}

TEST_F(FlashedAppTest, RollbackPastTheCacheMigrationIsRefused) {
  // P3 migrates the cache to %flashed_cache@2; the v1 cache_get would
  // read the migrated cell as a CacheV1, so rolling it back is refused
  // with a conflict that names the patch.
  App.enableAdmin(RT.controller());
  applyPatch(makePatchP3(App));
  std::string R = App.handle("POST /admin/rollback?name=flashed.cache_get "
                             "HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(R.find("409"), std::string::npos) << R;
  EXPECT_NE(R.find("P3"), std::string::npos) << R;

  // The cache still serves: a cold miss and a hit both return the
  // stored document, and the hit counts.
  auto Served = [&](const std::string &Path) {
    std::string Raw = get(Path), Out;
    SharedBody Body;
    App.handleInto(scanRequestHead(Raw), Raw, Out, Body);
    return Body;
  };
  SharedBody Doc = App.docs().getShared("/doc.html");
  EXPECT_EQ(Served("/doc.html"), Doc);
  EXPECT_EQ(Served("/doc.html"), Doc);
  auto Stats = cantFail(bindUpdateable<SharedStr()>(
      RT.updateables(), RT.types(), "flashed.cache_stats"));
  EXPECT_NE(Stats().str().find("hits=1"), std::string::npos)
      << Stats().str();
}

TEST_F(FlashedAppTest, P4ShimsSignatureChange) {
  applyPatch(makePatchP4(App));
  // Old entry point still valid (now a shim)...
  App.handle(get("/doc.html"));
  // ...and the new wide interface exists.
  auto Log2 =
      cantFail(bindUpdateable<void(SharedStr, int64_t, int64_t)>(
          RT.updateables(), RT.types(), "flashed.log_access2"));
  Log2("/x", 200, 1234);
  EXPECT_EQ(App.LogAccess.version(), 2u);
}

TEST_F(FlashedAppTest, P5IntroducesAccessLog) {
  applyPatch(makePatchP4(App));
  applyPatch(makePatchP5(App));

  App.handle(get("/doc.html"));
  App.handle(get("/ghost.html"));

  auto Count = cantFail(bindUpdateable<int64_t()>(
      RT.updateables(), RT.types(), "flashed.log_count"));
  auto Recent = cantFail(bindUpdateable<SharedStr()>(
      RT.updateables(), RT.types(), "flashed.log_recent"));
  EXPECT_GE(Count(), 2);
  std::string R = Recent();
  EXPECT_NE(R.find("200 /doc.html"), std::string::npos);
  EXPECT_NE(R.find("404"), std::string::npos);
}

TEST_F(FlashedAppTest, FullSeriesAppliesInOrder) {
  Expected<std::vector<Patch>> Series = makePatchSeries(App);
  ASSERT_TRUE(Series) << Series.takeError().str();
  EXPECT_EQ(Series->size(), 5u);
  for (Patch &P : *Series) {
    Error E = RT.applyNow(std::move(P));
    ASSERT_FALSE(E) << E.str();
  }
  EXPECT_EQ(RT.updatesApplied(), 5u);

  // Post-evolution behaviour: everything at once.
  std::string R = App.handle(get("/style.css?v=3"));
  EXPECT_NE(R.find("200 OK"), std::string::npos);
  EXPECT_NE(R.find("text/css"), std::string::npos);
  auto Count = cantFail(bindUpdateable<int64_t()>(
      RT.updateables(), RT.types(), "flashed.log_count"));
  EXPECT_GE(Count(), 1);
  auto Log = RT.updateLog();
  EXPECT_EQ(Log.size(), 5u);
  for (const UpdateRecord &Rec : Log)
    EXPECT_TRUE(Rec.Succeeded) << Rec.PatchId << ": " << Rec.FailureReason;
}

TEST_F(FlashedAppTest, ServedBodyIsTheStoredDocument) {
  // Zero-copy through the cache stages: a miss serves the document
  // store's bytes, cache_put stores that object, and a hit serves it
  // again — at %flashed_cache@1 and after P3's migration to @2.
  auto Served = [&](const std::string &Path) {
    std::string Raw = get(Path), Out;
    SharedBody Body;
    App.handleInto(scanRequestHead(Raw), Raw, Out, Body);
    return Body;
  };
  SharedBody Doc = App.docs().getShared("/doc.html");
  EXPECT_EQ(Served("/doc.html"), Doc);
  EXPECT_EQ(Served("/doc.html"), Doc);

  applyPatch(makePatchP3(App));
  EXPECT_EQ(Served("/doc.html"), Doc);
  SharedBody Home = App.docs().getShared("/index.html");
  EXPECT_EQ(Served("/index.html"), Home);
  EXPECT_EQ(Served("/index.html"), Home);
}

TEST_F(FlashedAppTest, EmptyDocumentIsServedWithoutRepublishingTheCache) {
  // "" from cache_get means a miss, so an empty document can never hit;
  // serving it must not publish a new cache snapshot per request.
  App.docs().put("/empty.txt", "");
  uint64_t Gen = 0;
  for (int I = 0; I != 4; ++I) {
    std::string R = App.handle(get("/empty.txt"));
    EXPECT_NE(R.find("200 OK"), std::string::npos) << R;
    EXPECT_NE(R.find("Content-Length: 0\r\n"), std::string::npos) << R;
    if (I == 0)
      Gen = App.cacheCell()->mutationGeneration();
  }
  EXPECT_EQ(App.cacheCell()->mutationGeneration(), Gen);
}

// The cache's memory bound (DESIGN §12): a put happens only for a path
// the DocStore returned, so the cache's keys are a subset of the
// DocStore's paths and its size never exceeds the DocStore's.
TEST_F(FlashedAppTest, MissesOutsideTheDocStoreAddNoEntries) {
  App.handle(get("/doc.html"));
  App.handle(get("/index.html"));
  auto *C = App.cacheCell()->get<CacheV1>();
  ASSERT_EQ(C->Entries.size(), 2u);
  for (int I = 0; I != 10000; ++I) {
    // A missing path, and a v1 query-string target (the seeded defect
    // maps it to a path no document has).
    std::string Target = I % 2 ? "/ghost" + std::to_string(I) + ".html"
                               : "/doc.html?x=" + std::to_string(I);
    std::string R = App.handle(get(Target));
    ASSERT_NE(R.find("404"), std::string::npos) << Target;
  }
  EXPECT_EQ(C->Entries.size(), 2u);
}

TEST_F(FlashedAppTest, RacingMissesOnOneKeyLeaveOneEntry) {
  SharedBody Doc = App.docs().getShared("/doc.html");
  for (int Round = 0; Round != 50; ++Round) {
    {
      StateCell *Cell = App.cacheCell();
      std::lock_guard<std::mutex> G(Cell->payloadLock());
      Cell->publish(std::make_shared<CacheV1>());
    }
    std::atomic<int> Ready{0};
    std::atomic<int> Served{0};
    std::vector<std::thread> Threads;
    for (int T = 0; T != 4; ++T)
      Threads.emplace_back([&] {
        Ready.fetch_add(1);
        while (Ready.load() != 4)
          std::this_thread::yield();
        std::string Raw = get("/doc.html"), Out;
        SharedBody Body;
        App.handleInto(scanRequestHead(Raw), Raw, Out, Body);
        Served.fetch_add(Body == Doc);
      });
    for (std::thread &T : Threads)
      T.join();
    EXPECT_EQ(Served.load(), 4);
    auto *C = App.cacheCell()->get<CacheV1>();
    ASSERT_EQ(C->Entries.size(), 1u) << "round " << Round;
    const SharedBody *Cached = C->Entries.find("/doc.html");
    ASSERT_NE(Cached, nullptr);
    EXPECT_EQ(*Cached, Doc);
  }
}

// Property: the served path is the updateable pipeline.  Rebinding any
// one of the six stages through the in-process patch API changes what
// handle() serves (or, for the two side-effect stages, what happens).
class StageRebinding : public FlashedAppTest,
                       public ::testing::WithParamInterface<const char *> {};

TEST_P(StageRebinding, ChangesWhatIsServed) {
  const std::string Stage = GetParam();
  TypeContext &Ctx = RT.types();
  const Type *Str = Ctx.stringType();
  const Type *StrToStr = Ctx.fnType({Str}, Str);
  auto Returning = [](const char *Result) {
    return makeClosureBinding<SharedStr, SharedStr>(
        [Result](SharedStr) -> SharedStr { return Result; }, 0, "test");
  };
  std::vector<std::string> Puts;
  int Logs = 0;

  PatchBuilder B(Ctx, "rebind-" + Stage);
  const std::string Name = "flashed." + Stage;
  if (Stage == "parse_target")
    B.provideBinding(Name, StrToStr, Returning("GET /index.html"));
  else if (Stage == "map_url")
    B.provideBinding(Name, StrToStr, Returning("/index.html"));
  else if (Stage == "mime_type")
    B.provideBinding(Name, StrToStr, Returning("text/x-rebound"));
  else if (Stage == "cache_get")
    B.provideBinding(Name, StrToStr, Returning("PATCHED-BODY"));
  else if (Stage == "cache_put")
    B.provideBinding(Name, Ctx.fnType({Str, Str}, Ctx.unitType()),
                     makeClosureBinding<void, SharedStr, SharedStr>(
                         [&Puts](SharedStr Path, SharedStr) {
                           Puts.push_back(Path);
                         },
                         0, "test"));
  else
    B.provideBinding(Name, Ctx.fnType({Str, Ctx.intType()}, Ctx.unitType()),
                     makeClosureBinding<void, SharedStr, int64_t>(
                         [&Logs](SharedStr, int64_t) { ++Logs; }, 0,
                         "test"));
  applyPatch(B.build());

  std::string R = App.handle(get("/doc.html"));
  ASSERT_NE(R.find("200 OK"), std::string::npos) << R;
  std::string Body = R.substr(R.find("\r\n\r\n") + 4);
  if (Stage == "parse_target" || Stage == "map_url") {
    EXPECT_EQ(Body, "<html>home</html>");
  } else if (Stage == "mime_type") {
    EXPECT_NE(R.find("Content-Type: text/x-rebound\r\n"), std::string::npos)
        << R;
  } else if (Stage == "cache_get") {
    EXPECT_EQ(Body, "PATCHED-BODY");
  } else if (Stage == "cache_put") {
    EXPECT_EQ(Puts, std::vector<std::string>{"/doc.html"});
    EXPECT_TRUE(App.cacheCell()->get<CacheV1>()->Entries.empty());
  } else {
    EXPECT_EQ(Logs, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStages, StageRebinding,
    ::testing::Values("parse_target", "map_url", "mime_type", "cache_get",
                      "cache_put", "log_access"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      return std::string(Info.param);
    });

// Property: before any update, the updateable pipeline and the static
// pipeline are observationally equivalent on every request shape.
class PipelineEquivalence : public ::testing::TestWithParam<const char *> {};

using IntoHandler = void (FlashedApp::*)(const RequestHead &,
                                         std::string_view, std::string &,
                                         SharedBody &);

/// The bytes a connection would carry for \p Raw served by \p Into:
/// the response head written into the output buffer, then the body.
std::string serveInto(FlashedApp &App, IntoHandler Into,
                      std::string_view Raw) {
  std::string Out;
  SharedBody Body;
  (App.*Into)(scanRequestHead(Raw), Raw, Out, Body);
  if (Body)
    Out += *Body;
  return Out;
}

TEST_P(PipelineEquivalence, StaticMatchesUpdateable) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/index.html", "<html>home</html>");
  Docs.put("/doc.html", "<html>doc</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));

  std::string Raw = GetParam();
  EXPECT_EQ(serveInto(App, &FlashedApp::handleInto, Raw),
            serveInto(App, &FlashedApp::handleStaticInto, Raw));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineEquivalence,
    ::testing::Values("GET / HTTP/1.0\r\n\r\n",
                      "GET /doc.html HTTP/1.0\r\n\r\n",
                      "GET /ghost HTTP/1.0\r\n\r\n",
                      "GET /doc.html?q=1 HTTP/1.0\r\n\r\n",
                      "GET /../x HTTP/1.0\r\n\r\n",
                      "HEAD /doc.html HTTP/1.0\r\n\r\n",
                      "POST / HTTP/1.0\r\n\r\n", "BAD\r\n\r\n",
                      // Keep-alive shapes: the same pipeline, with the
                      // connection decision echoed in the head.
                      "GET / HTTP/1.1\r\nHost: t\r\n\r\n",
                      "GET /doc.html HTTP/1.1\r\nHost: t\r\n\r\n",
                      "GET /ghost HTTP/1.1\r\nHost: t\r\n\r\n",
                      "HEAD /doc.html HTTP/1.1\r\nHost: t\r\n\r\n",
                      "POST / HTTP/1.1\r\nHost: t\r\n\r\n",
                      "GET /doc.html HTTP/1.1\r\nConnection: close\r\n\r\n",
                      "GET /doc.html HTTP/1.0\r\n"
                      "Connection: keep-alive\r\n\r\n"));

} // namespace
