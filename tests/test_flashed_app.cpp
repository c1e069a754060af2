//===- tests/test_flashed_app.cpp - FlashEd application tests -*- C++ -*-===//
///
/// The macro-benchmark application and its scripted evolution: behaviour
/// at v1, after each of P1..P5, and the static-vs-updateable equivalence
/// that underpins the throughput experiment (E2).

#include "flashed/App.h"
#include "flashed/Patches.h"

#include <gtest/gtest.h>

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
  // The fill is a copy-update-publish: it replaces the snapshot rather
  // than mutating it, so re-read the cell for the post-fill payload.
  auto *C = App.cacheCell()->get<CacheV1>();
  EXPECT_EQ(C->Entries.count("/doc.html"), 1u);
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
  auto DefaultDoc = cantFail(bindUpdateable<std::string()>(
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
  EXPECT_EQ(*V2->Entries.at("/doc.html").Body, "<html>doc</html>");
  EXPECT_EQ(V2->Entries.at("/doc.html").Hits, 0);

  // Hits now count.
  App.handle(get("/doc.html"));
  App.handle(get("/doc.html"));
  EXPECT_EQ(V2->Entries.at("/doc.html").Hits, 2);

  // And the new stats function reports them.
  auto Stats = cantFail(bindUpdateable<std::string()>(
      RT.updateables(), RT.types(), "flashed.cache_stats"));
  EXPECT_NE(Stats().find("hits=2"), std::string::npos);

  // Serving still works end to end.
  EXPECT_NE(App.handle(get("/doc.html")).find("200 OK"),
            std::string::npos);
}

TEST_F(FlashedAppTest, P4ShimsSignatureChange) {
  applyPatch(makePatchP4(App));
  // Old entry point still valid (now a shim)...
  App.handle(get("/doc.html"));
  // ...and the new wide interface exists.
  auto Log2 =
      cantFail(bindUpdateable<void(std::string, int64_t, int64_t)>(
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
  auto Recent = cantFail(bindUpdateable<std::string()>(
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
