//===- tests/alloc/test_alloc.cpp - Heap allocations per cache hit -*- C++ -*-//
///
/// \file
/// Pins how many times the global operator new runs per cache hit of a
/// 1 KiB document served by FlashedApp::handleInto: on the version-1
/// pipeline, on the static baseline, and after each of P1..P5 applied in
/// order.  It also pins the cost of a cache miss: filling 1024 distinct
/// documents into an empty cache, on version 1 and after P3, must cost a
/// count of allocations per miss that does not grow with the cache, and
/// must retire into the epoch domain only at the table's growth steps.
/// Counts do not move with the host, so they are pinned exactly (to two
/// decimals) where a timing could only be bounded.  A change that lowers
/// a count updates its pin here.
///
/// Its own binary because it replaces the global allocation functions
/// with counting ones.  Only allocations made on the thread under
/// measurement count.
///
//===----------------------------------------------------------------------===//

#include "flashed/App.h"
#include "flashed/Patches.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

namespace alloc_pin {
// Defined with the counting allocation functions in counting_new.cpp, a
// separate file so that no call site here inlines them.
void startCounting();
uint64_t stopCounting();
} // namespace alloc_pin

using namespace dsu;
using namespace dsu::flashed;

namespace {

/// Operator new calls per miss of a 1024-document fill, at version 1
/// and after P3 alike, the table's growth steps amortized into the last
/// digits: 7 per miss plus 16 per fill (7184), 14 of them the table's
/// slot arrays.  The epoch domain's limbo list adds 0-2 allocations per
/// fill, depending on where its storage stands when the fill starts,
/// and the thread's reusable reclaim buffer one on its first reclaim.
/// A reclaim that built a fresh buffer for each of the six growth
/// retires read 7.02 (7190); a put that copied the whole cache made
/// this grow with the number of entries.
constexpr double AllocsPerMiss = 7.015;
constexpr int WarmupHits = 100;
constexpr int MeasuredHits = 100000;
const std::string Request =
    "GET /doc.html HTTP/1.1\r\nHost: localhost\r\n\r\n";

using IntoHandler = void (FlashedApp::*)(const RequestHead &,
                                         std::string_view, std::string &,
                                         SharedBody &);

class AllocPinTest : public ::testing::Test {
protected:
  void SetUp() override {
    DocStore Docs;
    Docs.put("/doc.html", syntheticBody(1024));
    ASSERT_FALSE(App.init(std::move(Docs)));
  }

  /// Mean operator new calls per hit of /doc.html through \p Into, with
  /// the connection's output buffer reused across requests.
  double allocationsPerHit(IntoHandler Into) {
    RequestHead Head = scanRequestHead(Request);
    std::string Out;
    SharedBody Body;
    auto Serve = [&] {
      Out.clear();
      Body.reset();
      (App.*Into)(Head, Request, Out, Body);
    };
    for (int I = 0; I != WarmupHits; ++I)
      Serve();
    EXPECT_EQ(Out.compare(0, 15, "HTTP/1.1 200 OK"), 0) << Out;
    EXPECT_TRUE(Body && Body->size() == 1024u);
    alloc_pin::startCounting();
    for (int I = 0; I != MeasuredHits; ++I)
      Serve();
    return static_cast<double>(alloc_pin::stopCounting()) / MeasuredHits;
  }

  Runtime RT;
  FlashedApp App{RT};
};

/// The miss path: a DocStore of 1024 distinct 1 KiB documents, none of
/// them cached yet.
class MissPinTest : public AllocPinTest {
protected:
  static constexpr size_t Docs = 1024;
  /// Slot-array doublings from the table's first 32 slots to the first
  /// array that holds 1024 entries at most half full (2048 slots).
  static constexpr uint64_t GrowthSteps = 6;

  void SetUp() override {
    DocStore Store;
    for (size_t I = 0; I != Docs; ++I)
      Store.put(missPath(I), syntheticBody(1024, I));
    ASSERT_FALSE(App.init(std::move(Store)));
  }

  /// Serves one GET of each document and returns the mean operator new
  /// calls per miss; \p Retires receives the epoch domain's retire count
  /// over the fill.
  double allocationsPerMiss(uint64_t &Retires) {
    std::vector<std::string> Requests;
    for (size_t I = 0; I != Docs; ++I)
      Requests.push_back("GET " + missPath(I) +
                         " HTTP/1.1\r\nHost: localhost\r\n\r\n");
    std::vector<RequestHead> Heads;
    for (const std::string &R : Requests)
      Heads.push_back(scanRequestHead(R));
    std::string Out;
    Out.reserve(4096);
    SharedBody Body;
    // The thread's first epoch pin registers it with the domain, a
    // one-time cost that is not the miss path's.
    { epoch::Guard Warm; }
    uint64_t RetiresBefore = epoch::domain().retiredTotal();
    alloc_pin::startCounting();
    size_t Served = 0;
    for (size_t I = 0; I != Docs; ++I) {
      Out.clear();
      Body.reset();
      App.handleInto(Heads[I], Requests[I], Out, Body);
      Served += Out.compare(0, 15, "HTTP/1.1 200 OK") == 0 && Body &&
                Body->size() == 1024u;
    }
    uint64_t Allocations = alloc_pin::stopCounting();
    Retires = epoch::domain().retiredTotal() - RetiresBefore;
    EXPECT_EQ(Served, Docs);
    return static_cast<double>(Allocations) / Docs;
  }

  static std::string missPath(size_t I) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "/miss%04zu.html", I);
    return Buf;
  }
};

TEST_F(AllocPinTest, VersionOneHit) {
  EXPECT_NEAR(allocationsPerHit(&FlashedApp::handleInto), 5.00, 0.005);
}

TEST_F(AllocPinTest, StaticBaselineHit) {
  EXPECT_NEAR(allocationsPerHit(&FlashedApp::handleStaticInto), 5.00,
              0.005);
}

TEST_F(AllocPinTest, HitAfterEachPatch) {
  Expected<std::vector<Patch>> Series = makePatchSeries(App);
  ASSERT_TRUE(Series) << Series.takeError().str();
  const double PerHit[] = {5.00, 6.00, 6.00, 7.00, 6.06};
  ASSERT_EQ(Series->size(), std::size(PerHit));
  for (size_t I = 0; I != Series->size(); ++I) {
    SCOPED_TRACE("after P" + std::to_string(I + 1));
    ASSERT_FALSE(RT.applyNow(std::move((*Series)[I])));
    EXPECT_NEAR(allocationsPerHit(&FlashedApp::handleInto), PerHit[I],
                0.005);
  }
}

TEST_F(MissPinTest, VersionOneFill) {
  uint64_t Retires = 0;
  EXPECT_NEAR(allocationsPerMiss(Retires), AllocsPerMiss, 0.005);
  EXPECT_LE(Retires, GrowthSteps + 1);
  EXPECT_EQ(App.cacheCell()->get<CacheV1>()->Entries.size(), Docs);
}

TEST_F(MissPinTest, FillAfterP3) {
  Expected<Patch> P3 = makePatchP3(App);
  ASSERT_TRUE(P3) << P3.takeError().str();
  ASSERT_FALSE(RT.applyNow(std::move(*P3)));
  uint64_t Retires = 0;
  EXPECT_NEAR(allocationsPerMiss(Retires), AllocsPerMiss, 0.005);
  EXPECT_LE(Retires, GrowthSteps + 1);
  EXPECT_EQ(App.cacheCell()->get<CacheV2>()->Entries.size(), Docs);
}

} // namespace
