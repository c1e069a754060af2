//===- tests/alloc/test_alloc.cpp - Heap allocations per cache hit -*- C++ -*-//
///
/// \file
/// Pins how many times the global operator new runs per cache hit of a
/// 1 KiB document served by FlashedApp::handleInto: on the version-1
/// pipeline, on the static baseline, and after each of P1..P5 applied in
/// order.  Counts do not move with the host, so they are pinned exactly
/// (to two decimals) where a timing could only be bounded.  A change
/// that lowers a count updates its pin here.
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
#include <iterator>
#include <string>

namespace alloc_pin {
// Defined with the counting allocation functions in counting_new.cpp, a
// separate file so that no call site here inlines them.
void startCounting();
uint64_t stopCounting();
} // namespace alloc_pin

using namespace dsu;
using namespace dsu::flashed;

namespace {

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

} // namespace
