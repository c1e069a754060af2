//===- tests/soak/test_soak.cpp - Resident code under update churn -*- C++ -*-//
///
/// \file
/// Counts, rather than measures, what an unbounded update stream leaves
/// resident.  One Runtime serving FlashEd takes 10^4 alternating
/// updates: the two shipped VTAL artifacts (the query-string parse fix
/// and the .svg mime type) committed rolling, in turn, and barrier
/// identity bumps of a state cell in between.  After every update each
/// slot must hold at most two bindings (the current one and the
/// rollback target) plus any a live roll chain still names, at most as
/// many VTAL instances must be alive, the profile registry must hold at
/// most two profiles per patch id, and its totals must never fall.  The
/// update log must stay within Runtime::kLogCap with the update just
/// committed as its newest record, while updatesApplied() keeps the
/// running total.  The run ends with a rollback, which must still
/// restore the previous behaviour.
///
/// Its own binary and ctest label (`ctest -L soak`), so a sanitizer lane
/// can run or repeat it by label.
///
//===----------------------------------------------------------------------===//

#include "flashed/App.h"
#include "flashed/Patches.h"
#include "patch/PatchBuilder.h"
#include "patch/PatchLoader.h"
#include "support/MemoryBuffer.h"
#include "trace/Profile.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace dsu;
using namespace dsu::flashed;

namespace {

constexpr unsigned kUpdates = 10000;
const std::string WithQuery = "GET /doc.html?x=1 HTTP/1.0\r\n\r\n";
const std::string Svg = "GET /pic.svg HTTP/1.0\r\n\r\n";

SharedStr noTarget(SharedStr) { return SharedStr(); }

/// One shipped artifact and what it left alive.
struct Artifact {
  const char *Slot;
  std::string Text;
  std::string PatchId;
  /// One entry per commit: the code's owner (the binding's KeepAlive)
  /// and the VTAL instance behind it.  Expired entries are pruned.
  std::vector<std::weak_ptr<void>> Code;
  std::vector<std::weak_ptr<vtal::Module>> Instances;
};

template <typename T> size_t pruneExpired(std::vector<std::weak_ptr<T>> &V) {
  size_t Kept = 0;
  for (std::weak_ptr<T> &W : V)
    if (!W.expired())
      V[Kept++] = W;
  V.resize(Kept);
  return Kept;
}

class SoakTest : public ::testing::Test {
protected:
  void SetUp() override {
    DocStore Docs;
    Docs.put("/doc.html", "<html>doc</html>");
    Docs.put("/pic.svg", "<svg/>");
    ASSERT_FALSE(App.init(std::move(Docs)));
    TypeContext &Ty = RT.types();
    ASSERT_FALSE(RT.defineNamedType({"soak_counter", 1}, Ty.intType()));
    ASSERT_TRUE(RT.defineState("soak.counter", Ty.namedType("soak_counter", 1),
                               std::make_shared<int64_t>(1)));
    Arts[0].Slot = "flashed.parse_target";
    Arts[0].Text = vtalParseFixPatchText();
    Arts[1].Slot = "flashed.mime_type";
    Expected<std::string> SvgText =
        readFile(std::string(DSU_SOURCE_DIR) + "/examples/mime_svg.dsup");
    ASSERT_TRUE(SvgText) << SvgText.takeError().str();
    Arts[1].Text = std::move(*SvgText);
  }

  /// Commits artifact \p A rolling, keeping weak references to its code.
  void commitArtifact(Artifact &A) {
    Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(), A.Text);
    ASSERT_TRUE(P) << P.takeError().str();
    ASSERT_EQ(P->Unit.Provides.size(), 1u);
    A.PatchId = P->Id;
    A.Code.push_back(P->Unit.Provides[0].Code.KeepAlive);
    A.Instances.push_back(P->VtalMod);
    LastTx = RT.requestUpdate(std::move(*P)).id();
    ASSERT_EQ(RT.updatePoint(Runtime::PendingCommit::Rolling), 1u);
  }

  void commitIdentityBump() {
    Patch P = cantFail(makeIdentityBumpPatch(
        RT.types(), VersionedName{"soak_counter", BumpFrom},
        RT.types().intType()));
    ++BumpFrom;
    LastTx = RT.requestUpdate(std::move(P)).id();
    ASSERT_EQ(RT.updatePoint(), 1u);
  }

  /// The update log after \p Commits commits, the last of them LastTx:
  /// within its cap, with LastTx newest.  Counted through
  /// forEachUpdate(): copying the log after every update would dominate
  /// the run.
  void expectLogBounded(unsigned Commits) {
    size_t Size = 0;
    uint64_t Newest = 0;
    RT.forEachUpdate([&](const UpdateRecord &R) {
      ++Size;
      Newest = R.TxId;
    });
    ASSERT_LE(Size, Runtime::kLogCap) << "after commit " << Commits;
    ASSERT_EQ(Newest, LastTx) << "after commit " << Commits;
    ASSERT_EQ(RT.updatesApplied(), Commits);
  }

  /// The bounds every update must leave behind.
  void expectBounded(unsigned Step) {
    for (Artifact &A : Arts) {
      const UpdateableSlot *Slot = RT.updateables().lookup(A.Slot);
      ASSERT_NE(Slot, nullptr);
      size_t Allowed = UpdateableSlot::kWindow + Slot->rollDepth();
      ASSERT_LE(RT.updateables().residentBindings(*Slot), Allowed)
          << A.Slot << " after update " << Step;
      ASSERT_LE(pruneExpired(A.Code), Allowed)
          << A.Slot << " after update " << Step;
      ASSERT_LE(pruneExpired(A.Instances), Allowed)
          << A.Slot << " after update " << Step;
      if (!A.PatchId.empty()) {
        ASSERT_LE(trace::ProfileRegistry::instance().liveProfiles(A.PatchId),
                  2u)
            << A.PatchId << " after update " << Step;
      }
    }
    trace::ProfileRegistry::Totals T =
        trace::ProfileRegistry::instance().totals();
    ASSERT_GE(T.Calls, Last.Calls) << "after update " << Step;
    ASSERT_GE(T.Fuel, Last.Fuel) << "after update " << Step;
    ASSERT_GE(T.Traps, Last.Traps) << "after update " << Step;
    Last = T;
  }

  Runtime RT;
  FlashedApp App{RT};
  Artifact Arts[2];
  uint32_t BumpFrom = 1;
  uint64_t LastTx = 0; ///< the transaction committed last
  trace::ProfileRegistry::Totals Last;
};

TEST_F(SoakTest, TenThousandUpdatesKeepTwoBindingsPerSlot) {
  for (unsigned K = 0; K != kUpdates; ++K) {
    if (K % 2 == 0)
      ASSERT_NO_FATAL_FAILURE(commitArtifact(Arts[(K / 2) % 2]));
    else
      ASSERT_NO_FATAL_FAILURE(commitIdentityBump());
    if (K % 64 == 2) {
      // Serve through both VTAL stages, so the profiles count calls
      // that must survive their instances in the totals.
      EXPECT_NE(App.handle(WithQuery).find("200 OK"), std::string::npos);
      EXPECT_NE(App.handle(Svg).find("image/svg+xml"), std::string::npos);
    }
    ASSERT_NO_FATAL_FAILURE(expectBounded(K));
    ASSERT_NO_FATAL_FAILURE(expectLogBounded(K + 1));
  }
  EXPECT_EQ(RT.updatesApplied(), kUpdates);
  // The full log holds the newest kLogCap transactions, oldest first.
  std::vector<UpdateRecord> Log = RT.updateLog();
  ASSERT_EQ(Log.size(), Runtime::kLogCap);
  EXPECT_EQ(Log.front().TxId, LastTx - Runtime::kLogCap + 1);
  EXPECT_EQ(Log.back().TxId, LastTx);
  EXPECT_GT(Last.Calls, 0u);
  const UpdateableSlot *Parse = RT.updateables().lookup(Arts[0].Slot);
  EXPECT_EQ(Parse->historySize(), 1 + kUpdates / 4);

  // Rollback depth 1 still holds after the churn: a bad parse stage,
  // then its rollback, restores the verified parser.
  Patch Bad = cantFail(PatchBuilder(RT.types(), "soak-no-target")
                           .provide(Arts[0].Slot, &noTarget)
                           .build());
  ASSERT_FALSE(RT.applyNow(std::move(Bad)));
  ++LastTx;
  ASSERT_NO_FATAL_FAILURE(expectLogBounded(kUpdates + 1));
  EXPECT_EQ(App.handle(WithQuery).find("200 OK"), std::string::npos);
  ASSERT_FALSE(RT.rollbackUpdateable(Arts[0].Slot));
  EXPECT_NE(App.handle(WithQuery).find("200 OK"), std::string::npos);
  ASSERT_NO_FATAL_FAILURE(expectBounded(kUpdates));
}

} // namespace
