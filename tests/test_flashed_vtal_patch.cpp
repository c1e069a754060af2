//===- tests/test_flashed_vtal_patch.cpp - Verified patch on FlashEd -*- C++ -//
///
/// The full paper pipeline on the macro application: FlashEd's
/// parse_target stage is replaced by *verified* VTAL code (using the
/// string instructions), the module is machine-checked at the update
/// point, and the server's observable behaviour changes accordingly.

#include "flashed/App.h"
#include "flashed/Patches.h"
#include "patch/PatchLoader.h"

#include <gtest/gtest.h>

using namespace dsu;
using namespace dsu::flashed;

namespace {

// The canonical artifact lives beside the in-process patch series
// (flashed/Patches.cpp) so the admin control plane, the tools, and
// these tests all exercise the same bytes.

TEST(FlashedVtalPatchTest, VerifiedParserDrivesTheServer) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/doc.html", "<html>doc</html>");
  Docs.put("/index.html", "<html>home</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));

  std::string WithQuery = "GET /doc.html?v=2 HTTP/1.0\r\n\r\n";
  EXPECT_NE(App.handle(WithQuery).find("404"), std::string::npos);

  Expected<Patch> P =
      loadVtalPatch(RT.types(), RT.exports(), vtalParseFixPatchText());
  ASSERT_TRUE(P) << P.takeError().str();
  ASSERT_TRUE(P->VtalMod);
  Error E = RT.applyNow(std::move(*P));
  ASSERT_FALSE(E) << E.str();

  // Verified bytecode now parses every request.
  EXPECT_NE(App.handle(WithQuery).find("200 OK"), std::string::npos);
  EXPECT_NE(App.handle("GET / HTTP/1.0\r\n\r\n").find("<html>home</html>"),
            std::string::npos);
  EXPECT_NE(App.handle("POST / HTTP/1.0\r\n\r\n").find("405"),
            std::string::npos);
  EXPECT_NE(App.handle("GARBAGE\r\n\r\n").find("400"), std::string::npos);
  EXPECT_NE(App.handle("HEAD /doc.html HTTP/1.0\r\n\r\n").find("200 OK"),
            std::string::npos);

  const UpdateRecord Rec = RT.updateLog().at(0);
  EXPECT_TRUE(Rec.Succeeded);
  EXPECT_GT(Rec.InstructionsVerified, 50u);
}

// A parse_target that traps on every request (division by zero).  A
// trapped string stage yields "", which names no request target.
const char *kTrappingParseTarget = R"dsu(
(patch
  (id "trapping-parse-target")
  (description "parse_target that divides by zero")
  (provides
    (fn (name "flashed.parse_target")
        (type "fn(string) -> string")
        (vtal-fn "parse_target")))
  (vtal-module
"module trap_mod
func parse_target (raw: string) -> string {
  locals (zero: int)
  push.i 1
  load zero
  div
  store zero
  load raw
  ret
}"))
)dsu";

TEST(FlashedVtalPatchTest, TrappingParseTargetAnswers500) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/doc.html", "<html>doc</html>");
  Docs.put("/index.html", "<html>home</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));
  // After P2, map_url("") is the default document: an empty target
  // must not get that far.
  cantFail(RT.applyNow(cantFail(makePatchP2(App), "P2")), "apply P2");
  Expected<Patch> P =
      loadVtalPatch(RT.types(), RT.exports(), kTrappingParseTarget);
  ASSERT_TRUE(P) << P.takeError().str();
  Error E = RT.applyNow(std::move(*P));
  ASSERT_FALSE(E) << E.str();

  std::string R = App.handle("GET /doc.html HTTP/1.0\r\n\r\n");
  EXPECT_EQ(R.rfind("HTTP/1.1 500 ", 0), 0u) << R;
  EXPECT_EQ(R.find("<html>home</html>"), std::string::npos) << R;
  EXPECT_GE(App.ParseTarget.slot()->current()->trapCount(), 1u);
}

TEST(FlashedVtalPatchTest, AgreesWithNativeParserOnASweep) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/doc.html", "x");
  ASSERT_FALSE(App.init(std::move(Docs)));

  // Collect the native v1 answers (modulo the query bug) first.
  std::vector<std::string> Requests = {
      "GET /doc.html HTTP/1.0\r\n\r\n",
      "GET / HTTP/1.0\r\n\r\n",
      "HEAD /a/b/c.txt HTTP/1.0\r\n\r\n",
      "GET /x HTTP/1.0\r\nHeader: v\r\n\r\n",
      "PUT /x HTTP/1.0\r\n\r\n",
      "NOT-HTTP\r\n\r\n",
  };
  std::vector<std::string> Before;
  for (const std::string &R : Requests)
    Before.push_back(App.ParseTarget(R));

  Patch P = cantFail(loadVtalPatch(RT.types(), RT.exports(),
                                   vtalParseFixPatchText()),
                     "load");
  cantFail(RT.applyNow(std::move(P)), "apply");

  for (size_t I = 0; I != Requests.size(); ++I)
    EXPECT_EQ(App.ParseTarget(Requests[I]), Before[I])
        << "request: " << Requests[I];
}

} // namespace
