//===- tests/test_support.cpp - Support substrate tests -------*- C++ -*-===//

#include "support/Error.h"
#include "support/Hashing.h"
#include "support/Json.h"
#include "support/Logging.h"
#include "support/MemoryBuffer.h"
#include "support/SExpr.h"
#include "support/StringUtil.h"
#include "support/Timer.h"

#include "StderrCapture.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

using namespace dsu;

// --- Error / Expected ----------------------------------------------------

TEST(ErrorTest, SuccessIsFalsy) {
  Error E = Error::success();
  EXPECT_FALSE(E);
  EXPECT_EQ(E.str(), "success");
}

TEST(ErrorTest, FailureCarriesCodeAndMessage) {
  Error E = Error::make(ErrorCode::EC_Verify, "pc %d is bad", 7);
  EXPECT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::EC_Verify);
  EXPECT_EQ(E.message(), "pc 7 is bad");
  EXPECT_EQ(E.str(), "verify: pc 7 is bad");
}

TEST(ErrorTest, WithContextPrefixes) {
  Error E = Error::make(ErrorCode::EC_Link, "no symbol");
  Error E2 = E.withContext("patch P1");
  EXPECT_EQ(E2.str(), "link: patch P1: no symbol");
  EXPECT_EQ(E2.code(), ErrorCode::EC_Link);
}

TEST(ErrorTest, WithContextOnSuccessIsNoop) {
  EXPECT_FALSE(Error::success().withContext("ctx"));
}

TEST(ErrorTest, AllCodesHaveNames) {
  for (int C = 0; C <= static_cast<int>(ErrorCode::EC_Unsupported); ++C)
    EXPECT_STRNE(errorCodeName(static_cast<ErrorCode>(C)), "unknown");
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> V(42);
  ASSERT_TRUE(V);
  EXPECT_EQ(*V, 42);
  EXPECT_FALSE(V.takeError());
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> V(Error::make(ErrorCode::EC_IO, "gone"));
  ASSERT_FALSE(V);
  EXPECT_EQ(V.error().code(), ErrorCode::EC_IO);
  Error E = V.takeError();
  EXPECT_TRUE(E);
}

TEST(ExpectedTest, MoveOnlyValues) {
  Expected<std::unique_ptr<int>> V(std::make_unique<int>(5));
  ASSERT_TRUE(V);
  std::unique_ptr<int> P = std::move(*V);
  EXPECT_EQ(*P, 5);
}

TEST(ExpectedTest, CopyAndAssign) {
  Expected<std::string> A(std::string("hello"));
  Expected<std::string> B = A;
  EXPECT_EQ(*B, "hello");
  B = Expected<std::string>(Error::make(ErrorCode::EC_Parse, "x"));
  EXPECT_FALSE(B);
}

TEST(ExpectedTest, CantFailUnwraps) {
  EXPECT_EQ(cantFail(Expected<int>(9)), 9);
}

// --- StringUtil ------------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  auto Parts = splitString("a,,b", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "");
  EXPECT_EQ(Parts[2], "b");
}

TEST(StringUtilTest, SplitSingle) {
  auto Parts = splitString("abc", ',');
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0], "abc");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtilTest, PrefixSuffix) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(endsWith("patch.so", ".so"));
  EXPECT_FALSE(endsWith("so", ".so"));
}

TEST(StringUtilTest, FormatString) {
  EXPECT_EQ(formatString("%s=%d", "x", 7), "x=7");
  // Long output exercises the two-pass vsnprintf sizing.
  std::string Long(500, 'a');
  EXPECT_EQ(formatString("%s", Long.c_str()).size(), 500u);
}

TEST(StringUtilTest, ParseUIntAcceptsDigits) {
  uint64_t V = 0;
  EXPECT_TRUE(parseUInt("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUInt("123456789", V));
  EXPECT_EQ(V, 123456789u);
}

TEST(StringUtilTest, ParseUIntRejectsJunk) {
  uint64_t V = 0;
  EXPECT_FALSE(parseUInt("", V));
  EXPECT_FALSE(parseUInt("-3", V));
  EXPECT_FALSE(parseUInt("12x", V));
  EXPECT_FALSE(parseUInt("99999999999999999999999", V));
}

TEST(StringUtilTest, EscapeRoundTrip) {
  std::string Raw = "a\"b\\c\nd\te";
  std::string Escaped = escapeString(Raw);
  EXPECT_EQ(Escaped.find('\n'), std::string::npos);
  std::string Back;
  ASSERT_TRUE(unescapeString(Escaped, Back));
  EXPECT_EQ(Back, Raw);
}

TEST(StringUtilTest, JsonEscapeCoversQuotesBackslashAndControls) {
  std::string Out = "pre:";
  jsonEscapeTo(Out, "a\"b\\c\nd\re\tf");
  EXPECT_EQ(Out, "pre:a\\\"b\\\\c\\nd\\re\\tf");
  // Every other byte below 0x20, NUL included, takes the \u00XX form.
  for (int C = 0; C != 0x20; ++C) {
    if (C == '\n' || C == '\r' || C == '\t')
      continue;
    Out.clear();
    jsonEscapeTo(Out, std::string(1, static_cast<char>(C)));
    EXPECT_EQ(Out, formatString("\\u%04x", C));
  }
  // 0x20 and up, including UTF-8 bytes >= 0x80, pass through untouched.
  Out.clear();
  jsonEscapeTo(Out, " ~\x7f\xc3\xa9");
  EXPECT_EQ(Out, " ~\x7f\xc3\xa9");
}

TEST(StringUtilTest, UnescapeRejectsBadEscape) {
  std::string Out;
  EXPECT_FALSE(unescapeString("a\\q", Out));
  EXPECT_FALSE(unescapeString("a\\", Out));
}

// --- Hashing -----------------------------------------------------------

TEST(HashingTest, Deterministic) {
  EXPECT_EQ(fingerprintString("hello"), fingerprintString("hello"));
  EXPECT_NE(fingerprintString("hello"), fingerprintString("world"));
}

TEST(HashingTest, LengthMixedIn) {
  Fingerprint A, B;
  A.addString("ab");
  A.addString("c");
  B.addString("a");
  B.addString("bc");
  EXPECT_NE(A.value(), B.value());
}

TEST(HashingTest, HexIs16Chars) {
  EXPECT_EQ(Fingerprint().hex().size(), 16u);
}

// --- Timer / RunningStat ----------------------------------------------

TEST(TimerTest, MonotoneElapsed) {
  Timer T;
  uint64_t A = T.elapsedNs();
  uint64_t B = T.elapsedNs();
  EXPECT_GE(B, A);
}

TEST(RunningStatTest, Moments) {
  RunningStat S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.addSample(X);
  EXPECT_EQ(S.count(), 8u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
  EXPECT_NEAR(S.stddev(), 2.138, 0.01);
}

TEST(RunningStatTest, Percentile) {
  RunningStat S;
  for (int I = 1; I <= 100; ++I)
    S.addSample(I);
  EXPECT_NEAR(S.percentile(50), 50.5, 0.01);
  EXPECT_DOUBLE_EQ(S.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(S.percentile(100), 100.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat S;
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.stddev(), 0.0);
  EXPECT_EQ(S.percentile(50), 0.0);
}

// --- MemoryBuffer ---------------------------------------------------------

TEST(MemoryBufferTest, WriteReadRoundTrip) {
  std::string Path = ::testing::TempDir() + "dsu_membuf_test.bin";
  std::string Data = "binary\0data\nwith newline";
  Data.push_back('\0');
  ASSERT_FALSE(writeFile(Path, Data));
  Expected<std::string> Back = readFile(Path);
  ASSERT_TRUE(Back);
  EXPECT_EQ(*Back, Data);
  Expected<uint64_t> Size = fileSize(Path);
  ASSERT_TRUE(Size);
  EXPECT_EQ(*Size, Data.size());
  EXPECT_TRUE(fileExists(Path));
  std::remove(Path.c_str());
}

TEST(MemoryBufferTest, MissingFileErrors) {
  Expected<std::string> R = readFile("/nonexistent/dsu/file");
  ASSERT_FALSE(R);
  EXPECT_EQ(R.error().code(), ErrorCode::EC_IO);
  EXPECT_FALSE(fileExists("/nonexistent/dsu/file"));
}

// --- SExpr -----------------------------------------------------------------

TEST(SExprTest, ParseScalars) {
  Expected<SExpr> S = parseSExpr("(name \"quoted\" 42 -7)");
  ASSERT_TRUE(S);
  ASSERT_TRUE(S->isList());
  ASSERT_EQ(S->size(), 4u);
  EXPECT_EQ((*S)[0].text(), "name");
  EXPECT_EQ((*S)[1].text(), "quoted");
  EXPECT_EQ((*S)[2].intValue(), 42);
  EXPECT_EQ((*S)[3].intValue(), -7);
}

TEST(SExprTest, NestedAndComments) {
  Expected<SExpr> S = parseSExpr(R"((a ; comment
      (b (c 1)) "s;not-comment"))");
  ASSERT_TRUE(S);
  EXPECT_TRUE(S->isForm("a"));
  EXPECT_EQ((*S)[1][1][1].intValue(), 1);
  EXPECT_EQ((*S)[2].text(), "s;not-comment");
}

TEST(SExprTest, FindFormAndProperty) {
  Expected<SExpr> S =
      parseSExpr("(top (id \"x\") (kv 1) (kv 2) (empty))");
  ASSERT_TRUE(S);
  ASSERT_NE(S->findForm("kv"), nullptr);
  EXPECT_EQ(S->findForms("kv").size(), 2u);
  ASSERT_NE(S->property("id"), nullptr);
  EXPECT_EQ(S->property("id")->text(), "x");
  EXPECT_EQ(S->property("empty"), nullptr);
  EXPECT_EQ(S->property("absent"), nullptr);
}

TEST(SExprTest, PrintParsesBack) {
  SExpr Root = SExpr::makeList(
      {SExpr::makeSymbol("patch"),
       SExpr::makeList({SExpr::makeSymbol("id"),
                        SExpr::makeString("has \"quotes\"\nand\tctl")}),
       SExpr::makeInt(-99)});
  for (bool Pretty : {false, true}) {
    Expected<SExpr> Back = parseSExpr(Root.print(Pretty));
    ASSERT_TRUE(Back);
    EXPECT_EQ(Back->print(false), Root.print(false));
  }
}

TEST(SExprTest, Errors) {
  EXPECT_FALSE(parseSExpr("(unterminated"));
  EXPECT_FALSE(parseSExpr(")"));
  EXPECT_FALSE(parseSExpr("(a) trailing"));
  EXPECT_FALSE(parseSExpr("\"unterminated string"));
  EXPECT_FALSE(parseSExpr(""));
}

TEST(SExprTest, ParseMany) {
  Expected<std::vector<SExpr>> Many = parseSExprs("(a) (b 1)\n; c\n(d)");
  ASSERT_TRUE(Many);
  EXPECT_EQ(Many->size(), 3u);
}

TEST(SExprTest, NegativeLooksLikeSymbolWhenNotNumeric) {
  Expected<SExpr> S = parseSExpr("(-abc -12x)");
  ASSERT_TRUE(S);
  EXPECT_TRUE((*S)[0].isSymbol());
  EXPECT_TRUE((*S)[1].isSymbol());
}

TEST(LoggingTest, ConcurrentLinesStayWhole) {
  // Each line is formatted into one buffer and written once, so lines
  // from concurrent threads never interleave.
  constexpr int Threads = 4, PerThread = 500;
  LogLevel Saved = logLevel();
  setLogLevel(LL_Warning);
  std::string Text;
  {
    testing_support::StderrCapture Capture;
    std::vector<std::thread> Ts;
    for (int T = 0; T != Threads; ++T)
      Ts.emplace_back([T] {
        for (int I = 0; I != PerThread; ++I)
          DSU_LOG_WARN("thread %d line %d of a message long enough to "
                       "straddle a partial write",
                       T, I);
      });
    for (std::thread &T : Ts)
      T.join();
    Text = Capture.finish();
  }
  setLogLevel(Saved);
  std::vector<std::string> Lines = testing_support::StderrCapture::lines(Text);
  ASSERT_EQ(Lines.size(), static_cast<size_t>(Threads * PerThread));
  for (const std::string &L : Lines) {
    EXPECT_EQ(L.rfind("[dsu:warn] thread ", 0), 0u) << L;
    EXPECT_EQ(L.find("[dsu:", 1), std::string::npos) << L;
  }
}

TEST(LoggingTest, LongLinesAreWrittenWhole) {
  std::string Long(2000, 'x');
  std::string Text;
  {
    testing_support::StderrCapture Capture;
    DSU_LOG_ERROR("%s|end", Long.c_str());
    Text = Capture.finish();
  }
  EXPECT_EQ(Text, "[dsu:error] " + Long + "|end\n");
}
