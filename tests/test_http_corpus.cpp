//===- tests/test_http_corpus.cpp - Malformed-request corpus --*- C++ -*-===//
///
/// \file
/// Drives the one request grammar, scanRequestHead(), and the served
/// path behind it with mutated requests: every prefix of each request in
/// a small table, every single-byte deletion, and every replacement of
/// one byte by NUL, CR, LF, ':' or a space.  For each input the scan must
/// stay inside the buffer, and a complete head must be answered with one
/// of the statuses a client can cause (200, 400, 403, 404, 405) — never a
/// 500.  A 400 comes exactly from a head the scan rejects, and such a
/// head is answered with Connection: close.  Runs under ASan/UBSan in the
/// sanitizer lane.
///
//===----------------------------------------------------------------------===//

#include "flashed/App.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace dsu;
using namespace dsu::flashed;

namespace {

std::vector<std::string> seedRequests() {
  std::string TooMany = "GET /doc.html HTTP/1.1\r\n";
  for (unsigned I = 0; I != MaxHeaderLines + 1; ++I)
    TooMany += "X" + std::to_string(I) + ": v\r\n";
  TooMany += "\r\n";
  return {
      "GET /doc.html HTTP/1.1\r\nHost: h\r\n\r\n",
      "HEAD /doc.html HTTP/1.1\r\nHost: h\r\n\r\n",
      "POST /doc.html HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello",
      "GET /doc.html HTTP/1.0\r\n\r\n",
      "HEAD /index.html HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
      "POST / HTTP/1.0\r\nContent-Length: 3\r\n\r\nabc",
      "GET /doc.html\r\n\r\n",
      "HEAD /doc.html\r\n\r\n",
      "POST /doc.html\r\n\r\n",
      "GET /doc.html HTTP/1.1\nHost: h\nConnection: close\n\n",
      "GET /doc.html HTTP/1.1\r\nHost: h\r\n\r\n"
      "GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n",
      "GET /ghost.html HTTP/1.1\r\nHost: h\r\n\r\n",
      "HEAD /../etc/passwd HTTP/1.1\r\nHost: h\r\n\r\n",
      "GET /doc.html HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
      "GET /doc.html HTTP/1.1\r\nContent-Length: 99999999999999999999999"
      "\r\n\r\n",
      "GET /doc.html HTTP/1.1\r\nHost: h\r\nBadHeaderNoColon\r\n\r\n",
      "GARBAGE\r\n\r\n",
      TooMany,
  };
}

/// Every prefix, single-byte deletion and single-byte replacement of
/// \p Seed, plus \p Seed itself.
std::vector<std::string> mutations(const std::string &Seed) {
  std::vector<std::string> Out;
  for (size_t N = 0; N <= Seed.size(); ++N)
    Out.push_back(Seed.substr(0, N));
  for (size_t I = 0; I != Seed.size(); ++I) {
    Out.push_back(Seed.substr(0, I) + Seed.substr(I + 1));
    for (char C : {'\0', '\r', '\n', ':', ' '}) {
      std::string M = Seed;
      M[I] = C;
      Out.push_back(std::move(M));
    }
  }
  return Out;
}

TEST(HttpCorpusTest, MutatedRequestsGetOnlyClientStatuses) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/index.html", "<html>home</html>");
  Docs.put("/doc.html", "<html>doc</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));

  size_t Served = 0;
  for (const std::string &Seed : seedRequests()) {
    for (const std::string &In : mutations(Seed)) {
      RequestHead H = scanRequestHead(In);
      if (!H.Complete)
        continue;
      ASSERT_LE(H.HeadBytes, In.size()) << testing::PrintToString(In);
      std::string R = App.handle(In);
      ++Served;
      ASSERT_EQ(R.compare(0, 9, "HTTP/1.1 "), 0) << testing::PrintToString(In);
      int Status = std::atoi(R.c_str() + 9);
      EXPECT_TRUE(Status == 200 || Status == 400 || Status == 403 ||
                  Status == 404 || Status == 405)
          << Status << " for " << testing::PrintToString(In);
      EXPECT_EQ(Status == 400, H.Malformed)
          << Status << " for " << testing::PrintToString(In);
      bool KeptAlive =
          R.find("Connection: keep-alive\r\n") < R.find("\r\n\r\n");
      EXPECT_EQ(KeptAlive, H.KeepAlive && !H.Malformed)
          << testing::PrintToString(In);
    }
  }
  EXPECT_GT(Served, 1000u);
}

} // namespace
