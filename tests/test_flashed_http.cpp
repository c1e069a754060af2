//===- tests/test_flashed_http.cpp - HTTP substrate tests -----*- C++ -*-===//

#include "flashed/DocStore.h"
#include "flashed/Http.h"

#include <gtest/gtest.h>

using namespace dsu;
using namespace dsu::flashed;

namespace {

TEST(HttpParseTest, BasicGet) {
  Expected<HttpRequest> R = parseHttpRequest(
      "GET /index.html HTTP/1.0\r\nHost: example.com\r\n"
      "User-Agent: test\r\n\r\n");
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->Method, "GET");
  EXPECT_EQ(R->Target, "/index.html");
  EXPECT_EQ(R->Version, "HTTP/1.0");
  EXPECT_EQ(R->header("host"), "example.com");
  EXPECT_EQ(R->header("user-agent"), "test");
  EXPECT_EQ(R->NumHeaders, 2u);
}

TEST(HttpParseTest, HeaderLookupCaseInsensitive) {
  Expected<HttpRequest> R = parseHttpRequest(
      "GET / HTTP/1.0\r\nX-CuStOm-KEY:  spaced value \r\n\r\n");
  ASSERT_TRUE(R);
  EXPECT_EQ(R->header("x-custom-key"), "spaced value");
  EXPECT_EQ(R->header("X-Custom-Key"), "spaced value");
  EXPECT_EQ(R->header("absent"), "");
}

TEST(HttpParseTest, BareLfAccepted) {
  Expected<HttpRequest> R = parseHttpRequest("GET /x HTTP/1.0\n\n");
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Target, "/x");
}

TEST(HttpParseTest, Http09StyleLine) {
  Expected<HttpRequest> R = parseHttpRequest("GET /legacy\r\n\r\n");
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Version, "HTTP/0.9");
  EXPECT_EQ(R->Target, "/legacy");
  EXPECT_FALSE(scanRequestHead("GET /legacy\r\n\r\n").KeepAlive);
}

TEST(HttpParseTest, Rejects) {
  EXPECT_FALSE(parseHttpRequest("GET /incomplete HTTP/1.0\r\n"));
  EXPECT_FALSE(parseHttpRequest("NOSPACES\r\n\r\n"));
  EXPECT_FALSE(parseHttpRequest(
      "GET / HTTP/1.0\r\nBadHeaderNoColon\r\n\r\n"));
  EXPECT_FALSE(parseHttpRequest(""));
}

TEST(HttpParseTest, KeepAliveDefaults) {
  // HTTP/1.1 persists by default...
  RequestHead H = scanRequestHead("GET / HTTP/1.1\r\nHost: h\r\n\r\n");
  ASSERT_TRUE(H.Complete);
  EXPECT_TRUE(H.KeepAlive);
  // ...unless the client opts out.
  H = scanRequestHead("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(H.Complete);
  EXPECT_FALSE(H.KeepAlive);
  // HTTP/1.0 closes by default...
  H = scanRequestHead("GET / HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(H.Complete);
  EXPECT_FALSE(H.KeepAlive);
  // ...unless the client opts in.
  H = scanRequestHead("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  ASSERT_TRUE(H.Complete);
  EXPECT_TRUE(H.KeepAlive);
}

TEST(HttpParseTest, RequestComplete) {
  EXPECT_TRUE(scanRequestHead("GET / HTTP/1.0\r\n\r\n").Complete);
  EXPECT_TRUE(scanRequestHead("GET / HTTP/1.0\n\n").Complete);
  EXPECT_FALSE(scanRequestHead("GET / HTTP/1.0\r\n").Complete);
  EXPECT_FALSE(scanRequestHead("").Complete);
  // A bare blank line is a complete (if malformed) head: the server
  // frames it and answers 400.
  RequestHead H = scanRequestHead("\n\n");
  EXPECT_TRUE(H.Complete);
  EXPECT_TRUE(H.Malformed);
  EXPECT_EQ(H.HeadBytes, 2u);
}

TEST(HttpScanTest, FramesCompleteRequest) {
  std::string Raw = "GET /a.html HTTP/1.1\r\nHost: h\r\n\r\n";
  RequestHead H = scanRequestHead(Raw);
  EXPECT_TRUE(H.Complete);
  EXPECT_FALSE(H.Malformed);
  EXPECT_EQ(H.Method, "GET");
  EXPECT_EQ(H.Target, "/a.html");
  EXPECT_EQ(H.Version, "HTTP/1.1");
  EXPECT_EQ(H.HeadBytes, Raw.size());
  EXPECT_EQ(H.ContentLength, 0u);
  EXPECT_TRUE(H.KeepAlive);
}

TEST(HttpScanTest, IncompleteHead) {
  RequestHead H = scanRequestHead("GET / HTTP/1.1\r\nHost: h\r\n");
  EXPECT_FALSE(H.Complete);
}

TEST(HttpScanTest, FramesPipelinedFirstRequestOnly) {
  std::string Two = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
  RequestHead H = scanRequestHead(Two);
  ASSERT_TRUE(H.Complete);
  EXPECT_EQ(H.Target, "/a");
  EXPECT_EQ(H.totalBytes(), Two.size() / 2);
  // Scanning the remainder frames the second request.
  RequestHead H2 = scanRequestHead(
      std::string_view(Two).substr(H.totalBytes()));
  ASSERT_TRUE(H2.Complete);
  EXPECT_EQ(H2.Target, "/b");
}

TEST(HttpScanTest, ContentLengthFraming) {
  std::string Raw =
      "POST /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  RequestHead H = scanRequestHead(Raw);
  ASSERT_TRUE(H.Complete);
  EXPECT_EQ(H.ContentLength, 5u);
  EXPECT_EQ(H.totalBytes(), Raw.size());
}

TEST(HttpScanTest, BadContentLengthIsMalformed) {
  RequestHead H = scanRequestHead(
      "GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
  EXPECT_TRUE(H.Complete);
  EXPECT_TRUE(H.Malformed);
  // A magnitude that would wrap the HeadBytes + ContentLength framing
  // sum must be rejected, not fed into totalBytes().
  H = scanRequestHead(
      "GET / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n");
  EXPECT_TRUE(H.Complete);
  EXPECT_TRUE(H.Malformed);
}

TEST(HttpScanTest, MalformedStartLineStillFramed) {
  RequestHead H = scanRequestHead("GARBAGE\r\n\r\n");
  EXPECT_TRUE(H.Complete);
  EXPECT_TRUE(H.Malformed);
}

TEST(HttpScanTest, ConnectionTokenList) {
  RequestHead H = scanRequestHead(
      "GET / HTTP/1.1\r\nConnection: Upgrade, Close\r\n\r\n");
  ASSERT_TRUE(H.Complete);
  EXPECT_FALSE(H.KeepAlive); // "close" token recognized case-insensitively
}

TEST(HttpResponseTest, SerializesWithFraming) {
  // The one-shot (no keep-alive) shape of the single serializer.
  std::string R;
  appendHttpResponse(R, 200, "text/html", "<p>hi</p>", /*KeepAlive=*/false);
  EXPECT_EQ(R.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(R.find("Content-Type: text/html\r\n"), std::string::npos);
  EXPECT_NE(R.find("Content-Length: 9\r\n"), std::string::npos);
  EXPECT_NE(R.find("Connection: close\r\n\r\n"), std::string::npos);
  EXPECT_TRUE(R.size() > 9 && R.substr(R.size() - 9) == "<p>hi</p>");
}

TEST(HttpResponseTest, AppendKeepAliveResponse) {
  std::string Out;
  appendHttpResponse(Out, 200, "text/plain", "abc", /*KeepAlive=*/true);
  EXPECT_NE(Out.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(Out.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(Out.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_TRUE(Out.substr(Out.size() - 3) == "abc");
  // Appending composes (pipelined responses share the buffer).
  size_t First = Out.size();
  appendHttpResponse(Out, 404, "text/html", "x", /*KeepAlive=*/false);
  EXPECT_NE(Out.find("HTTP/1.1 404 Not Found\r\n", First),
            std::string::npos);
  EXPECT_NE(Out.find("Connection: close\r\n", First), std::string::npos);
}

TEST(HttpResponseTest, StatusTexts) {
  EXPECT_STREQ(statusText(200), "OK");
  EXPECT_STREQ(statusText(304), "Not Modified");
  EXPECT_STREQ(statusText(404), "Not Found");
  EXPECT_STREQ(statusText(403), "Forbidden");
  EXPECT_STREQ(statusText(431), "Request Header Fields Too Large");
  EXPECT_STREQ(statusText(500), "Internal Server Error");
  EXPECT_STREQ(statusText(505), "HTTP Version Not Supported");
  EXPECT_STREQ(statusText(999), "Unknown");
}

TEST(MimeTest, KnownAndUnknown) {
  EXPECT_STREQ(mimeForExtension("html"), "text/html");
  EXPECT_STREQ(mimeForExtension("css"), "text/css");
  EXPECT_STREQ(mimeForExtension("js"), "application/javascript");
  EXPECT_STREQ(mimeForExtension("png"), "image/png");
  EXPECT_STREQ(mimeForExtension("svg"), "image/svg+xml");
  EXPECT_STREQ(mimeForExtension("wasm"), "application/wasm");
  EXPECT_STREQ(mimeForExtension("weird"), "application/octet-stream");
  EXPECT_STREQ(mimeForExtension(""), "application/octet-stream");
}

TEST(DocStoreTest, PutGet) {
  DocStore D;
  D.put("/a.html", "alpha");
  D.put("/b.txt", "beta");
  EXPECT_EQ(D.size(), 2u);
  ASSERT_NE(D.get("/a.html"), nullptr);
  EXPECT_EQ(*D.get("/a.html"), "alpha");
  EXPECT_EQ(D.get("/missing"), nullptr);
  D.put("/a.html", "alpha2");
  EXPECT_EQ(*D.get("/a.html"), "alpha2");
  EXPECT_EQ(D.size(), 2u);
}

TEST(DocStoreTest, SharedBodiesAlias) {
  DocStore D;
  D.put("/a.html", "alpha");
  std::shared_ptr<const std::string> S1 = D.getShared("/a.html");
  std::shared_ptr<const std::string> S2 = D.getShared("/a.html");
  ASSERT_TRUE(S1);
  EXPECT_EQ(S1.get(), S2.get()); // same bytes, no copies
  EXPECT_EQ(S1.get(), D.get("/a.html"));
  EXPECT_EQ(D.getShared("/missing"), nullptr);
}

TEST(DocStoreTest, UnsafePaths) {
  EXPECT_TRUE(DocStore::isUnsafePath("/../etc/passwd"));
  EXPECT_TRUE(DocStore::isUnsafePath("/a/../../b"));
  EXPECT_FALSE(DocStore::isUnsafePath("/normal/path.html"));
}

TEST(DocStoreTest, SyntheticFill) {
  DocStore D;
  D.fillSynthetic(8, 256);
  EXPECT_EQ(D.size(), 8u);
  for (const std::string &P : D.paths())
    EXPECT_EQ(D.get(P)->size(), 256u);
  // Deterministic contents.
  EXPECT_EQ(syntheticBody(64, 3), syntheticBody(64, 3));
  EXPECT_NE(syntheticBody(64, 3), syntheticBody(64, 4));
  EXPECT_EQ(syntheticBody(0).size(), 0u);
  EXPECT_EQ(syntheticBody(1000000).size(), 1000000u);
}

} // namespace
