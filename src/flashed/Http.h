//===- flashed/Http.h - HTTP/1.0 and 1.1 message handling -----*- C++ -*-===//
///
/// \file
/// Request parsing and response serialization for FlashEd, the updateable
/// web server used as the macro-benchmark — the role the Flash web server
/// plays in the PLDI 2001 evaluation.  The subset implemented matches
/// what the experiments exercise: GET/HEAD with Content-Length framing,
/// over either one-shot HTTP/1.0 exchanges or persistent (keep-alive,
/// possibly pipelined) HTTP/1.1 connections.
///
/// One request entry point, scanRequestHead(): a zero-allocation scan
/// that yields method/target/version, Content-Length and the
/// version-sensitive keep-alive decision as views into the caller's
/// buffer.  It is the only request grammar: the reactor frames with it,
/// and the updateable parse stage reads method and target from it.  It
/// is also the only place that decides whether a connection persists.
/// A head it calls Malformed (unusable start line, a header line without
/// a colon, more than MaxHeaderLines header lines, or a Content-Length
/// that is not a plain decimal within bounds) has unreliable framing: it
/// is still framed so the server can answer 400 and close.
///
/// One response serializer, appendHttpResponseHead(), writes HTTP/1.1
/// framing with an explicit Connection header into a reusable buffer,
/// for one-shot and keep-alive exchanges and the /admin control plane
/// alike.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_FLASHED_HTTP_H
#define DSU_FLASHED_HTTP_H

#include <string>
#include <string_view>

namespace dsu {
namespace flashed {

/// Framing and connection facts about one request head, produced by a
/// single zero-allocation scan.  All views alias the scanned buffer.
struct RequestHead {
  std::string_view Method;
  std::string_view Target;
  std::string_view Version; ///< "HTTP/1.1", "HTTP/1.0", or "HTTP/0.9"
  size_t HeadBytes = 0;     ///< bytes up to and including the blank line
  size_t ContentLength = 0; ///< declared body size (0 when absent)
  bool Complete = false;    ///< terminating blank line was found
  bool Malformed = false;   ///< head rejected (serve a 400, close)
  bool KeepAlive = false;   ///< connection survives this exchange

  /// Total bytes this request occupies in the input stream.
  size_t totalBytes() const { return HeadBytes + ContentLength; }
};

/// Header lines past this many make a head Malformed.
constexpr unsigned MaxHeaderLines = 48;

/// Scans one request head out of \p Buffer without allocating.  When the
/// head is incomplete, Complete stays false and only partial fields are
/// meaningful.  Keep-alive follows the version-sensitive defaults:
/// HTTP/1.1 persists unless "Connection: close", HTTP/1.0 closes unless
/// "Connection: keep-alive", HTTP/0.9 always closes.
RequestHead scanRequestHead(std::string_view Buffer);

/// Standard reason phrase for a status code ("OK", "Not Found", ...).
const char *statusText(int Code);

/// Appends a response head for a body of \p ContentLength bytes to
/// \p Out (which is typically a connection's reusable output buffer).
/// Emits HTTP/1.1 framing with an explicit Connection header.
/// \p ExtraHeaders is zero or more complete header lines, each ending in
/// CRLF (e.g. "Retry-After: 0\r\n"), written before Connection.
void appendHttpResponseHead(std::string &Out, int Code,
                            std::string_view ContentType,
                            size_t ContentLength, bool KeepAlive,
                            std::string_view ExtraHeaders = {});

/// Appends a complete response (head + body) to \p Out.
void appendHttpResponse(std::string &Out, int Code,
                        std::string_view ContentType, std::string_view Body,
                        bool KeepAlive, std::string_view ExtraHeaders = {});

/// ASCII case-insensitive equality (header names, connection tokens).
bool asciiCaseEqual(std::string_view A, std::string_view B);

/// Pops the next '\n'-terminated line off \p Rest, stripping a trailing
/// '\r' (the shared header-block line iterator).
std::string_view popHeaderLine(std::string_view &Rest);

/// Parses a Content-Length value.  Rejects non-digits, trailing junk,
/// and magnitudes that could overflow framing arithmetic.
bool parseContentLength(std::string_view Value, size_t &Out);

/// Maps a file extension ("html", "png", ...) to a MIME type;
/// "application/octet-stream" when unknown.
const char *mimeForExtension(std::string_view Ext);

} // namespace flashed
} // namespace dsu

#endif // DSU_FLASHED_HTTP_H
