//===- flashed/Http.cpp ---------------------------------------*- C++ -*-===//

#include "flashed/Http.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>

using namespace dsu;
using namespace dsu::flashed;

bool dsu::flashed::asciiCaseEqual(std::string_view A, std::string_view B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (std::tolower(static_cast<unsigned char>(A[I])) !=
        std::tolower(static_cast<unsigned char>(B[I])))
      return false;
  return true;
}

std::string_view dsu::flashed::popHeaderLine(std::string_view &Rest) {
  size_t NL = Rest.find('\n');
  std::string_view Line =
      NL == std::string_view::npos ? Rest : Rest.substr(0, NL);
  Rest = NL == std::string_view::npos ? std::string_view()
                                      : Rest.substr(NL + 1);
  if (!Line.empty() && Line.back() == '\r')
    Line.remove_suffix(1);
  return Line;
}

bool dsu::flashed::parseContentLength(std::string_view Value, size_t &Out) {
  uint64_t Len = 0;
  auto [Ptr, Ec] =
      std::from_chars(Value.data(), Value.data() + Value.size(), Len);
  if (Ec != std::errc() || Ptr != Value.data() + Value.size())
    return false;
  // A magnitude anywhere near SIZE_MAX would wrap HeadBytes + Length
  // framing sums; no legitimate message is this large.
  if (Len > (std::numeric_limits<size_t>::max)() / 4)
    return false;
  Out = static_cast<size_t>(Len);
  return true;
}

namespace {

/// True when comma-separated \p List contains \p Token (case-insensitive).
bool containsToken(std::string_view List, std::string_view Token) {
  while (!List.empty()) {
    size_t Comma = List.find(',');
    std::string_view Item = trim(List.substr(0, Comma));
    if (asciiCaseEqual(Item, Token))
      return true;
    if (Comma == std::string_view::npos)
      break;
    List.remove_prefix(Comma + 1);
  }
  return false;
}

/// Locates the head terminator (CRLFCRLF or LFLF, whichever comes first).
/// Returns true and sets \p HeadEnd / \p SepLen on success.
bool findHeadEnd(std::string_view Buffer, size_t &HeadEnd, size_t &SepLen) {
  size_t Crlf = Buffer.find("\r\n\r\n");
  // An LFLF terminator only wins when it starts before the CRLFCRLF
  // one, so bound its scan there — otherwise a request body trickling
  // in after a complete CRLF head would be rescanned end to end.
  std::string_view LfRange = Crlf == std::string_view::npos
                                 ? Buffer
                                 : Buffer.substr(0, Crlf + 1);
  size_t Lf = LfRange.find("\n\n");
  if (Crlf == std::string_view::npos && Lf == std::string_view::npos)
    return false;
  if (Lf < Crlf) {
    HeadEnd = Lf;
    SepLen = 2;
  } else {
    HeadEnd = Crlf;
    SepLen = 4;
  }
  return true;
}

bool keepAliveFor(std::string_view Version, std::string_view Connection) {
  if (Version == "HTTP/1.1")
    return !containsToken(Connection, "close");
  if (Version == "HTTP/1.0")
    return containsToken(Connection, "keep-alive");
  return false; // HTTP/0.9 and anything unrecognized: one-shot
}

/// Splits a start line into method/target/version; false when unusable.
bool splitStartLine(std::string_view StartLine, std::string_view &Method,
                    std::string_view &Target, std::string_view &Version) {
  size_t Sp1 = StartLine.find(' ');
  if (Sp1 == std::string_view::npos)
    return false;
  size_t Sp2 = StartLine.find(' ', Sp1 + 1);
  Method = StartLine.substr(0, Sp1);
  if (Sp2 == std::string_view::npos) {
    Target = StartLine.substr(Sp1 + 1);
    Version = "HTTP/0.9";
  } else {
    Target = StartLine.substr(Sp1 + 1, Sp2 - Sp1 - 1);
    Version = StartLine.substr(Sp2 + 1);
  }
  return !Method.empty() && !Target.empty();
}

} // namespace

RequestHead dsu::flashed::scanRequestHead(std::string_view Buffer) {
  RequestHead Head;
  size_t HeadEnd, SepLen;
  if (!findHeadEnd(Buffer, HeadEnd, SepLen))
    return Head;
  Head.Complete = true;
  Head.HeadBytes = HeadEnd + SepLen;

  std::string_view Rest = Buffer.substr(0, HeadEnd);
  std::string_view StartLine = popHeaderLine(Rest);
  if (!splitStartLine(StartLine, Head.Method, Head.Target, Head.Version)) {
    Head.Malformed = true;
    return Head;
  }

  // One pass over the header lines for the two the server frames with.
  std::string_view Connection;
  while (!Rest.empty()) {
    std::string_view Line = popHeaderLine(Rest);
    size_t Colon = Line.find(':');
    if (Colon == std::string_view::npos)
      continue; // framing scan tolerates junk lines; the parser rejects them
    std::string_view Name = trim(Line.substr(0, Colon));
    std::string_view Value = trim(Line.substr(Colon + 1));
    if (asciiCaseEqual(Name, "content-length")) {
      if (!parseContentLength(Value, Head.ContentLength)) {
        Head.Malformed = true;
        return Head;
      }
    } else if (asciiCaseEqual(Name, "connection")) {
      Connection = Value;
    }
  }
  Head.KeepAlive = keepAliveFor(Head.Version, Connection);
  return Head;
}

std::string_view HttpRequest::header(std::string_view Name) const {
  for (unsigned I = 0; I != NumHeaders; ++I)
    if (asciiCaseEqual(Headers[I].Name, Name))
      return Headers[I].Value;
  return {};
}

Expected<HttpRequest> dsu::flashed::parseHttpRequest(std::string_view Raw) {
  size_t HeadEnd, SepLen;
  if (!findHeadEnd(Raw, HeadEnd, SepLen))
    return Error::make(ErrorCode::EC_Parse, "incomplete request head");

  std::string_view Rest = Raw.substr(0, HeadEnd);
  std::string_view StartLine = popHeaderLine(Rest);

  HttpRequest Req;
  if (!splitStartLine(StartLine, Req.Method, Req.Target, Req.Version))
    return Error::make(ErrorCode::EC_Parse, "malformed request line");

  while (!Rest.empty()) {
    std::string_view Line = popHeaderLine(Rest);
    if (Line.empty())
      continue;
    size_t Colon = Line.find(':');
    if (Colon == std::string_view::npos)
      return Error::make(ErrorCode::EC_Parse, "malformed header line");
    if (Req.NumHeaders == HttpRequest::MaxHeaders)
      return Error::make(ErrorCode::EC_Parse, "too many header lines");
    Req.Headers[Req.NumHeaders++] = {trim(Line.substr(0, Colon)),
                                     trim(Line.substr(Colon + 1))};
  }
  return Req;
}

const char *dsu::flashed::statusText(int Code) {
  switch (Code) {
  case 200:
    return "OK";
  case 201:
    return "Created";
  case 202:
    return "Accepted";
  case 204:
    return "No Content";
  case 301:
    return "Moved Permanently";
  case 302:
    return "Found";
  case 304:
    return "Not Modified";
  case 400:
    return "Bad Request";
  case 403:
    return "Forbidden";
  case 404:
    return "Not Found";
  case 405:
    return "Method Not Allowed";
  case 408:
    return "Request Timeout";
  case 409:
    return "Conflict";
  case 411:
    return "Length Required";
  case 413:
    return "Payload Too Large";
  case 414:
    return "URI Too Long";
  case 431:
    return "Request Header Fields Too Large";
  case 500:
    return "Internal Server Error";
  case 501:
    return "Not Implemented";
  case 503:
    return "Service Unavailable";
  case 505:
    return "HTTP Version Not Supported";
  default:
    return "Unknown";
  }
}

void dsu::flashed::appendHttpResponseHead(std::string &Out, int Code,
                                          std::string_view ContentType,
                                          size_t ContentLength,
                                          bool KeepAlive) {
  char Line[128];
  int N = std::snprintf(Line, sizeof(Line), "HTTP/1.1 %d %s\r\n", Code,
                        statusText(Code));
  Out.append(Line, static_cast<size_t>(N));
  Out += "Server: FlashEd/1.1 (dsu)\r\nContent-Type: ";
  Out += ContentType;
  N = std::snprintf(Line, sizeof(Line), "\r\nContent-Length: %zu\r\n",
                    ContentLength);
  Out.append(Line, static_cast<size_t>(N));
  Out += KeepAlive ? "Connection: keep-alive\r\n\r\n"
                   : "Connection: close\r\n\r\n";
}

void dsu::flashed::appendHttpResponse(std::string &Out, int Code,
                                      std::string_view ContentType,
                                      std::string_view Body, bool KeepAlive) {
  appendHttpResponseHead(Out, Code, ContentType, Body.size(), KeepAlive);
  Out += Body;
}

const char *dsu::flashed::mimeForExtension(std::string_view Ext) {
  // Sorted by extension for binary search; keep ordering when extending.
  struct Entry {
    std::string_view Ext;
    const char *Mime;
  };
  static constexpr Entry Table[] = {
      {"css", "text/css"},
      {"gif", "image/gif"},
      {"htm", "text/html"},
      {"html", "text/html"},
      {"ico", "image/x-icon"},
      {"jpeg", "image/jpeg"},
      {"jpg", "image/jpeg"},
      {"js", "application/javascript"},
      {"json", "application/json"},
      {"pdf", "application/pdf"},
      {"png", "image/png"},
      {"svg", "image/svg+xml"},
      {"txt", "text/plain"},
      {"wasm", "application/wasm"},
      {"webp", "image/webp"},
      {"xml", "application/xml"},
  };
  const Entry *End = Table + sizeof(Table) / sizeof(Table[0]);
  const Entry *It = std::lower_bound(
      Table, End, Ext,
      [](const Entry &E, std::string_view Key) { return E.Ext < Key; });
  return It != End && It->Ext == Ext ? It->Mime : "application/octet-stream";
}
