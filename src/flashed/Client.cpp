//===- flashed/Client.cpp -------------------------------------*- C++ -*-===//

#include "flashed/Client.h"

#include "flashed/Http.h"
#include "support/StringUtil.h"
#include "support/Timer.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <random>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>
#include <unistd.h>

using namespace dsu;
using namespace dsu::flashed;

namespace {

/// Connects a TCP_NODELAY socket to 127.0.0.1:\p Port.
Expected<int> connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Error::make(ErrorCode::EC_IO, "socket: %s",
                       std::strerror(errno));
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    int E = errno;
    ::close(Fd);
    return Error::make(ErrorCode::EC_IO, "connect: %s", std::strerror(E));
  }
  return Fd;
}

/// Applies SO_SNDTIMEO/SO_RCVTIMEO so a wedged peer bounds every
/// blocking send/receive instead of hanging the caller forever.
void applySocketTimeout(int Fd, uint64_t Ms) {
  timeval Tv{};
  Tv.tv_sec = static_cast<time_t>(Ms / 1000);
  Tv.tv_usec = static_cast<suseconds_t>((Ms % 1000) * 1000);
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
}

/// True when errno says the socket timeout (not the peer) ended the
/// call — the EC_Timeout vs EC_IO distinction dsu-updatectl maps to
/// different exit codes.
bool isTimeoutErrno(int E) { return E == EAGAIN || E == EWOULDBLOCK; }

Error writeAll(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && isTimeoutErrno(errno))
        return Error::make(ErrorCode::EC_Timeout, "write timed out");
      return Error::make(ErrorCode::EC_IO, "write: %s",
                         std::strerror(errno));
    }
    Off += static_cast<size_t>(N);
  }
  return Error::success();
}

/// Framing facts of one buffered response.
struct ResponseFrame {
  bool Complete = false;
  int Status = 0;
  size_t HeadBytes = 0;
  size_t ContentLength = 0;
};

/// Scans \p Buf for a complete response head; Content-Length framing.
Expected<ResponseFrame> scanResponse(std::string_view Buf) {
  ResponseFrame F;
  size_t HeadEnd = Buf.find("\r\n\r\n");
  if (HeadEnd == std::string_view::npos)
    return F; // incomplete, not an error
  F.HeadBytes = HeadEnd + 4;

  // "HTTP/1.1 200 OK"
  size_t Sp = Buf.find(' ');
  if (Sp == std::string_view::npos || Sp > HeadEnd)
    return Error::make(ErrorCode::EC_Parse, "malformed status line");
  std::string_view Code = Buf.substr(Sp + 1);
  auto [Ptr, Ec] = std::from_chars(
      Code.data(), Code.data() + std::min<size_t>(Code.size(), 3),
      F.Status);
  if (Ec != std::errc())
    return Error::make(ErrorCode::EC_Parse, "malformed status code");
  (void)Ptr;

  // Header lines, for Content-Length.
  std::string_view Rest = Buf.substr(0, HeadEnd);
  while (!Rest.empty()) {
    std::string_view Line = popHeaderLine(Rest);
    size_t Colon = Line.find(':');
    if (Colon == std::string_view::npos)
      continue;
    if (asciiCaseEqual(trim(Line.substr(0, Colon)), "content-length")) {
      if (!parseContentLength(trim(Line.substr(Colon + 1)),
                              F.ContentLength))
        return Error::make(ErrorCode::EC_Parse, "bad Content-Length");
    }
  }
  F.Complete = true;
  return F;
}

/// Reads one Content-Length-framed response off \p Fd into \p Buf and
/// consumes it, leaving any bytes behind it (pipelined responses) in
/// \p Buf.  The one response grammar of both clients.
Expected<FetchResult> readFramedResponse(int Fd, std::string &Buf) {
  char Chunk[1 << 16];
  while (true) {
    Expected<ResponseFrame> F = scanResponse(Buf);
    if (!F)
      return F.takeError();
    if (F->Complete && Buf.size() >= F->HeadBytes + F->ContentLength) {
      FetchResult Out;
      Out.Status = F->Status;
      Out.Headers = Buf.substr(0, F->HeadBytes - 4);
      Out.Body = Buf.substr(F->HeadBytes, F->ContentLength);
      Buf.erase(0, F->HeadBytes + F->ContentLength);
      return Out;
    }
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N > 0) {
      Buf.append(Chunk, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N == 0)
      return Error::make(ErrorCode::EC_IO, "connection closed mid-response");
    if (isTimeoutErrno(errno))
      return Error::make(ErrorCode::EC_Timeout, "read timed out");
    return Error::make(ErrorCode::EC_IO, "read: %s", std::strerror(errno));
  }
}

/// Backoff before retry attempt \p Attempt (0-based count of failures
/// so far): capped exponential on the policy's base, stretched to the
/// server's Retry-After hint when that is longer, plus up to 25%
/// jitter so a herd of retrying operators decorrelates.
uint64_t backoffMs(const RetryPolicy &P, unsigned Attempt,
                   int64_t RetryAfterHintMs) {
  uint64_t Delay = P.BaseDelayMs;
  for (unsigned I = 0; I != Attempt && Delay < P.MaxDelayMs; ++I)
    Delay *= 2;
  Delay = std::min(Delay, P.MaxDelayMs);
  if (RetryAfterHintMs > 0)
    Delay = std::min(std::max(Delay, static_cast<uint64_t>(RetryAfterHintMs)),
                     P.MaxDelayMs);
  static thread_local std::minstd_rand Rng(static_cast<unsigned>(
      std::chrono::steady_clock::now().time_since_epoch().count()));
  if (Delay > 0)
    Delay += Rng() % (Delay / 4 + 1);
  return Delay;
}

} // namespace

int64_t dsu::flashed::retryAfterMs(const FetchResult &R) {
  std::string_view Rest = R.Headers;
  while (!Rest.empty()) {
    std::string_view Line = popHeaderLine(Rest);
    size_t Colon = Line.find(':');
    if (Colon == std::string_view::npos)
      continue;
    if (!asciiCaseEqual(trim(Line.substr(0, Colon)), "retry-after"))
      continue;
    uint64_t Seconds = 0;
    if (!parseUInt(trim(Line.substr(Colon + 1)), Seconds))
      return -1;
    return static_cast<int64_t>(Seconds * 1000);
  }
  return -1;
}

Expected<FetchResult> dsu::flashed::httpGet(uint16_t Port,
                                            const std::string &Target) {
  Expected<int> Fd = connectLoopback(Port);
  if (!Fd)
    return Fd.takeError();

  std::string Request = "GET " + Target + " HTTP/1.0\r\nHost: localhost\r\n"
                        "User-Agent: dsu-loadgen\r\n\r\n";
  if (Error E = writeAll(*Fd, Request)) {
    ::close(*Fd);
    return E;
  }

  std::string Buf;
  Expected<FetchResult> R = readFramedResponse(*Fd, Buf);
  ::close(*Fd);
  return R;
}

Expected<FetchResult> dsu::flashed::httpPost(uint16_t Port,
                                             const std::string &Target,
                                             const std::string &Body,
                                             const std::string &ContentType) {
  KeepAliveClient C;
  if (Error E = C.connectTo(Port))
    return E;
  return C.post(Target, Body, ContentType, /*Close=*/true);
}

// --- KeepAliveClient ------------------------------------------------------

Error KeepAliveClient::connectTo(uint16_t ToPort) {
  if (Fd >= 0 && Port == ToPort)
    return Error::success();
  disconnect();
  Expected<int> NewFd = connectLoopback(ToPort);
  if (!NewFd)
    return NewFd.takeError();
  Fd = *NewFd;
  Port = ToPort;
  if (TimeoutMs != 0)
    applySocketTimeout(Fd, TimeoutMs);
  return Error::success();
}

void KeepAliveClient::setTimeoutMs(uint64_t Ms) {
  TimeoutMs = Ms;
  if (Fd >= 0 && Ms != 0)
    applySocketTimeout(Fd, Ms);
}

void KeepAliveClient::disconnect() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Buf.clear();
}

Error KeepAliveClient::sendAll(const std::string &Bytes) {
  return writeAll(Fd, Bytes);
}

Expected<FetchResult> KeepAliveClient::readResponse() {
  // Any failure leaves the stream desynced or dead; drop the connection
  // (and its buffered bytes) so a retry starts clean.
  Expected<FetchResult> R = readFramedResponse(Fd, Buf);
  if (!R)
    disconnect();
  return R;
}

Expected<FetchResult> KeepAliveClient::get(const std::string &Target,
                                           bool Close) {
  std::string Request = "GET " + Target + " HTTP/1.1\r\nHost: localhost\r\n";
  if (Close)
    Request += "Connection: close\r\n";
  Request += "\r\n";
  return roundTrip(Request, Close);
}

Expected<FetchResult> KeepAliveClient::post(const std::string &Target,
                                            const std::string &Body,
                                            const std::string &ContentType,
                                            bool Close) {
  std::string Request = "POST " + Target + " HTTP/1.1\r\nHost: localhost\r\n";
  Request += "Content-Type: " + ContentType + "\r\n";
  Request += "Content-Length: " + std::to_string(Body.size()) + "\r\n";
  if (Close)
    Request += "Connection: close\r\n";
  Request += "\r\n";
  Request += Body;
  return roundTrip(Request, Close);
}

Expected<FetchResult> KeepAliveClient::roundTrip(const std::string &Request,
                                                 bool Close) {
  if (Fd < 0) {
    if (Error E = connectTo(Port))
      return E;
  }
  // The server may have dropped the idle connection; retry once on a
  // fresh one before reporting failure.
  for (int Attempt = 0; Attempt != 2; ++Attempt) {
    if (Error E = sendAll(Request)) {
      disconnect();
      if (Error E2 = connectTo(Port))
        return E2;
      continue;
    }
    Expected<FetchResult> R = readResponse();
    if (R) {
      if (Close)
        disconnect();
      return R;
    }
    // A timeout means the server is wedged, not that it dropped an idle
    // connection — retrying would just double the operator's wait.
    if (Attempt == 1 || R.error().code() == ErrorCode::EC_Timeout)
      return R.takeError();
    R.takeError(); // swallow; reconnect and retry
    if (Error E2 = connectTo(Port))
      return E2;
  }
  return Error::make(ErrorCode::EC_IO, "keep-alive request failed");
}

Expected<FetchResult>
KeepAliveClient::postWithRetry(const std::string &Target,
                               const std::string &Body,
                               const std::string &ContentType,
                               const RetryPolicy &P) {
  for (unsigned Attempt = 0;; ++Attempt) {
    Expected<FetchResult> R = post(Target, Body, ContentType);
    if (!R || R->Status != 503 || Attempt + 1 >= P.MaxAttempts)
      return R;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoffMs(P, Attempt, retryAfterMs(*R))));
  }
}

Expected<std::vector<FetchResult>>
KeepAliveClient::pipeline(const std::vector<std::string> &Targets) {
  if (Fd < 0) {
    if (Error E = connectTo(Port))
      return E;
  }
  std::string Burst;
  for (const std::string &T : Targets)
    Burst += "GET " + T + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (Error E = sendAll(Burst))
    return E;

  std::vector<FetchResult> Out;
  Out.reserve(Targets.size());
  for (size_t I = 0; I != Targets.size(); ++I) {
    Expected<FetchResult> R = readResponse();
    if (!R)
      return R.takeError();
    Out.push_back(std::move(*R));
  }
  return Out;
}

// --- Load generators ------------------------------------------------------

Expected<LoadStats> dsu::flashed::runLoad(
    uint16_t Port, const std::vector<std::string> &Targets, uint64_t Count) {
  if (Targets.empty())
    return Error::make(ErrorCode::EC_Invalid, "no targets to load");
  LoadStats Stats;
  Timer T;
  for (uint64_t I = 0; I != Count; ++I) {
    Expected<FetchResult> R = httpGet(Port, Targets[I % Targets.size()]);
    ++Stats.Requests;
    if (!R || R->Status != 200) {
      ++Stats.Failures;
      continue;
    }
    Stats.BytesReceived += R->Body.size() + R->Headers.size();
  }
  Stats.Seconds = T.elapsedNs() / 1e9;
  return Stats;
}

Expected<LoadStats> dsu::flashed::runLoadKeepAlive(
    uint16_t Port, const std::vector<std::string> &Targets, uint64_t Count,
    unsigned Connections) {
  if (Targets.empty())
    return Error::make(ErrorCode::EC_Invalid, "no targets to load");
  if (Connections == 0)
    Connections = 1;
  std::vector<KeepAliveClient> Clients(Connections);
  for (KeepAliveClient &C : Clients)
    if (Error E = C.connectTo(Port))
      return E;

  LoadStats Stats;
  Timer T;
  for (uint64_t I = 0; I != Count; ++I) {
    KeepAliveClient &C = Clients[I % Connections];
    Expected<FetchResult> R = C.get(Targets[I % Targets.size()]);
    ++Stats.Requests;
    if (!R || R->Status != 200) {
      ++Stats.Failures;
      continue;
    }
    Stats.BytesReceived += R->Body.size() + R->Headers.size();
  }
  Stats.Seconds = T.elapsedNs() / 1e9;
  return Stats;
}
