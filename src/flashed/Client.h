//===- flashed/Client.h - Loopback HTTP client and load generator -*- C++ -*-//
///
/// \file
/// Blocking HTTP clients plus the load generators driving the throughput
/// experiment (E2) — the role httperf and the client machines play in
/// the PLDI 2001 testbed, collapsed onto the loopback interface so the
/// benchmark is self-contained.  Two flavours: the original one-shot
/// HTTP/1.0 fetch (one TCP connection per request) and a persistent
/// HTTP/1.1 client that issues many requests — optionally pipelined —
/// over one connection.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_FLASHED_CLIENT_H
#define DSU_FLASHED_CLIENT_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dsu {
namespace flashed {

/// A fetched response.
struct FetchResult {
  int Status = 0;
  std::string Headers; ///< raw head
  std::string Body;
};

/// Performs one blocking HTTP/1.0 GET against 127.0.0.1:\p Port (a fresh
/// TCP connection per call — the one-shot baseline path).  The reply is
/// framed by its Content-Length, as KeepAliveClient reads it, not by the
/// server closing the connection.
Expected<FetchResult> httpGet(uint16_t Port, const std::string &Target);

/// Performs one blocking HTTP/1.1 POST (Connection: close) against
/// 127.0.0.1:\p Port — the one-shot operator path used by dsu-updatectl
/// to drive a server's /admin control plane.
Expected<FetchResult> httpPost(uint16_t Port, const std::string &Target,
                               const std::string &Body,
                               const std::string &ContentType =
                                   "application/octet-stream");

/// Retry pacing for requests the server answers with 503 (EC_Busy, e.g.
/// an update barrier forming or a rollout in flight): capped exponential
/// backoff with jitter, honouring any Retry-After the server sent.
struct RetryPolicy {
  unsigned MaxAttempts = 5;  ///< total tries, including the first
  uint64_t BaseDelayMs = 10; ///< first backoff step
  uint64_t MaxDelayMs = 1000;
};

/// Parses a Retry-After header (delta-seconds form) out of a response's
/// raw head; returns -1 when absent or malformed.
int64_t retryAfterMs(const FetchResult &R);

/// A persistent-connection HTTP/1.1 client: one TCP connection, many
/// sequential (or pipelined) requests framed by Content-Length.
class KeepAliveClient {
public:
  KeepAliveClient() = default;
  ~KeepAliveClient() { disconnect(); }
  KeepAliveClient(const KeepAliveClient &) = delete;
  KeepAliveClient &operator=(const KeepAliveClient &) = delete;

  /// Connects to 127.0.0.1:\p Port.  Idempotent while connected.
  Error connectTo(uint16_t Port);

  /// Bounds every socket send/receive (SO_SNDTIMEO/SO_RCVTIMEO): a
  /// server that wedges mid-response fails the request with EC_Timeout
  /// instead of hanging the operator.  0 (default) = no timeout.
  /// Applies to the current connection and any reconnect.
  void setTimeoutMs(uint64_t Ms);

  /// One GET over the persistent connection.  When \p Close is set the
  /// request carries "Connection: close" and the connection is torn
  /// down after the response.  Reconnects transparently (once) when the
  /// server closed the connection between requests.
  Expected<FetchResult> get(const std::string &Target, bool Close = false);

  /// One POST over the same persistent connection (e.g. staging a patch
  /// through /admin/patches between GETs, without reconnecting).
  Expected<FetchResult> post(const std::string &Target,
                             const std::string &Body,
                             const std::string &ContentType =
                                 "application/octet-stream",
                             bool Close = false);

  /// post() with RetryPolicy backoff on 503 responses: retries
  /// with capped exponential backoff plus jitter, using the server's
  /// Retry-After hint when it is longer than the computed backoff.
  /// Non-503 responses (including other errors) return immediately;
  /// transport failures are NOT retried beyond roundTrip()'s single
  /// reconnect — a dead server should fail fast and distinctly.
  Expected<FetchResult> postWithRetry(const std::string &Target,
                                      const std::string &Body,
                                      const std::string &ContentType =
                                          "application/octet-stream",
                                      const RetryPolicy &P = {});

  /// Writes GETs for all \p Targets in one burst, then reads all
  /// responses — the pipelined client the server's drain loop exists
  /// for.  Responses come back in request order.
  Expected<std::vector<FetchResult>>
  pipeline(const std::vector<std::string> &Targets);

  void disconnect();

private:
  Error sendAll(const std::string &Bytes);
  /// Sends \p Request and reads its response, reconnecting once when the
  /// server dropped the idle connection (shared by get()/post()).
  Expected<FetchResult> roundTrip(const std::string &Request, bool Close);
  /// Reads one Content-Length-framed response off the connection,
  /// consuming it from the internal buffer (pipelined bytes survive);
  /// disconnects on any failure.
  Expected<FetchResult> readResponse();

  int Fd = -1;
  uint16_t Port = 0;
  uint64_t TimeoutMs = 0;
  std::string Buf; ///< bytes read beyond previously consumed responses
};

/// Load-generation outcome.
struct LoadStats {
  uint64_t Requests = 0;
  uint64_t Failures = 0;
  uint64_t BytesReceived = 0;
  double Seconds = 0;

  double requestsPerSecond() const {
    return Seconds > 0 ? Requests / Seconds : 0;
  }
};

/// Issues \p Count sequential one-shot GETs cycling through \p Targets.
/// The server must run on other threads (e.g. a started ReactorPool).
Expected<LoadStats> runLoad(uint16_t Port,
                            const std::vector<std::string> &Targets,
                            uint64_t Count);

/// Keep-alive flavour of runLoad(): \p Count GETs cycling through
/// \p Targets, spread round-robin over \p Connections persistent
/// HTTP/1.1 connections.
Expected<LoadStats> runLoadKeepAlive(uint16_t Port,
                                     const std::vector<std::string> &Targets,
                                     uint64_t Count,
                                     unsigned Connections = 1);

} // namespace flashed
} // namespace dsu

#endif // DSU_FLASHED_CLIENT_H
