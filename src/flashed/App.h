//===- flashed/App.h - The updateable FlashEd application -----*- C++ -*-===//
///
/// \file
/// FlashEd: the updateable web server used as the macro benchmark, the
/// reproduction of the retrofit the PLDI 2001 authors performed on the
/// Flash web server.
///
/// The request pipeline is decomposed into updateable functions — the
/// same decomposition the paper's updateable compilation performs on
/// Flash's handler chain:
///
///   flashed.parse_target : fn(string) -> string   raw head -> "GET /p"
///   flashed.map_url      : fn(string) -> string   target -> document path
///   flashed.mime_type    : fn(string) -> string   path -> content type
///   flashed.cache_get    : fn(string) -> string   path -> body ("" miss)
///   flashed.cache_put    : fn(string, string) -> unit
///   flashed.log_access   : fn(string, int) -> unit
///
/// The response cache lives in the dsu state cell "flashed.cache" typed
/// %flashed_cache@1, so the P3 patch can migrate it.  handleInto() is
/// the one served path: it routes every stage through the updateable
/// handles and writes the response into a connection's output buffer.
/// handleStaticInto() calls the same version-1 implementations directly,
/// giving the static baseline of the throughput experiment (E2), and
/// handle() is an in-memory adapter over handleInto() for callers
/// without a socket.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_FLASHED_APP_H
#define DSU_FLASHED_APP_H

#include "core/Runtime.h"
#include "flashed/Cache.h"
#include "flashed/DocStore.h"
#include "flashed/Http.h"
#include "runtime/RolloutController.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace dsu {

class UpdateController;

namespace net {
class ReactorPool;
}

namespace flashed {

/// Maps an update-flow error to the HTTP status the admin control plane
/// answers with: EC_Busy -> 503 (retryable, with Retry-After), EC_Link
/// -> 404, other rejections -> 409, success -> 200.
int adminStatusForError(const Error &E);

/// One FlashEd instance wired into a dsu runtime.
class FlashedApp {
public:
  explicit FlashedApp(Runtime &RT) : RT(RT) {}
  FlashedApp(const FlashedApp &) = delete;
  FlashedApp &operator=(const FlashedApp &) = delete;

  /// Defines named types, the cache state cell, the updateable pipeline
  /// and host exports.  Call once before serving.
  Error init(DocStore InitialDocs);

  /// Enables the /admin control plane on the fast-path handler, staging
  /// POSTed patch artifacts through \p Ctl (off the serve thread) and
  /// committing them at the server's idle hook:
  ///
  ///   POST /admin/patches        stage the request body (a .dsup patch
  ///                              artifact); answers 202 with the tx id
  ///   GET  /admin/updates        the update log + queued transactions
  ///                              (phase, per-stage timings, failures)
  ///   GET  /admin/status         counters, queue depth, and — with a
  ///                              pool attached — per-worker state
  ///   GET  /admin/metrics        text-format counters: per-worker
  ///                              request/connection/bytes totals and
  ///                              the update-pause histogram
  ///   POST /admin/rollback?name=F  roll one updateable back; EC_Busy
  ///                              surfaces as a retryable 503
  ///   POST /admin/rollout        stage the body and drive it through a
  ///                              metric-gated canary rollout; query
  ///                              params canary_workers, window_ms,
  ///                              max_error_delta, max_latency_delta_us,
  ///                              min_samples, max_canary_traps; answers
  ///                              202 with the rollout id
  ///   GET  /admin/rollouts       every rollout's state, verdict, gate
  ///                              reason and group counters (?id=N for
  ///                              one)
  ///   GET  /admin/lint?id=N      the update-safety analyzer's full
  ///                              finding list for one transaction
  ///                              (severity, code, message, fn, pc)
  ///
  /// The admin surface is part of the control plane, not the updateable
  /// request pipeline: handleStaticInto/the E2 baseline never see it.
  void enableAdmin(UpdateController &Ctl) {
    Admin = &Ctl;
    wireUpdateWake();
  }
  bool adminEnabled() const { return Admin != nullptr; }

  /// Attaches the multi-core serving plane: /admin/status grows a
  /// per-worker state array, /admin/metrics reports each worker's
  /// counters and pause histogram, and POST /admin/rollback executes
  /// through the pool's update barrier (all workers quiescent) instead
  /// of directly on the serving thread.
  void attachPool(net::ReactorPool &P) {
    Pool = &P;
    wireUpdateWake();
  }

  /// Attaches the durable update journal's admin surface:
  /// /admin/status grows a "journal" object (boots, clean-vs-crash
  /// previous boot, chain length, quarantine and replay counters) and
  /// GET /admin/journal serves the decoded record history —
  /// ?quarantined=1 narrows it to the quarantine table.  The journal is
  /// attached to the runtime separately (Runtime::attachJournal); this
  /// only wires the read side.
  void attachJournal(persist::UpdateJournal &J) { Journal = &J; }

  /// The canary rollout control plane behind POST /admin/rollout,
  /// created lazily from the attached pool's worker stats and quiescent
  /// runner (or degenerate hooks when no pool is attached).  Valid only
  /// after enableAdmin().
  RolloutController &rollouts();

  /// Serves one raw request held in memory and returns the response
  /// bytes: scanRequestHead() + handleInto() + the shared body appended.
  /// For callers without a socket (tests, benches, embedders).
  std::string handle(std::string_view RawRequest);

  /// Serves one request through the updateable pipeline: serializes the
  /// response head into \p Out (a reusable buffer) and hands the body as
  /// a shared pointer in \p Body, so a cached document is served without
  /// per-request copies.  Matches Server::FastHandler.
  void handleInto(const RequestHead &Head, std::string_view Raw,
                  std::string &Out, SharedBody &Body);

  /// The static-baseline twin of handleInto() (no updateable
  /// indirection) — the "static Flash" column of E2's keep-alive mode.
  void handleStaticInto(const RequestHead &Head, std::string_view Raw,
                        std::string &Out, SharedBody &Body);

  Runtime &runtime() { return RT; }
  DocStore &docs() { return Docs; }
  StateCell *cacheCell() { return Cache; }

  uint64_t requestsHandled() const {
    return Requests.load(std::memory_order_relaxed);
  }

  // Typed pipeline handles (valid after init()).
  Updateable<std::string(std::string)> ParseTarget;
  Updateable<std::string(std::string)> MapUrl;
  Updateable<std::string(std::string)> MimeType;
  Updateable<std::string(std::string)> CacheGet;
  Updateable<void(std::string, std::string)> CachePut;
  Updateable<void(std::string, int64_t)> LogAccess;

  // Version-1 pipeline implementations, shared by the updateable initial
  // bindings, the static baseline, and the patch definitions (which know
  // exactly which v1 behaviours they replace).
  static std::string parseTargetV1(std::string Raw);
  static std::string mapUrlV1(std::string Target);
  static std::string mimeTypeV1(std::string Path);
  std::string cacheGetV1(std::string Path);
  void cachePutV1(std::string Path, std::string Body);
  static void logAccessV1(std::string Path, int64_t Status);

private:
  template <typename HParse, typename HMap, typename HMime, typename HLog>
  void handleIntoWith(const RequestHead &Head, std::string_view Raw,
                      std::string &Out, SharedBody &Body, HParse &&Parse,
                      HMap &&Map, HMime &&Mime, HLog &&Log);

  /// Version-aware zero-copy body lookup: reads the published cache
  /// snapshot lock-free (bumping V2 hit counters in place), falling
  /// back to the document store and filling the cache on a miss.
  SharedBody lookupBody(const std::string &Path);

  /// The miss path's copy-update-publish of the cache snapshot.
  void fillCache(const std::string &Path, const SharedBody &Doc);

  /// Serves one /admin request into \p Out.
  void handleAdmin(const RequestHead &Head, std::string_view Raw,
                   std::string &Out);

  /// Renders the GET /admin/metrics exposition text.
  std::string renderMetrics() const;

  /// When both the controller and the pool are attached, a freshly
  /// staged update wakes every worker so the barrier forms without
  /// waiting out a poll timeout.
  void wireUpdateWake();

  Runtime &RT;
  DocStore Docs;
  StateCell *Cache = nullptr;
  UpdateController *Admin = nullptr;
  net::ReactorPool *Pool = nullptr;
  persist::UpdateJournal *Journal = nullptr;
  std::mutex RolloutLock; ///< guards lazy Rollout creation
  std::unique_ptr<RolloutController> Rollout;
  /// Serving now happens on N reactor workers concurrently; the request
  /// counter is the only pipeline state the app itself mutates per
  /// request, so it is a relaxed atomic (cache/state cells have their
  /// own payload locks).
  std::atomic<uint64_t> Requests{0};
};

} // namespace flashed
} // namespace dsu

#endif // DSU_FLASHED_APP_H
