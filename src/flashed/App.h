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
///   flashed.parse_target : fn(string) -> string   raw request -> "GET /p"
///   flashed.map_url      : fn(string) -> string   target -> document path
///   flashed.mime_type    : fn(string) -> string   path -> content type
///   flashed.cache_get    : fn(string) -> string   path -> body ("" miss)
///   flashed.cache_put    : fn(string, string) -> unit
///   flashed.log_access   : fn(string, int) -> unit
///
/// Every `string` here is a SharedStr (support/SharedStr.h): a stage
/// passes the request, the path and the body along as pointer copies,
/// so cache_get hands out the cached bytes themselves and cache_put
/// stores the document store's bytes without copying them.
///
/// The response cache lives in the dsu state cell "flashed.cache" typed
/// %flashed_cache@1, so the P3 patch can migrate it.  handleInto() is
/// the one served path: every body comes out of cache_get or, on a
/// miss, the document store and then cache_put — so rebinding any of
/// the six stages changes what is served.  It writes the response into
/// a connection's output buffer.  handleStaticInto() calls the same
/// version-1 implementations directly, giving the static baseline of
/// the throughput experiment (E2), and handle() is an in-memory adapter
/// over handleInto() for callers without a socket.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_FLASHED_APP_H
#define DSU_FLASHED_APP_H

#include "core/Runtime.h"
#include "flashed/Cache.h"
#include "flashed/DocStore.h"
#include "flashed/Http.h"
#include "runtime/RolloutController.h"
#include "support/SharedStr.h"

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
  /// committing them at the serving pool's update point.  The endpoint
  /// list lives with the code, in flashed/Admin.cpp.  The admin surface
  /// is part of the control plane, not the updateable request pipeline:
  /// handleStaticInto/the E2 baseline never see it.
  void enableAdmin(UpdateController &Ctl) {
    Admin = &Ctl;
    wireUpdateWake();
  }

  /// Attaches the multi-core serving plane: per-worker rows in
  /// /admin/status and /admin/metrics, and the per-worker counters the
  /// rollout health gates compare.
  void attachPool(net::ReactorPool &P) {
    Pool = &P;
    wireUpdateWake();
  }

  /// Attaches the update journal's read side (/admin/status "journal",
  /// GET /admin/journal); the runtime writes it (Runtime::attachJournal).
  void attachJournal(persist::UpdateJournal &J) { Journal = &J; }

  /// The canary rollout control plane behind POST /admin/rollout,
  /// created lazily from the attached pool's worker stats (or empty
  /// hooks when no pool is attached).  Valid only after enableAdmin().
  RolloutController &rollouts();

  /// Serves one raw request held in memory and returns the response
  /// bytes: scanRequestHead() + handleInto() + the shared body appended.
  /// For callers without a socket (tests, benches, embedders).
  std::string handle(std::string_view RawRequest);

  /// Serves one request through the updateable pipeline: serializes the
  /// response head into \p Out (a reusable buffer) and hands the body as
  /// a shared pointer in \p Body, so a cached document is served without
  /// per-request copies.  A head that is incomplete or Malformed is
  /// answered 400 before any stage but log_access runs.  Matches
  /// net::Reactor::FastHandler.
  void handleInto(const RequestHead &Head, std::string_view Raw,
                  std::string &Out, SharedBody &Body);

  /// The static-baseline twin of handleInto() (no updateable
  /// indirection) — the "static Flash" column of E2's keep-alive mode.
  /// It calls cacheGetV1/cachePutV1 directly, so it is valid only while
  /// the cache cell is still %flashed_cache@1 (before P3).
  void handleStaticInto(const RequestHead &Head, std::string_view Raw,
                        std::string &Out, SharedBody &Body);

  Runtime &runtime() { return RT; }
  DocStore &docs() { return Docs; }
  StateCell *cacheCell() { return Cache; }

  // Typed pipeline handles (valid after init()).
  Updateable<SharedStr(SharedStr)> ParseTarget;
  Updateable<SharedStr(SharedStr)> MapUrl;
  Updateable<SharedStr(SharedStr)> MimeType;
  Updateable<SharedStr(SharedStr)> CacheGet;
  Updateable<void(SharedStr, SharedStr)> CachePut;
  Updateable<void(SharedStr, int64_t)> LogAccess;

  // Version-1 pipeline implementations, shared by the updateable initial
  // bindings, the static baseline, and the patch definitions (which know
  // exactly which v1 behaviours they replace).
  static SharedStr parseTargetV1(SharedStr Raw);
  static SharedStr mapUrlV1(SharedStr Target);
  static SharedStr mimeTypeV1(SharedStr Path);
  SharedStr cacheGetV1(SharedStr Path);
  void cachePutV1(SharedStr Path, SharedStr Body);
  static void logAccessV1(SharedStr Path, int64_t Status);

private:
  template <typename HParse, typename HMap, typename HMime, typename HGet,
            typename HPut, typename HLog>
  void handleIntoWith(const RequestHead &Head, std::string_view Raw,
                      std::string &Out, SharedBody &Body, HParse &&Parse,
                      HMap &&Map, HMime &&Mime, HGet &&Get, HPut &&Put,
                      HLog &&Log);

  /// Targets under this prefix go to handleAdmin() once admin is on.
  static constexpr std::string_view AdminPrefix = "/admin/";

  /// Serves one /admin request into \p Out (flashed/Admin.cpp).
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
};

} // namespace flashed
} // namespace dsu

#endif // DSU_FLASHED_APP_H
