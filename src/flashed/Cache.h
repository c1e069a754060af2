//===- flashed/Cache.h - FlashEd response cache representations -*- C++ -*-//
///
/// \file
/// The cache payload types FlashEd keeps in a dsu state cell.  Version 1
/// caches bodies only; version 2 (introduced by patch P3, the paper-style
/// "type change with state transformer") adds per-entry hit counters and
/// last-access stamps.  The dsu named type `%flashed_cache@N` describes
/// the cell; these structs are the C++ representations at each version.
///
/// Bodies are held as shared_ptr<const string>, the pointer a SharedStr
/// wraps: `flashed.cache_get` hands a hit's bytes out and
/// `flashed.cache_put` stores them without copying, and the served path
/// shares the same bytes with the socket layer.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_FLASHED_CACHE_H
#define DSU_FLASHED_CACHE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace dsu {
namespace flashed {

/// A shared, immutable response body.
using SharedBody = std::shared_ptr<const std::string>;

/// %flashed_cache@1 : array<{path: string, body: string}>
struct CacheV1 {
  std::map<std::string, SharedBody> Entries;
};

/// One entry of %flashed_cache@2.  The statistics fields are relaxed
/// atomics: the cache payload is published as an immutable snapshot
/// (StateCell::publish / live()), and a hit on the lock-free serving
/// path bumps the counters of the shared snapshot in place — structure
/// immutable, statistics concurrent, no mutex.  Copying (snapshot
/// forks, state-transformer builds) reads the counters relaxed.
struct CacheEntryV2 {
  SharedBody Body;
  std::atomic<int64_t> Hits{0};
  std::atomic<int64_t> LastAccessMs{0};

  CacheEntryV2() = default;
  CacheEntryV2(const CacheEntryV2 &O)
      : Body(O.Body), Hits(O.Hits.load(std::memory_order_relaxed)),
        LastAccessMs(O.LastAccessMs.load(std::memory_order_relaxed)) {}
  CacheEntryV2(CacheEntryV2 &&O) noexcept
      : Body(std::move(O.Body)),
        Hits(O.Hits.load(std::memory_order_relaxed)),
        LastAccessMs(O.LastAccessMs.load(std::memory_order_relaxed)) {}
  CacheEntryV2 &operator=(const CacheEntryV2 &O) {
    Body = O.Body;
    Hits.store(O.Hits.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    LastAccessMs.store(O.LastAccessMs.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }
  CacheEntryV2 &operator=(CacheEntryV2 &&O) noexcept {
    Body = std::move(O.Body);
    Hits.store(O.Hits.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    LastAccessMs.store(O.LastAccessMs.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

  int64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  int64_t lastAccessMs() const {
    return LastAccessMs.load(std::memory_order_relaxed);
  }
  void noteHit(int64_t NowMs) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    LastAccessMs.store(NowMs, std::memory_order_relaxed);
  }
};

/// %flashed_cache@2 :
///   array<{path: string, body: string, hits: int, last_ms: int}>
struct CacheV2 {
  std::map<std::string, CacheEntryV2> Entries;
};

/// Type text of each representation (kept beside the structs so the
/// descriptor and the C++ type evolve together).
inline const char *cacheReprV1() {
  return "array<{path: string, body: string}>";
}
inline const char *cacheReprV2() {
  return "array<{path: string, body: string, hits: int, last_ms: int}>";
}

} // namespace flashed
} // namespace dsu

#endif // DSU_FLASHED_CACHE_H
