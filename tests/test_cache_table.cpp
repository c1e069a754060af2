//===- tests/test_cache_table.cpp - FlashEd cache under concurrency -*- C++ -*-//
///
/// The cache's insert-only hash table under its real traffic pattern:
/// lock-free `flashed.cache_get` readers on several threads while one
/// writer puts through `flashed.cache_put`.  The writer refills a fresh
/// cache over and over (slot-array growth under the readers), inserts
/// 4096 keys with overwrites and a periodic reset (a fresh payload
/// published whole, as the oneshot benchmark does per pass), then
/// overwrites a few keys over and over while every reader looks them
/// up.
/// Under ASan a reader touching a reclaimed node or slot array is a
/// use-after-free; under TSan a node read before its release store is
/// a race.
///
/// Part of the epoch suite: run alone with `ctest -L epoch`.

#include "flashed/App.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace dsu;
using namespace dsu::flashed;

namespace {

constexpr int Keys = 4096;
constexpr int ResetEvery = 1500;
constexpr int Readers = 3;
/// The growth phase: refills of a fresh cache with this many keys, three
/// slot-array doublings each.
constexpr int GrowthKeys = 128;
constexpr int GrowthRefills = 500;
/// The overwrite phase: the last keys, overwritten over and over.
constexpr int HotKeys = 2;
constexpr int HotRounds = 5000;

/// Which keys the readers look up, following the writer's phase.
enum Phase { Growth, Fill, Overwrite, Done };

std::string pathOf(int K) { return "/k" + std::to_string(K) + ".html"; }

/// Every body names its key, so a reader can tell a hit that returned
/// another key's bytes (or torn bytes) from a correct one.
std::string bodyOf(int K, int Gen) {
  return pathOf(K) + "#" + std::to_string(Gen);
}

bool bodyBelongsTo(const std::string &Body, int K) {
  std::string Prefix = pathOf(K) + "#";
  return Body.compare(0, Prefix.size(), Prefix) == 0;
}

void resetCache(FlashedApp &App) {
  StateCell *C = App.cacheCell();
  std::lock_guard<std::mutex> G(C->payloadLock());
  C->publish(std::make_shared<CacheV1>());
}

TEST(CacheTableTest, ReadersSeeExactBodiesWhileTheWriterGrowsAndResets) {
  Runtime RT;
  FlashedApp App{RT};
  ASSERT_FALSE(App.init(DocStore()));
  std::vector<SharedStr> Paths;
  for (int K = 0; K != Keys; ++K)
    Paths.emplace_back(pathOf(K));

  std::atomic<int> Ph{Growth};
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Wrong{0};
  std::vector<std::thread> Threads;
  for (int R = 0; R != Readers; ++R)
    Threads.emplace_back([&, R] {
      uint64_t X = 0x9e3779b97f4a7c15ull * (R + 1);
      for (int P; (P = Ph.load(std::memory_order_acquire)) != Done;) {
        X ^= X << 13;
        X ^= X >> 7;
        X ^= X << 17;
        int K = P == Growth ? static_cast<int>(X % GrowthKeys)
                : P == Fill ? static_cast<int>(X % Keys)
                            : Keys - 1 - static_cast<int>(X % HotKeys);
        SharedStr Got = App.CacheGet(Paths[K]);
        if (Got.empty())
          continue;
        Hits.fetch_add(1, std::memory_order_relaxed);
        if (!bodyBelongsTo(Got.str(), K))
          Wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Growth: a fresh cache refilled over and over, so readers probe slot
  // arrays that a doubling retires under them.
  for (int I = 0; I != GrowthRefills; ++I) {
    resetCache(App);
    for (int K = 0; K != GrowthKeys; ++K)
      App.CachePut(Paths[K], SharedStr(bodyOf(K, 0)));
  }

  // Fill: every key once, with an overwrite now and then and a reset
  // every ResetEvery keys.  Latest holds the newest body of every key
  // put since the last reset.
  Ph.store(Fill, std::memory_order_release);
  std::map<int, std::string> Latest;
  for (int K = 0; K != Keys; ++K) {
    if (K % ResetEvery == 0) {
      resetCache(App);
      Latest.clear();
    }
    App.CachePut(Paths[K], SharedStr(bodyOf(K, 0)));
    Latest[K] = bodyOf(K, 0);
    if (K % 5 == 0 && Latest.count(K - 3)) {
      App.CachePut(Paths[K - 3], SharedStr(bodyOf(K - 3, 1)));
      Latest[K - 3] = bodyOf(K - 3, 1);
    }
  }

  // Overwrite: a few keys every reader now looks up; each put swaps in
  // a node and retires the one a reader may be holding.
  Ph.store(Overwrite, std::memory_order_release);
  for (int Round = 2; Round != HotRounds + 2; ++Round)
    for (int K = Keys - HotKeys; K != Keys; ++K) {
      App.CachePut(Paths[K], SharedStr(bodyOf(K, Round)));
      Latest[K] = bodyOf(K, Round);
    }
  Ph.store(Done, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Wrong.load(), 0u) << "of " << Hits.load() << " hits";
  {
    epoch::Guard G;
    EXPECT_EQ(App.cacheCell()->live<const CacheV1>()->Entries.size(),
              Latest.size());
  }
  for (const auto &[K, Body] : Latest)
    EXPECT_EQ(App.CacheGet(Paths[K]).str(), Body) << K;
  // Keys put before the last reset are gone with the old payload.
  EXPECT_TRUE(App.CacheGet(Paths[0]).empty());
}

} // namespace
