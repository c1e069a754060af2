//===- flashed/Cache.h - FlashEd response cache representations -*- C++ -*-//
///
/// \file
/// The cache payload types FlashEd keeps in a dsu state cell.  Version 1
/// caches bodies only; version 2 (introduced by patch P3, the paper-style
/// "type change with state transformer") adds per-entry hit counters and
/// last-access stamps.  The dsu named type `%flashed_cache@N` describes
/// the cell; these structs are the C++ representations at each version.
///
/// Both versions keep their entries in one EpochTable: an insert-only
/// hash table that request threads read without a lock inside their
/// epoch scope while the miss path inserts in place under the cell's
/// payload lock.  A put therefore does amortized O(1) work and retires
/// nothing into the epoch domain except at a growth step or when it
/// replaces an existing key; the payload itself is only ever replaced
/// whole by a reset (StateCell::publish) or a migration.
///
/// Bodies are held as shared_ptr<const string>, the pointer a SharedStr
/// wraps: `flashed.cache_get` hands a hit's bytes out and
/// `flashed.cache_put` stores them without copying, and the served path
/// shares the same bytes with the socket layer.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_FLASHED_CACHE_H
#define DSU_FLASHED_CACHE_H

#include "epoch/Epoch.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace dsu {
namespace flashed {

/// A shared, immutable response body.
using SharedBody = std::shared_ptr<const std::string>;

/// An insert-only, string-keyed hash table with lock-free readers.
///
/// The table is an open-addressed (linear probing) array of atomic
/// pointers to immutable nodes, kept at most half full.  Concurrency
/// contract:
///
///  - Readers (find, forEach) hold an epoch::Guard or are reactor
///    workers for as long as they use a returned pointer.  A lookup is
///    one acquire load of the slot array, then acquire loads along the
///    probe sequence; it takes no lock and builds no key string.
///  - Writers (put) serialize among themselves externally (FlashEd
///    holds the state cell's payload lock).  A new key is one node
///    linked into an empty slot by a release store, so a reader sees
///    either nothing or the whole node.  Replacing a key's value swaps
///    in a new node and retires only the old one.
///  - Growth doubles the slot array: it rehashes the node pointers
///    (the nodes themselves are shared, not copied), publishes the new
///    array through epoch::Ptr and retires the old array.  Amortized,
///    one put moves O(1) pointers.
///
/// Entries are never removed; a fresh table is how a cache is emptied.
template <typename V> class EpochTable {
public:
  EpochTable() = default;
  ~EpochTable() {
    // The owner is unreachable by now (its payload drained through the
    // epoch domain), so the nodes can go directly.
    if (const Slots *S = Table.load())
      for (size_t I = 0; I <= S->Mask; ++I)
        delete S->At[I].load(std::memory_order_relaxed);
  }
  EpochTable(const EpochTable &) = delete;
  EpochTable &operator=(const EpochTable &) = delete;

  /// Number of distinct keys; exact, O(1), readable from any thread.
  size_t size() const { return Count.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// The value stored under \p Key, or nullptr.  Reader side.
  const V *find(std::string_view Key) const {
    const Slots *S = Table.load();
    if (!S)
      return nullptr;
    size_t H = hashOf(Key);
    for (size_t I = H & S->Mask;; I = (I + 1) & S->Mask) {
      const Node *N = S->At[I].load(std::memory_order_acquire);
      if (!N)
        return nullptr;
      if (N->Hash == H && N->Key == Key)
        return &N->Value;
    }
  }

  /// Calls \p F(const std::string &Key, const V &Value) for every entry.
  /// Reader side; order unspecified.
  template <typename Fn> void forEach(Fn &&F) const {
    const Slots *S = Table.load();
    if (!S)
      return;
    for (size_t I = 0; I <= S->Mask; ++I)
      if (const Node *N = S->At[I].load(std::memory_order_acquire))
        F(N->Key, N->Value);
  }

  /// Stores V(\p Args...) under \p Key, replacing any previous value.
  /// Writer side: the caller excludes every other writer.
  template <typename... ArgTs>
  void put(std::string_view Key, ArgTs &&...Args) {
    size_t H = hashOf(Key);
    Slots *S = Table.load();
    if (S)
      for (size_t I = H & S->Mask;; I = (I + 1) & S->Mask) {
        Node *Old = S->At[I].load(std::memory_order_relaxed);
        if (!Old)
          break;
        if (Old->Hash == H && Old->Key == Key) {
          S->At[I].store(new Node(H, Key, std::forward<ArgTs>(Args)...),
                         std::memory_order_release);
          epoch::retireObject(Old);
          return;
        }
      }
    if (!S || (size() + 1) * 2 > S->Mask + 1)
      S = grow(S);
    link(*S, new Node(H, Key, std::forward<ArgTs>(Args)...));
    Count.store(size() + 1, std::memory_order_relaxed);
  }

private:
  struct Node {
    template <typename... ArgTs>
    Node(size_t Hash, std::string_view Key, ArgTs &&...Args)
        : Hash(Hash), Key(Key), Value(std::forward<ArgTs>(Args)...) {}
    const size_t Hash;
    const std::string Key;
    V Value;
  };

  /// One power-of-two slot array.  It does not own the nodes: every
  /// array a table ever had shares them.
  struct Slots {
    explicit Slots(size_t N)
        : Mask(N - 1), At(new std::atomic<Node *>[N]()) {}
    const size_t Mask;
    std::unique_ptr<std::atomic<Node *>[]> At;
  };

  static constexpr size_t InitialSlots = 32;

  static size_t hashOf(std::string_view Key) {
    return std::hash<std::string_view>()(Key);
  }

  /// Stores \p N in the first empty slot of its probe sequence.
  static void link(Slots &S, Node *N) {
    size_t I = N->Hash & S.Mask;
    while (S.At[I].load(std::memory_order_relaxed))
      I = (I + 1) & S.Mask;
    S.At[I].store(N, std::memory_order_release);
  }

  /// Publishes a slot array twice the size of \p Old (or the initial
  /// one), holding the same nodes, and retires \p Old.
  Slots *grow(Slots *Old) {
    auto *New = new Slots(Old ? 2 * (Old->Mask + 1) : InitialSlots);
    if (Old)
      for (size_t I = 0; I <= Old->Mask; ++I)
        if (Node *N = Old->At[I].load(std::memory_order_relaxed))
          link(*New, N);
    Table.publish(New);
    return New;
  }

  epoch::Ptr<Slots> Table;
  std::atomic<size_t> Count{0};
};

/// %flashed_cache@1 : array<{path: string, body: string}>
struct CacheV1 {
  EpochTable<SharedBody> Entries;
};

/// One entry of %flashed_cache@2.  The body is fixed when the entry is
/// inserted; the statistics fields are relaxed atomics that a hit on the
/// lock-free serving path bumps in place on the shared entry.
struct CacheEntryV2 {
  CacheEntryV2(SharedBody Body, int64_t LastAccessMs)
      : Body(std::move(Body)), LastAccessMs(LastAccessMs) {}

  const SharedBody Body;
  mutable std::atomic<int64_t> Hits{0};
  mutable std::atomic<int64_t> LastAccessMs;

  int64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  int64_t lastAccessMs() const {
    return LastAccessMs.load(std::memory_order_relaxed);
  }
  void noteHit(int64_t NowMs) const {
    Hits.fetch_add(1, std::memory_order_relaxed);
    LastAccessMs.store(NowMs, std::memory_order_relaxed);
  }
};

/// %flashed_cache@2 :
///   array<{path: string, body: string, hits: int, last_ms: int}>
struct CacheV2 {
  EpochTable<CacheEntryV2> Entries;
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
