//===- trace/Profile.h - VTAL hot-function profiler ------------*- C++ -*-===//
///
/// \file
/// Per-function execution counters for VTAL code: call count, cumulative
/// *self* fuel (the interpreter's deterministic cost unit, attributed to
/// the function actually burning it, not its callees), trap count, and
/// sampled activation wall time in ns.  The interpreter bumps relaxed
/// atomics at call boundaries only — the per-instruction dispatch loop
/// is untouched.
///
/// One ModuleProfile is created per loaded VTAL patch instance and
/// attached to the one interpreter executing that module; a global
/// ProfileRegistry aggregates the live ones for the `/admin/profile`
/// hot-function ranking and the `dsu_vtal_{calls,fuel,traps}_total`
/// metrics.  A profile dies with its instance, once the instance's
/// last binding leaves the rollback window; its counts fold into the
/// registry's retired totals, so the metrics stay monotone.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_TRACE_PROFILE_H
#define DSU_TRACE_PROFILE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dsu {
namespace trace {

/// Counters for one VTAL function.  All relaxed; a scrape may tear
/// across fields (same contract as every other DSU metric).
struct FnProfile {
  std::atomic<uint64_t> Calls{0};     ///< activations (entry + CallFn)
  std::atomic<uint64_t> SelfFuel{0};  ///< fuel burned in this function
  std::atomic<uint64_t> Traps{0};     ///< activations that trapped
  std::atomic<uint64_t> SampledNs{0}; ///< wall time of sampled activations
  std::atomic<uint64_t> Samples{0};   ///< how many activations were timed

  void reset() {
    Calls.store(0, std::memory_order_relaxed);
    SelfFuel.store(0, std::memory_order_relaxed);
    Traps.store(0, std::memory_order_relaxed);
    SampledNs.store(0, std::memory_order_relaxed);
    Samples.store(0, std::memory_order_relaxed);
  }
};

/// The profile of one loaded module version (one patch instance).
/// Function slots are indexed by the module's resolved function index —
/// the same index the interpreter dispatches on, so the hot-path lookup
/// is one array index.
class ModuleProfile {
public:
  /// Time every 64th activation of a function (two recorder clock
  /// reads; the ranking needs a wall-time *estimate*, not a census).
  static constexpr uint64_t SampleEvery = 64;

  ModuleProfile(std::string PatchId, std::string ModuleName,
                std::vector<std::string> FnNames)
      : PatchIdStr(std::move(PatchId)), ModuleNameStr(std::move(ModuleName)),
        FnNames(std::move(FnNames)),
        Fns(std::make_unique<FnProfile[]>(this->FnNames.size())) {}

  const std::string &patchId() const { return PatchIdStr; }
  const std::string &moduleName() const { return ModuleNameStr; }
  size_t size() const { return FnNames.size(); }
  const std::string &fnName(size_t I) const { return FnNames[I]; }

  FnProfile &fn(size_t I) { return Fns[I]; }
  const FnProfile &fn(size_t I) const { return Fns[I]; }

  void reset() {
    for (size_t I = 0; I != FnNames.size(); ++I)
      Fns[I].reset();
  }

private:
  const std::string PatchIdStr;
  const std::string ModuleNameStr;
  const std::vector<std::string> FnNames;
  std::unique_ptr<FnProfile[]> Fns;
};

/// One row of the hot-function ranking.
struct HotFn {
  std::string PatchId;
  std::string Module;
  std::string Fn;
  uint64_t Calls = 0;
  uint64_t SelfFuel = 0;
  uint64_t Traps = 0;
  uint64_t SampledNs = 0;
  uint64_t Samples = 0;
};

/// Process-wide registry of live module profiles.  The ranking covers
/// every loaded version still resident, the serving one and the
/// rollback target — "did the old version burn more fuel than the new
/// one" is exactly the canary question.  A profile unregisters itself
/// when the last owner of the returned pointer drops it.
class ProfileRegistry {
public:
  static ProfileRegistry &instance();

  /// Creates and registers a profile for one loaded module version.
  std::shared_ptr<ModuleProfile> create(std::string PatchId,
                                        std::string ModuleName,
                                        std::vector<std::string> FnNames);

  /// Registered profiles of patch \p PatchId (introspection and tests).
  size_t liveProfiles(const std::string &PatchId) const;

  /// Fleet totals for the dsu_vtal_*_total metrics: the live profiles'
  /// counts plus those folded in from dead ones.
  struct Totals {
    uint64_t Calls = 0;
    uint64_t Fuel = 0;
    uint64_t Traps = 0;
  };
  Totals totals() const;

  /// Top-\p K functions by self-fuel (then calls).  K==0 means all.
  std::vector<HotFn> ranking(size_t K) const;

  /// Zeros every counter in every registered profile and the retired
  /// totals (`?reset=1`).
  void resetAll();

  /// Unregisters every profile and zeros the retired totals (test
  /// isolation only).
  void clearForTest();

private:
  /// The deleter of every pointer create() hands out.
  void destroy(ModuleProfile *P);

  mutable std::mutex Mu;
  std::vector<ModuleProfile *> Profiles;
  Totals Retired;
};

/// The `GET /admin/profile` document: `{…, "functions": [{…}, …]}`,
/// ranked hottest-first, at most \p K rows (0 = all).
std::string profileJson(size_t K);

} // namespace trace
} // namespace dsu

#endif // DSU_TRACE_PROFILE_H
