//===- trace/Profile.cpp - VTAL hot-function profiler ---------------------===//

#include "trace/Profile.h"

#include "support/Json.h"

#include <algorithm>

using namespace dsu;
using namespace dsu::trace;

ProfileRegistry &ProfileRegistry::instance() {
  static ProfileRegistry *R = new ProfileRegistry(); // leaked: see Recorder
  return *R;
}

namespace {

void addCounts(ProfileRegistry::Totals &T, const ModuleProfile &P) {
  for (size_t I = 0; I != P.size(); ++I) {
    const FnProfile &F = P.fn(I);
    T.Calls += F.Calls.load(std::memory_order_relaxed);
    T.Fuel += F.SelfFuel.load(std::memory_order_relaxed);
    T.Traps += F.Traps.load(std::memory_order_relaxed);
  }
}

} // namespace

std::shared_ptr<ModuleProfile>
ProfileRegistry::create(std::string PatchId, std::string ModuleName,
                        std::vector<std::string> FnNames) {
  auto *P = new ModuleProfile(std::move(PatchId), std::move(ModuleName),
                              std::move(FnNames));
  {
    std::lock_guard<std::mutex> L(Mu);
    Profiles.push_back(P);
  }
  return std::shared_ptr<ModuleProfile>(
      P, [this](ModuleProfile *Dead) { destroy(Dead); });
}

void ProfileRegistry::destroy(ModuleProfile *P) {
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = std::find(Profiles.begin(), Profiles.end(), P);
    // Absent after clearForTest(), which dropped its counts with it.
    if (It != Profiles.end()) {
      addCounts(Retired, *P);
      *It = Profiles.back();
      Profiles.pop_back();
    }
  }
  delete P;
}

size_t ProfileRegistry::liveProfiles(const std::string &PatchId) const {
  std::lock_guard<std::mutex> L(Mu);
  return static_cast<size_t>(
      std::count_if(Profiles.begin(), Profiles.end(),
                    [&](const ModuleProfile *P) {
                      return P->patchId() == PatchId;
                    }));
}

ProfileRegistry::Totals ProfileRegistry::totals() const {
  std::lock_guard<std::mutex> L(Mu);
  Totals T = Retired;
  for (const ModuleProfile *P : Profiles)
    addCounts(T, *P);
  return T;
}

std::vector<HotFn> ProfileRegistry::ranking(size_t K) const {
  std::vector<HotFn> Rows;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (const ModuleProfile *P : Profiles)
      for (size_t I = 0; I != P->size(); ++I) {
        const FnProfile &F = P->fn(I);
        HotFn R;
        R.Calls = F.Calls.load(std::memory_order_relaxed);
        if (R.Calls == 0)
          continue; // never executed: not a ranking candidate
        R.PatchId = P->patchId();
        R.Module = P->moduleName();
        R.Fn = P->fnName(I);
        R.SelfFuel = F.SelfFuel.load(std::memory_order_relaxed);
        R.Traps = F.Traps.load(std::memory_order_relaxed);
        R.SampledNs = F.SampledNs.load(std::memory_order_relaxed);
        R.Samples = F.Samples.load(std::memory_order_relaxed);
        R.Tier = F.Tier.load(std::memory_order_relaxed);
        Rows.push_back(std::move(R));
      }
  }
  std::sort(Rows.begin(), Rows.end(), [](const HotFn &A, const HotFn &B) {
    if (A.SelfFuel != B.SelfFuel)
      return A.SelfFuel > B.SelfFuel;
    if (A.Calls != B.Calls)
      return A.Calls > B.Calls;
    return A.Fn < B.Fn;
  });
  if (K && Rows.size() > K)
    Rows.resize(K);
  return Rows;
}

void ProfileRegistry::resetAll() {
  std::lock_guard<std::mutex> L(Mu);
  for (ModuleProfile *P : Profiles)
    P->reset();
  Retired = Totals();
}

void ProfileRegistry::clearForTest() {
  std::lock_guard<std::mutex> L(Mu);
  Profiles.clear();
  Retired = Totals();
}

std::string dsu::trace::profileJson(size_t K) {
  std::vector<HotFn> Rows = ProfileRegistry::instance().ranking(K);
  ProfileRegistry::Totals T = ProfileRegistry::instance().totals();
  std::string Out;
  JsonWriter W(Out);
  W.beginObject().key("total_calls").value(T.Calls);
  W.key("total_fuel").value(T.Fuel);
  W.key("total_traps").value(T.Traps);
  W.key("functions").beginArray();
  for (const HotFn &R : Rows) {
    W.beginObject().key("patch").value(R.PatchId);
    W.key("module").value(R.Module);
    W.key("fn").value(R.Fn);
    W.key("tier").value(R.Tier ? "native" : "interp");
    W.key("calls").value(R.Calls);
    W.key("self_fuel").value(R.SelfFuel);
    W.key("avg_fuel").value(R.Calls ? R.SelfFuel / R.Calls : 0);
    W.key("traps").value(R.Traps);
    W.key("sampled_us").value(R.SampledNs / 1e3, 3);
    W.key("samples").value(R.Samples);
    W.key("avg_sample_us")
        .value(R.Samples ? R.SampledNs / 1e3 / R.Samples : 0.0, 3);
    W.endObject();
  }
  W.endArray().endObject();
  return Out;
}
