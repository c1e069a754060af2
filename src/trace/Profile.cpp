//===- trace/Profile.cpp - VTAL hot-function profiler ---------------------===//

#include "trace/Profile.h"

#include "support/StringUtil.h"

#include <algorithm>

using namespace dsu;
using namespace dsu::trace;

ProfileRegistry &ProfileRegistry::instance() {
  static ProfileRegistry *R = new ProfileRegistry(); // leaked: see Recorder
  return *R;
}

std::shared_ptr<ModuleProfile>
ProfileRegistry::create(std::string PatchId, std::string ModuleName,
                        std::vector<std::string> FnNames) {
  auto P = std::make_shared<ModuleProfile>(
      std::move(PatchId), std::move(ModuleName), std::move(FnNames));
  std::lock_guard<std::mutex> L(Mu);
  Profiles.push_back(P);
  return P;
}

ProfileRegistry::Totals ProfileRegistry::totals() const {
  Totals T;
  std::lock_guard<std::mutex> L(Mu);
  for (const std::shared_ptr<ModuleProfile> &P : Profiles)
    for (size_t I = 0; I != P->size(); ++I) {
      const FnProfile &F = P->fn(I);
      T.Calls += F.Calls.load(std::memory_order_relaxed);
      T.Fuel += F.SelfFuel.load(std::memory_order_relaxed);
      T.Traps += F.Traps.load(std::memory_order_relaxed);
    }
  return T;
}

std::vector<HotFn> ProfileRegistry::ranking(size_t K) const {
  std::vector<HotFn> Rows;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (const std::shared_ptr<ModuleProfile> &P : Profiles)
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
        R.SampledUs = F.SampledUs.load(std::memory_order_relaxed);
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
  for (const std::shared_ptr<ModuleProfile> &P : Profiles)
    P->reset();
}

void ProfileRegistry::clearForTest() {
  std::lock_guard<std::mutex> L(Mu);
  Profiles.clear();
}

std::string dsu::trace::profileJson(size_t K) {
  std::vector<HotFn> Rows = ProfileRegistry::instance().ranking(K);
  ProfileRegistry::Totals T = ProfileRegistry::instance().totals();
  std::string Out = formatString(
      "{\"total_calls\":%llu,\"total_fuel\":%llu,\"total_traps\":%llu,"
      "\"functions\":[",
      static_cast<unsigned long long>(T.Calls),
      static_cast<unsigned long long>(T.Fuel),
      static_cast<unsigned long long>(T.Traps));
  for (size_t I = 0; I != Rows.size(); ++I) {
    const HotFn &R = Rows[I];
    if (I)
      Out += ',';
    Out += "{\"patch\":\"";
    jsonEscapeTo(Out, R.PatchId);
    Out += "\",\"module\":\"";
    jsonEscapeTo(Out, R.Module);
    Out += "\",\"fn\":\"";
    jsonEscapeTo(Out, R.Fn);
    uint64_t AvgFuel = R.Calls ? R.SelfFuel / R.Calls : 0;
    uint64_t AvgSampleUs = R.Samples ? R.SampledUs / R.Samples : 0;
    Out += formatString(
        "\",\"tier\":\"%s\",\"calls\":%llu,\"self_fuel\":%llu,"
        "\"avg_fuel\":%llu,\"traps\":%llu,\"sampled_us\":%llu,"
        "\"samples\":%llu,\"avg_sample_us\":%llu}",
        R.Tier ? "native" : "interp",
        static_cast<unsigned long long>(R.Calls),
        static_cast<unsigned long long>(R.SelfFuel),
        static_cast<unsigned long long>(AvgFuel),
        static_cast<unsigned long long>(R.Traps),
        static_cast<unsigned long long>(R.SampledUs),
        static_cast<unsigned long long>(R.Samples),
        static_cast<unsigned long long>(AvgSampleUs));
  }
  Out += "]}";
  return Out;
}
