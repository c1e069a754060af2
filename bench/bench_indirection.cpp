//===- bench/bench_indirection.cpp - Experiment E1 ------------*- C++ -*-===//
///
/// E1: the steady-state cost of being updateable — the price of calling
/// through the rebindable indirection instead of a direct call.  The
/// PLDI 2001 paper reports this overhead as negligible on the macro
/// benchmark; this microbenchmark isolates it, and ablates the design
/// choice called out in DESIGN.md §7 (atomic slot vs. a mutex-guarded
/// strawman).
///
/// Rows:
///   direct            plain C++ call (the non-updateable baseline)
///   updateable        Updateable<Sig> with activation tracking (default)
///   untracked         indirection only (isolates tracking cost)
///   mutex_strawman    take a lock per call (the design we did not pick)
///   std_function      type-erased std::function (common C++ alternative)
///
//===----------------------------------------------------------------------===//

#include "runtime/Updateable.h"

#include <benchmark/benchmark.h>

#include <functional>
#include <mutex>
#include <string_view>
#include <vector>

using namespace dsu;

namespace {

int64_t work(int64_t A, int64_t B) { return A * 31 + B; }

SharedStr strWork(SharedStr S) {
  std::string R = S;
  R += 'x';
  return R;
}

struct Env {
  TypeContext Ctx;
  UpdateableRegistry Reg;
  Updateable<int64_t(int64_t, int64_t)> Work;
  Updateable<SharedStr(SharedStr)> StrWork;

  Env() {
    Work = cantFail(defineUpdateable(Reg, Ctx, "bench.work", &work));
    StrWork =
        cantFail(defineUpdateable(Reg, Ctx, "bench.strwork", &strWork));
  }
};

Env &env() {
  static Env E;
  return E;
}

void BM_DirectCall(benchmark::State &State) {
  int64_t Acc = 0;
  for (auto _ : State) {
    Acc = work(Acc, 7);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_DirectCall);

void BM_DirectCallViaPointer(benchmark::State &State) {
  // Defeats inlining: the honest "compiled direct call" baseline.
  auto Fn = &work;
  benchmark::DoNotOptimize(Fn);
  int64_t Acc = 0;
  for (auto _ : State) {
    Acc = Fn(Acc, 7);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_DirectCallViaPointer);

void BM_Updateable(benchmark::State &State) {
  auto &H = env().Work;
  int64_t Acc = 0;
  for (auto _ : State) {
    Acc = H(Acc, 7);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_Updateable);

void BM_UpdateableUntracked(benchmark::State &State) {
  auto &H = env().Work;
  int64_t Acc = 0;
  for (auto _ : State) {
    Acc = H.callUntracked(Acc, 7);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_UpdateableUntracked);

void BM_MutexStrawman(benchmark::State &State) {
  // The ablation: what per-call locking would have cost.
  static std::mutex Lock;
  static int64_t (*Fn)(int64_t, int64_t) = &work;
  int64_t Acc = 0;
  for (auto _ : State) {
    std::lock_guard<std::mutex> G(Lock);
    Acc = Fn(Acc, 7);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_MutexStrawman);

void BM_StdFunction(benchmark::State &State) {
  static std::function<int64_t(int64_t, int64_t)> Fn = &work;
  benchmark::DoNotOptimize(Fn);
  int64_t Acc = 0;
  for (auto _ : State) {
    Acc = Fn(Acc, 7);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_StdFunction);

// String-typed rows: the FlashEd pipeline's realistic payload shape,
// where argument marshalling dominates and indirection disappears.
void BM_DirectCallString(benchmark::State &State) {
  auto Fn = &strWork;
  benchmark::DoNotOptimize(Fn);
  for (auto _ : State) {
    SharedStr R = Fn("GET /doc.html");
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_DirectCallString);

void BM_UpdateableString(benchmark::State &State) {
  auto &H = env().StrWork;
  for (auto _ : State) {
    SharedStr R = H("GET /doc.html");
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_UpdateableString);

} // namespace

// BENCHMARK_MAIN(), plus a --json convenience flag that maps to Google
// Benchmark's JSON reporter so CI can collect machine-readable results
// with the same flag every bench binary understands.
int main(int argc, char **argv) {
  static char JsonFlag[] = "--benchmark_format=json";
  std::vector<char *> Args(argv, argv + argc);
  for (char *&A : Args)
    if (std::string_view(A) == "--json")
      A = JsonFlag;
  int Argc = static_cast<int>(Args.size());
  ::benchmark::Initialize(&Argc, Args.data());
  if (::benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  // Updateables serve on reactor workers, where the epoch guard each
  // call takes is a thread-local load; run the rows on one.
  epoch::WorkerReg Worker;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
