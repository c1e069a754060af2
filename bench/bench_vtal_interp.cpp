//===- bench/bench_vtal_interp.cpp - Experiment E8 ------------*- C++ -*-===//
///
/// E8: steady-state execution throughput of the VTAL engine — the cost a
/// VTAL-shipped handler pays per request once the patch is linked.  The
/// PLDI 2001 position is that updateability must be near-free in steady
/// state; for patch code executed by the interpreter that means the inner
/// loop may not do name lookups or per-call heap allocation.  DESIGN.md §5
/// documents the resolved execution form these workloads exercise.
///
/// Rows:
///   CallTree        call-heavy: binary recursion, ~2 calls per 10 insts
///   CallChain       call-heavy: a loop of direct calls through 8 callees
///   HostCalls       import dispatch: tight loop crossing into a host fn
///   ArithLoop       straight-line arithmetic (no calls; dispatch floor)
///   StringOps       handler-shaped string slicing and search
///
/// The *Profiled rows rerun the call-heavy and dispatch-floor workloads
/// with a trace::ModuleProfile attached — the flight recorder's
/// hot-function profiler — so the per-call-boundary overhead is the
/// delta against the matching base row.  The base rows themselves carry
/// the unattached hook cost (one null check per call boundary); DESIGN.md
/// §16 records it.
///
/// The *Native rows rerun the call-heavy and dispatch-floor workloads
/// through the baseline compiler (vtal/native/), and the *StaticC rows
/// are the same algorithms as ahead-of-time C++ called through a
/// function pointer (the binding indirection every updateable call pays
/// anyway) — together the interp : native : static-C ladder of DESIGN.md
/// §17.  `bench_vtal_interp --json [--out F | --merge F]` emits that
/// ladder as machine-readable rows (BENCH_vtal.json via the bench-json
/// target) instead of running Google Benchmark.
///
//===----------------------------------------------------------------------===//

#include "support/MemoryBuffer.h"
#include "support/StringUtil.h"
#include "trace/Profile.h"
#include "vtal/Assembler.h"
#include "vtal/Interp.h"
#include "vtal/Verifier.h"
#ifndef DSU_VTAL_NO_NATIVE
#include "vtal/native/NativeImage.h"
#endif

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>

using namespace dsu;
using namespace dsu::vtal;

namespace {

Module mustModule(const std::string &Src) {
  Module M = cantFail(assemble(Src), "bench module");
  cantFail(verifyModule(M), "bench module verify");
  return M;
}

/// Attaches a registry-backed profile to \p I covering \p M's functions.
std::shared_ptr<trace::ModuleProfile> attachProfile(Interpreter &I,
                                                    const Module &M) {
  std::vector<std::string> Names;
  for (const Function &F : M.Functions)
    Names.push_back(F.Name);
  std::shared_ptr<trace::ModuleProfile> P =
      trace::ProfileRegistry::instance().create("bench", M.Name,
                                                std::move(Names));
  I.setProfile(P.get());
  return P;
}

// Binary recursion: fib — the densest VTAL-to-VTAL call workload.
Module callTreeModule() {
  return mustModule(R"(
module calltree
func fib (n: int) -> int {
  load n
  push.i 2
  lt
  brif base
  load n
  push.i 1
  sub
  call fib
  load n
  push.i 2
  sub
  call fib
  add
  ret
base:
  load n
  ret
}
)");
}

void BM_CallTree(benchmark::State &State) {
  Module M = callTreeModule();
  Interpreter I(M);
  std::vector<Value> Args{Value::makeInt(State.range(0))};
  uint64_t Fuel = 0;
  for (auto _ : State) {
    Expected<Value> R = I.call("fib", Args);
    if (!R)
      State.SkipWithError(R.error().str().c_str());
    benchmark::DoNotOptimize(R->asInt());
    Fuel = I.lastFuelUsed();
  }
  State.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(Fuel), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CallTree)->Arg(15)->Arg(20);

// The same binary recursion with the hot-function profiler attached:
// the worst case for the profiler, ~2 call boundaries per 10
// instructions, each paying the relaxed-atomic bumps.
void BM_CallTreeProfiled(benchmark::State &State) {
  Module M = callTreeModule();
  Interpreter I(M);
  std::shared_ptr<trace::ModuleProfile> P = attachProfile(I, M);
  std::vector<Value> Args{Value::makeInt(State.range(0))};
  uint64_t Fuel = 0;
  for (auto _ : State) {
    Expected<Value> R = I.call("fib", Args);
    if (!R)
      State.SkipWithError(R.error().str().c_str());
    benchmark::DoNotOptimize(R->asInt());
    Fuel = I.lastFuelUsed();
  }
  State.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(Fuel), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CallTreeProfiled)->Arg(15)->Arg(20);

// A loop whose body calls through a chain of small functions, the shape
// of handler code factored into helpers.
Module callChainModule(unsigned Depth) {
  std::string Src = "module callchain\n";
  Src += "func leaf (x: int) -> int {\n  load x\n  push.i 1\n  add\n  ret\n}\n";
  std::string Prev = "leaf";
  for (unsigned D = 0; D != Depth; ++D) {
    std::string Name = formatString("hop_%u", D);
    Src += formatString(
        "func %s (x: int) -> int {\n  load x\n  call %s\n  ret\n}\n",
        Name.c_str(), Prev.c_str());
    Prev = Name;
  }
  Src += formatString(R"(
func drive (n: int) -> int {
  locals (acc: int, i: int)
  push.i 0
  store acc
  push.i 0
  store i
loop:
  load i
  load n
  ge
  brif done
  load acc
  call %s
  store acc
  load i
  push.i 1
  add
  store i
  br loop
done:
  load acc
  ret
}
)",
                      Prev.c_str());
  return mustModule(Src);
}

void BM_CallChain(benchmark::State &State) {
  Module M = callChainModule(8);
  Interpreter I(M);
  std::vector<Value> Args{Value::makeInt(State.range(0))};
  uint64_t Fuel = 0;
  for (auto _ : State) {
    Expected<Value> R = I.call("drive", Args);
    if (!R)
      State.SkipWithError(R.error().str().c_str());
    benchmark::DoNotOptimize(R->asInt());
    Fuel = I.lastFuelUsed();
  }
  State.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(Fuel), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CallChain)->Arg(1000);

void BM_CallChainProfiled(benchmark::State &State) {
  Module M = callChainModule(8);
  Interpreter I(M);
  std::shared_ptr<trace::ModuleProfile> P = attachProfile(I, M);
  std::vector<Value> Args{Value::makeInt(State.range(0))};
  uint64_t Fuel = 0;
  for (auto _ : State) {
    Expected<Value> R = I.call("drive", Args);
    if (!R)
      State.SkipWithError(R.error().str().c_str());
    benchmark::DoNotOptimize(R->asInt());
    Fuel = I.lastFuelUsed();
  }
  State.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(Fuel), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CallChainProfiled)->Arg(1000);

// Import dispatch: the handler-to-host boundary in a tight loop.
void BM_HostCalls(benchmark::State &State) {
  Module M = mustModule(R"(
module hostloop
import bump : (int) -> int
func drive (n: int) -> int {
  locals (acc: int, i: int)
  push.i 0
  store acc
  push.i 0
  store i
loop:
  load i
  load n
  ge
  brif done
  load acc
  call bump
  store acc
  load i
  push.i 1
  add
  store i
  br loop
done:
  load acc
  ret
}
)");
  Interpreter I(M);
  cantFail(I.bindImport("bump",
                        [](const std::vector<Value> &A) -> Expected<Value> {
                          return Value::makeInt(A[0].asInt() + 1);
                        }),
           "bind bump");
  std::vector<Value> Args{Value::makeInt(State.range(0))};
  for (auto _ : State) {
    Expected<Value> R = I.call("drive", Args);
    if (!R)
      State.SkipWithError(R.error().str().c_str());
    benchmark::DoNotOptimize(R->asInt());
  }
  State.counters["hostcalls/s"] = benchmark::Counter(
      static_cast<double>(State.range(0)),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_HostCalls)->Arg(1000);

// Straight-line arithmetic loop: the dispatch floor, no calls at all.
Module arithModule() {
  return mustModule(R"(
module arith
func sum (n: int) -> int {
  locals (acc: int, i: int)
  push.i 0
  store acc
  push.i 0
  store i
loop:
  load i
  load n
  ge
  brif done
  load acc
  load i
  load i
  mul
  add
  store acc
  load i
  push.i 1
  add
  store i
  br loop
done:
  load acc
  ret
}
)");
}

void BM_ArithLoop(benchmark::State &State) {
  Module M = arithModule();
  Interpreter I(M);
  std::vector<Value> Args{Value::makeInt(State.range(0))};
  uint64_t Fuel = 0;
  for (auto _ : State) {
    Expected<Value> R = I.call("sum", Args);
    if (!R)
      State.SkipWithError(R.error().str().c_str());
    benchmark::DoNotOptimize(R->asInt());
    Fuel = I.lastFuelUsed();
  }
  State.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(Fuel), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ArithLoop)->Arg(10000);

// Dispatch floor with the profiler attached: one activation per 10k
// instructions, so the hooks should be invisible here — this row pins
// down that the per-instruction loop really is untouched.
void BM_ArithLoopProfiled(benchmark::State &State) {
  Module M = arithModule();
  Interpreter I(M);
  std::shared_ptr<trace::ModuleProfile> P = attachProfile(I, M);
  std::vector<Value> Args{Value::makeInt(State.range(0))};
  uint64_t Fuel = 0;
  for (auto _ : State) {
    Expected<Value> R = I.call("sum", Args);
    if (!R)
      State.SkipWithError(R.error().str().c_str());
    benchmark::DoNotOptimize(R->asInt());
    Fuel = I.lastFuelUsed();
  }
  State.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(Fuel), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ArithLoopProfiled)->Arg(10000);

#ifndef DSU_VTAL_NO_NATIVE
/// Attaches a fully compiled image to \p I; aborts if \p Fn did not
/// actually compile (a bench row must never silently measure the wrong
/// tier).
void attachNative(Interpreter &I, const char *Fn) {
  auto Img = native::NativeImage::compile(I.resolved());
  if (!Img) {
    std::fprintf(stderr, "native compile failed: %s\n",
                 Img.error().str().c_str());
    std::abort();
  }
  uint32_t Idx = cantFail(I.functionIndex(Fn), "bench fn index");
  if (!(*Img)->compiled(Idx)) {
    std::fprintf(stderr, "bench fn '%s' did not compile natively\n", Fn);
    std::abort();
  }
  I.setNativeImage(*Img);
}

void BM_CallTreeNative(benchmark::State &State) {
  Module M = callTreeModule();
  Interpreter I(M);
  attachNative(I, "fib");
  std::vector<Value> Args{Value::makeInt(State.range(0))};
  uint64_t Fuel = 0;
  for (auto _ : State) {
    Expected<Value> R = I.call("fib", Args);
    if (!R)
      State.SkipWithError(R.error().str().c_str());
    benchmark::DoNotOptimize(R->asInt());
    Fuel = I.lastFuelUsed();
  }
  State.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(Fuel), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CallTreeNative)->Arg(15)->Arg(20);

void BM_CallChainNative(benchmark::State &State) {
  Module M = callChainModule(8);
  Interpreter I(M);
  attachNative(I, "drive");
  std::vector<Value> Args{Value::makeInt(State.range(0))};
  uint64_t Fuel = 0;
  for (auto _ : State) {
    Expected<Value> R = I.call("drive", Args);
    if (!R)
      State.SkipWithError(R.error().str().c_str());
    benchmark::DoNotOptimize(R->asInt());
    Fuel = I.lastFuelUsed();
  }
  State.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(Fuel), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CallChainNative)->Arg(1000);

void BM_ArithLoopNative(benchmark::State &State) {
  Module M = arithModule();
  Interpreter I(M);
  attachNative(I, "sum");
  std::vector<Value> Args{Value::makeInt(State.range(0))};
  uint64_t Fuel = 0;
  for (auto _ : State) {
    Expected<Value> R = I.call("sum", Args);
    if (!R)
      State.SkipWithError(R.error().str().c_str());
    benchmark::DoNotOptimize(R->asInt());
    Fuel = I.lastFuelUsed();
  }
  State.counters["insts/s"] = benchmark::Counter(
      static_cast<double>(Fuel), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ArithLoopNative)->Arg(10000);
#endif // DSU_VTAL_NO_NATIVE

// The ahead-of-time ceiling: the same algorithms as -O2 C++, called
// through a function pointer so the comparison includes the one
// indirection every updateable call pays (E1's result: that cost is the
// price of updateability itself, not of the execution tier).
__attribute__((noinline)) int64_t fibC(int64_t N) {
  return N < 2 ? N : fibC(N - 1) + fibC(N - 2);
}
__attribute__((noinline)) int64_t sumC(int64_t N) {
  int64_t Acc = 0;
  for (int64_t I = 0; I < N; ++I)
    Acc += I * I;
  return Acc;
}
int64_t (*volatile FibCPtr)(int64_t) = &fibC;
int64_t (*volatile SumCPtr)(int64_t) = &sumC;

void BM_CallTreeStaticC(benchmark::State &State) {
  int64_t N = State.range(0);
  for (auto _ : State)
    benchmark::DoNotOptimize(FibCPtr(N));
}
BENCHMARK(BM_CallTreeStaticC)->Arg(15)->Arg(20);

void BM_ArithLoopStaticC(benchmark::State &State) {
  int64_t N = State.range(0);
  for (auto _ : State)
    benchmark::DoNotOptimize(SumCPtr(N));
}
BENCHMARK(BM_ArithLoopStaticC)->Arg(10000);

// Handler-shaped string work: strip a query string per "request".
void BM_StringOps(benchmark::State &State) {
  Module M = mustModule(R"(
module strops
func strip_query (target: string) -> string {
  locals (q: int)
  load target
  push.s "?"
  sfind
  store q
  load q
  push.i 0
  lt
  brif noquery
  load target
  push.i 0
  load q
  ssub
  ret
noquery:
  load target
  ret
}
)");
  Interpreter I(M);
  std::vector<Value> Args{Value::makeStr("/docs/index.html?session=abc123")};
  for (auto _ : State) {
    Expected<Value> R = I.call("strip_query", Args);
    if (!R)
      State.SkipWithError(R.error().str().c_str());
    benchmark::DoNotOptimize(R->asStr().size());
  }
}
BENCHMARK(BM_StringOps);

//===----------------------------------------------------------------------===//
// --json mode: the interp / native / static-C ladder as data
//===----------------------------------------------------------------------===//

/// Median-of-iterations nanoseconds per call of \p Fn (self-calibrating:
/// grows the batch until one batch spans >= 20ms).
template <typename F> double nsPerCall(F &&Fn) {
  Fn(); // warmup / first-touch
  uint64_t Iters = 1;
  for (;;) {
    auto T0 = std::chrono::steady_clock::now();
    for (uint64_t I = 0; I != Iters; ++I)
      Fn();
    double Ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
    if (Ns >= 2e7 || Iters >= (1u << 24))
      return Ns / static_cast<double>(Iters);
    Iters *= 4;
  }
}

struct TierRow {
  const char *Workload;
  uint64_t Insts = 0;      ///< fuel per call (size of one workload run)
  double InterpNs = 0;
  double NativeNs = 0;     ///< 0 when the tier is compiled out
  double StaticNs = 0;
};

/// One workload through all three tiers.  \p Fn / \p Arg name the VTAL
/// entry; \p CFn is the ahead-of-time twin.
TierRow runLadder(const char *Workload, Module M, const char *Fn,
                  int64_t Arg, int64_t (*volatile &CFn)(int64_t)) {
  TierRow Row;
  Row.Workload = Workload;
  std::vector<Value> Args{Value::makeInt(Arg)};
  {
    Interpreter I(M);
    Row.InterpNs = nsPerCall([&] {
      benchmark::DoNotOptimize(cantFail(I.call(Fn, Args), Fn).asInt());
    });
    Row.Insts = I.lastFuelUsed();
  }
#ifndef DSU_VTAL_NO_NATIVE
  {
    Interpreter I(M);
    attachNative(I, Fn);
    Row.NativeNs = nsPerCall([&] {
      benchmark::DoNotOptimize(cantFail(I.call(Fn, Args), Fn).asInt());
    });
  }
#endif
  Row.StaticNs = nsPerCall([&] { benchmark::DoNotOptimize(CFn(Arg)); });
  return Row;
}

int runJson(const char *OutPath, const char *MergePath) {
  std::vector<TierRow> Rows;
  Rows.push_back(
      runLadder("fib20", callTreeModule(), "fib", 20, FibCPtr));
  Rows.push_back(
      runLadder("arith10k", arithModule(), "sum", 10000, SumCPtr));

  auto appendRows = [&](std::string &J) {
    bool First = true;
    for (const TierRow &R : Rows) {
      char Buf[512];
      double NvI = R.NativeNs > 0 ? R.InterpNs / R.NativeNs : 0.0;
      double NvC = R.StaticNs > 0 && R.NativeNs > 0
                       ? R.NativeNs / R.StaticNs
                       : 0.0;
      std::snprintf(
          Buf, sizeof(Buf),
          "%s\n    {\"workload\": \"%s\", \"insts\": %llu, "
          "\"interp_ns\": %.1f, \"native_ns\": %.1f, "
          "\"static_c_ns\": %.1f, \"native_speedup_vs_interp\": %.2f, "
          "\"native_slowdown_vs_static_c\": %.2f}",
          First ? "" : ",", R.Workload,
          static_cast<unsigned long long>(R.Insts), R.InterpNs, R.NativeNs,
          R.StaticNs, NvI, NvC);
      J += Buf;
      First = false;
    }
  };

  if (MergePath) {
    Expected<std::string> Existing = readFile(MergePath);
    if (!Existing) {
      std::fprintf(stderr, "cannot merge into %s: %s\n", MergePath,
                   Existing.error().str().c_str());
      return 1;
    }
    size_t Close = Existing->rfind('}');
    if (Close == std::string::npos) {
      std::fprintf(stderr, "cannot merge into %s: not a JSON object\n",
                   MergePath);
      return 1;
    }
    std::string Merged = Existing->substr(0, Close);
    while (!Merged.empty() &&
           (Merged.back() == '\n' || Merged.back() == ' '))
      Merged.pop_back();
    Merged += ",\n  \"vtal_tiers\": [";
    appendRows(Merged);
    Merged += "\n  ]\n}\n";
    if (Error E = writeFile(MergePath, Merged)) {
      std::fprintf(stderr, "cannot write %s: %s\n", MergePath,
                   E.str().c_str());
      return 1;
    }
    return 0;
  }

  std::string J = "{\n  \"bench\": \"vtal_tiers\",\n  \"native_tier\": ";
#ifdef DSU_VTAL_NO_NATIVE
  J += "false";
#else
  J += "true";
#endif
  J += ",\n  \"vtal_tiers\": [";
  appendRows(J);
  J += "\n  ]\n}\n";

  if (OutPath) {
    if (Error E = writeFile(OutPath, J)) {
      std::fprintf(stderr, "cannot write %s: %s\n", OutPath,
                   E.str().c_str());
      return 1;
    }
  } else {
    std::fprintf(stdout, "%s", J.c_str());
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  const char *OutPath = nullptr;
  const char *MergePath = nullptr;
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc)
      OutPath = argv[++I];
    else if (std::strcmp(argv[I], "--merge") == 0 && I + 1 < argc)
      MergePath = argv[++I];
  }
  if (Json)
    return runJson(OutPath, MergePath);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
