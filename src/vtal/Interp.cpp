//===- vtal/Interp.cpp ----------------------------------------*- C++ -*-===//

#include "vtal/Interp.h"

#include "support/StringUtil.h"
#include "trace/Profile.h"
#include "trace/Trace.h"

#include <deque>

using namespace dsu;
using namespace dsu::vtal;

namespace {
constexpr unsigned MaxCallDepth = 256;

/// One activation record.  Locals live in the arena at
/// [Base, Base + NumLocals); the frame's operand stack is the arena
/// region above them, up to the next frame's Base (or the arena top for
/// the innermost frame).
struct Frame {
  uint32_t FnIndex;
  uint32_t PC;
  uint32_t Base;
};

/// The calling thread's execution state, shared by every interpreter
/// the thread runs.  Capacity persists across calls, so steady-state
/// execution performs no heap allocation.  A re-entrant activation (a
/// host function calling back into this or another interpreter) stacks
/// its frames and values above the outer one's.
struct ExecScratch {
  std::vector<Frame> Frames;
  std::vector<Value> Arena;

  /// Per-nesting-level argument buffers for host calls (deque: growing
  /// it never moves a level that an active host call still references).
  std::deque<std::vector<Value>> HostArgsPool;
  unsigned HostDepth = 0;

  uint64_t LastFuelUsed = 0;

  /// Checks out the argument buffer of the next host-call level.
  std::vector<Value> &pushHostArgs(size_t NumArgs) {
    if (HostDepth == HostArgsPool.size())
      HostArgsPool.emplace_back();
    std::vector<Value> &Args = HostArgsPool[HostDepth++];
    Args.resize(NumArgs);
    return Args;
  }
  void popHostArgs() { HostArgsPool[--HostDepth].clear(); }
};

thread_local ExecScratch Scratch;

/// Zero-initializes locals [From, NumLocals) of \p RF on the arena top.
void pushZeroLocals(std::vector<Value> &Arena, const ResolvedFunction &RF,
                    uint32_t From) {
  for (uint32_t L = From; L != RF.NumLocals; ++L) {
    switch (RF.LocalKinds[L]) {
    case ValKind::VK_Int:
      Arena.push_back(Value::makeInt(0));
      break;
    case ValKind::VK_Float:
      Arena.push_back(Value::makeFloat(0.0));
      break;
    case ValKind::VK_Bool:
      Arena.push_back(Value::makeBool(false));
      break;
    case ValKind::VK_Str:
      Arena.push_back(Value::emptyStr());
      break;
    case ValKind::VK_Unit:
      Arena.push_back(Value());
      break;
    }
  }
}
} // namespace

Interpreter::Interpreter(const Module &M, uint64_t Fuel)
    : M(M), FuelLimit(Fuel ? Fuel : DefaultFuel) {
  Expected<ResolvedModule> Linked = linkModule(M);
  if (Linked) {
    RM = std::move(*Linked);
  } else {
    // Defer: every call() reports the link failure instead of executing.
    // Unverified modules with dangling callee names land here — the
    // engine must reject them cleanly, never dereference them.
    LinkErr = Linked.takeError();
  }
  Imports.resize(M.Imports.size());
}

Error Interpreter::bindImport(const std::string &Name, HostFn Fn) {
  uint32_t Ordinal = M.importIndex(Name);
  if (Ordinal == UINT32_MAX)
    return Error::make(ErrorCode::EC_Link,
                       "module '%s' declares no import named '%s'",
                       M.Name.c_str(), Name.c_str());
  Imports[Ordinal] = std::move(Fn);
  return Error::success();
}

Expected<uint32_t>
Interpreter::functionIndex(const std::string &FnName) const {
  uint32_t Idx = M.functionIndex(FnName);
  if (Idx == UINT32_MAX)
    return Error::make(ErrorCode::EC_Invalid, "no function '%s' in '%s'",
                       FnName.c_str(), M.Name.c_str());
  return Idx;
}

Expected<Value> Interpreter::call(const std::string &FnName,
                                  const std::vector<Value> &Args) const {
  uint32_t Idx = M.functionIndex(FnName);
  if (Idx == UINT32_MAX)
    return Error::make(ErrorCode::EC_Invalid, "no function '%s' in '%s'",
                       FnName.c_str(), M.Name.c_str());
  return callIndex(Idx, Args);
}

Expected<Value> Interpreter::callIndex(uint32_t FnIndex,
                                       const std::vector<Value> &Args) const {
  if (FnIndex >= M.Functions.size())
    return Error::make(ErrorCode::EC_Invalid,
                       "function index %u out of range in '%s'", FnIndex,
                       M.Name.c_str());
  const Function &F = M.Functions[FnIndex];
  if (Args.size() != F.Sig.Params.size())
    return Error::make(ErrorCode::EC_Invalid,
                       "call to '%s': expected %zu arguments, got %zu",
                       F.Name.c_str(), F.Sig.Params.size(), Args.size());
  for (size_t I = 0; I != Args.size(); ++I)
    if (Args[I].kind() != F.Sig.Params[I])
      return Error::make(ErrorCode::EC_Invalid,
                         "call to '%s': argument %zu has kind %s, want %s",
                         F.Name.c_str(), I, valKindName(Args[I].kind()),
                         valKindName(F.Sig.Params[I]));
  if (LinkErr)
    return LinkErr;

  // Sampled activation wall time, in ns on the recorder's timebase:
  // every SampleEvery-th entry into a function through this public
  // boundary is timed (nested CallFn activations are not — the fuel
  // counters carry the self-cost split).
  const bool Sampled =
      Prof && (Prof->fn(FnIndex).Calls.load(std::memory_order_relaxed) %
               trace::ModuleProfile::SampleEvery) == 0;
  const uint64_t SampleT0 = Sampled ? trace::Recorder::instance().nowNs() : 0;

  uint64_t Fuel = FuelLimit;
  Expected<Value> Result = run(FnIndex, Args, Fuel);
  Scratch.LastFuelUsed = FuelLimit - Fuel;

  if (Prof) {
    trace::FnProfile &FP = Prof->fn(FnIndex);
    if (!Result)
      FP.Traps.fetch_add(1, std::memory_order_relaxed);
    if (Sampled) {
      FP.SampledNs.fetch_add(trace::Recorder::instance().nowNs() - SampleT0,
                             std::memory_order_relaxed);
      FP.Samples.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Result;
}

uint64_t Interpreter::lastFuelUsed() const { return Scratch.LastFuelUsed; }

Expected<Value> Interpreter::run(uint32_t FnIndex,
                                 const std::vector<Value> &Args,
                                 uint64_t &Fuel) const {
  // Entry frame: arguments become locals [0, N); the remaining locals are
  // zero-initialized at their declared kind.
  const ResolvedFunction &RF = RM.Functions[FnIndex];
  ExecScratch &S = Scratch;
  uint32_t Base = static_cast<uint32_t>(S.Arena.size());
  S.Frames.push_back(Frame{FnIndex, 0, Base});
  for (const Value &A : Args)
    S.Arena.push_back(A);
  pushZeroLocals(S.Arena, RF, static_cast<uint32_t>(Args.size()));
  return exec(Fuel);
}

Expected<Value> Interpreter::exec(uint64_t &Fuel) const {
  // The caller pushed exactly one frame (plus its locals); this
  // activation owns everything above it, and restores both vectors on
  // every exit path, so errors and re-entrant activations cannot leak
  // frames or values.
  ExecScratch &S = Scratch;
  std::vector<Frame> &Frames = S.Frames;
  std::vector<Value> &Arena = S.Arena;
  const size_t FrameBase = Frames.size() - 1;
  const size_t ArenaBase = Frames.back().Base;
  struct ActivationGuard {
    std::vector<Frame> &Frames;
    std::vector<Value> &Arena;
    size_t FrameBase, ArenaBase;
    ~ActivationGuard() {
      Frames.resize(FrameBase);
      Arena.resize(ArenaBase);
    }
  } ActG{Frames, Arena, FrameBase, ArenaBase};

  const ResolvedFunction *const Fns = RM.Functions.data();

  uint32_t FnIndex = Frames.back().FnIndex;
  const ResolvedFunction *F = &Fns[FnIndex];
  uint32_t Base = Frames.back().Base;
  uint32_t PC = Frames.back().PC;

  // Self-fuel attribution: ProfMark - Fuel is what the *current*
  // function burned since it last gained control; the delta is flushed
  // to its counter at every control transfer (CallFn, Ret) and, via the
  // guard, on every exit path including traps.  The per-instruction
  // dispatch loop itself is untouched.
  trace::ModuleProfile *const P = Prof;
  uint32_t ProfFn = FnIndex;
  uint64_t ProfMark = Fuel;
  struct ProfFlushGuard {
    trace::ModuleProfile *P;
    uint32_t *Fn;
    uint64_t *Mark;
    uint64_t *Fuel;
    ~ProfFlushGuard() {
      if (P)
        P->fn(*Fn).SelfFuel.fetch_add(*Mark - *Fuel,
                                      std::memory_order_relaxed);
    }
  } ProfG{P, &ProfFn, &ProfMark, &Fuel};
  if (P)
    P->fn(FnIndex).Calls.fetch_add(1, std::memory_order_relaxed);

  auto popV = [&Arena]() {
    Value V = std::move(Arena.back());
    Arena.pop_back();
    return V;
  };

  while (true) {
    if (Fuel == 0)
      return Error::make(ErrorCode::EC_Invalid,
                         "fuel exhausted in '%s' (infinite loop in patch "
                         "code?)",
                         F->Src->Name.c_str());
    --Fuel;
    assert(PC < F->Code.size() && "pc out of range; module not verified?");
    const ResolvedInst &I = F->Code[PC];

    switch (I.Op) {
    case Opcode::PushI:
      Arena.push_back(Value::makeInt(I.IntOp));
      break;
    case Opcode::PushF:
      Arena.push_back(Value::makeFloat(I.FloatOp));
      break;
    case Opcode::PushB:
      Arena.push_back(Value::makeBool(I.IntOp != 0));
      break;
    case Opcode::PushS:
      Arena.push_back(RM.StrPool[I.Index]);
      break;

    case Opcode::Load:
      Arena.push_back(Arena[Base + I.Index]);
      break;
    case Opcode::Store:
      Arena[Base + I.Index] = std::move(Arena.back());
      Arena.pop_back();
      break;
    case Opcode::Pop:
      Arena.pop_back();
      break;
    case Opcode::Dup:
      Arena.push_back(Arena.back());
      break;

#define INT_BINOP(OPC, EXPR)                                                 \
  case Opcode::OPC: {                                                        \
    int64_t B = Arena.back().asInt();                                        \
    Arena.pop_back();                                                        \
    int64_t A = Arena.back().asInt();                                        \
    (void)A;                                                                 \
    (void)B;                                                                 \
    Arena.back() = EXPR;                                                     \
    break;                                                                   \
  }
      INT_BINOP(Add, Value::makeInt(static_cast<int64_t>(
                         static_cast<uint64_t>(A) + static_cast<uint64_t>(B))))
      INT_BINOP(Sub, Value::makeInt(static_cast<int64_t>(
                         static_cast<uint64_t>(A) - static_cast<uint64_t>(B))))
      INT_BINOP(Mul, Value::makeInt(static_cast<int64_t>(
                         static_cast<uint64_t>(A) * static_cast<uint64_t>(B))))
      INT_BINOP(Eq, Value::makeBool(A == B))
      INT_BINOP(Ne, Value::makeBool(A != B))
      INT_BINOP(Lt, Value::makeBool(A < B))
      INT_BINOP(Le, Value::makeBool(A <= B))
      INT_BINOP(Gt, Value::makeBool(A > B))
      INT_BINOP(Ge, Value::makeBool(A >= B))
#undef INT_BINOP

    case Opcode::Div:
    case Opcode::Rem: {
      int64_t B = Arena.back().asInt();
      Arena.pop_back();
      int64_t A = Arena.back().asInt();
      if (B == 0)
        return Error::make(ErrorCode::EC_Invalid,
                           "division by zero in '%s' at pc %u",
                           F->Src->Name.c_str(), PC);
      if (A == INT64_MIN && B == -1)
        return Error::make(ErrorCode::EC_Invalid,
                           "integer overflow in division in '%s' at pc %u",
                           F->Src->Name.c_str(), PC);
      Arena.back() = Value::makeInt(I.Op == Opcode::Div ? A / B : A % B);
      break;
    }
    case Opcode::Neg: {
      int64_t A = Arena.back().asInt();
      Arena.back() =
          Value::makeInt(static_cast<int64_t>(-static_cast<uint64_t>(A)));
      break;
    }

#define FLT_BINOP(OPC, EXPR)                                                 \
  case Opcode::OPC: {                                                        \
    double B = Arena.back().asFloat();                                       \
    Arena.pop_back();                                                        \
    double A = Arena.back().asFloat();                                       \
    (void)A;                                                                 \
    (void)B;                                                                 \
    Arena.back() = EXPR;                                                     \
    break;                                                                   \
  }
      FLT_BINOP(FAdd, Value::makeFloat(A + B))
      FLT_BINOP(FSub, Value::makeFloat(A - B))
      FLT_BINOP(FMul, Value::makeFloat(A * B))
      FLT_BINOP(FDiv, Value::makeFloat(A / B))
      FLT_BINOP(FEq, Value::makeBool(A == B))
      FLT_BINOP(FNe, Value::makeBool(A != B))
      FLT_BINOP(FLt, Value::makeBool(A < B))
      FLT_BINOP(FLe, Value::makeBool(A <= B))
      FLT_BINOP(FGt, Value::makeBool(A > B))
      FLT_BINOP(FGe, Value::makeBool(A >= B))
#undef FLT_BINOP

    case Opcode::FNeg:
      Arena.back() = Value::makeFloat(-Arena.back().asFloat());
      break;

    case Opcode::And: {
      bool B = Arena.back().asBool();
      Arena.pop_back();
      bool A = Arena.back().asBool();
      Arena.back() = Value::makeBool(A && B);
      break;
    }
    case Opcode::Or: {
      bool B = Arena.back().asBool();
      Arena.pop_back();
      bool A = Arena.back().asBool();
      Arena.back() = Value::makeBool(A || B);
      break;
    }
    case Opcode::Not:
      Arena.back() = Value::makeBool(!Arena.back().asBool());
      break;

    case Opcode::I2F:
      Arena.back() =
          Value::makeFloat(static_cast<double>(Arena.back().asInt()));
      break;
    case Opcode::F2I:
      Arena.back() =
          Value::makeInt(static_cast<int64_t>(Arena.back().asFloat()));
      break;

    case Opcode::SCat: {
      Value B = popV();
      Value A = popV();
      Arena.push_back(Value::makeStr(A.asStr() + B.asStr()));
      break;
    }
    case Opcode::SLen: {
      int64_t N = static_cast<int64_t>(Arena.back().asStr().size());
      Arena.back() = Value::makeInt(N);
      break;
    }
    case Opcode::SEq: {
      Value B = popV();
      Value A = popV();
      Arena.push_back(Value::makeBool(A.asStr() == B.asStr()));
      break;
    }
    case Opcode::SSub: {
      int64_t Len = popV().asInt();
      int64_t Start = popV().asInt();
      Value S = popV();
      const std::string &Str = S.asStr();
      // Clamped semantics: out-of-range slices yield the empty overlap
      // instead of trapping, so patch code stays total on string ops.
      int64_t N = static_cast<int64_t>(Str.size());
      if (Start < 0)
        Start = 0;
      if (Start > N)
        Start = N;
      if (Len < 0)
        Len = 0;
      if (Start + Len > N)
        Len = N - Start;
      Arena.push_back(Value::makeStr(
          Str.substr(static_cast<size_t>(Start), static_cast<size_t>(Len))));
      break;
    }
    case Opcode::SFind: {
      Value Needle = popV();
      Value Hay = popV();
      size_t Pos = Hay.asStr().find(Needle.asStr());
      Arena.push_back(Value::makeInt(
          Pos == std::string::npos ? -1 : static_cast<int64_t>(Pos)));
      break;
    }

    case Opcode::Br:
      PC = I.Index;
      continue;
    case Opcode::BrIf:
      if (popV().asBool()) {
        PC = I.Index;
        continue;
      }
      break;

    case Opcode::Ret: {
      bool HasResult = F->Result != ValKind::VK_Unit;
      if (Frames.size() == FrameBase + 1) {
        // Top of this activation: hand the result to the caller.
        if (!HasResult)
          return Value::makeUnit();
        return popV();
      }
      Value Result;
      if (HasResult)
        Result = popV();
      Arena.resize(Base);
      Frames.pop_back();
      const Frame &Caller = Frames.back();
      if (P) {
        P->fn(ProfFn).SelfFuel.fetch_add(ProfMark - Fuel,
                                         std::memory_order_relaxed);
        ProfFn = Caller.FnIndex;
        ProfMark = Fuel;
      }
      F = &Fns[Caller.FnIndex];
      Base = Caller.Base;
      PC = Caller.PC;
      if (HasResult)
        Arena.push_back(std::move(Result));
      break; // resumes at the instruction after the call
    }

    case Opcode::CallFn: {
      if (Frames.size() - FrameBase > MaxCallDepth)
        return Error::make(ErrorCode::EC_Invalid,
                           "call depth limit exceeded in '%s'",
                           Fns[I.Index].Src->Name.c_str());
      const ResolvedFunction &Callee = Fns[I.Index];
      // The top NumParams arena values ARE the callee's parameter locals:
      // no argument copying, the frame starts beneath them.
      uint32_t NewBase =
          static_cast<uint32_t>(Arena.size()) - Callee.NumParams;
      Frames.back().PC = PC;
      Frames.push_back(Frame{I.Index, 0, NewBase});
      pushZeroLocals(Arena, Callee, Callee.NumParams);
      if (P) {
        P->fn(ProfFn).SelfFuel.fetch_add(ProfMark - Fuel,
                                         std::memory_order_relaxed);
        ProfFn = I.Index;
        ProfMark = Fuel;
        P->fn(I.Index).Calls.fetch_add(1, std::memory_order_relaxed);
      }
      F = &Callee;
      Base = NewBase;
      PC = 0;
      continue;
    }

    case Opcode::CallHost: {
      const Import &Imp = M.Imports[I.Index];
      const HostFn &Host = Imports[I.Index];
      if (!Host)
        return Error::make(ErrorCode::EC_Link,
                           "import '%s' was never bound", Imp.Name.c_str());
      size_t NumArgs = Imp.Sig.Params.size();
      std::vector<Value> &CallArgs = S.pushHostArgs(NumArgs);
      for (size_t A = NumArgs; A-- > 0;) {
        CallArgs[A] = std::move(Arena.back());
        Arena.pop_back();
      }
      Expected<Value> Result = Host(CallArgs);
      S.popHostArgs();
      if (Result && Result->kind() != Imp.Sig.Result)
        return Error::make(ErrorCode::EC_Link,
                           "host import '%s' returned %s, expected %s",
                           Imp.Name.c_str(), valKindName(Result->kind()),
                           valKindName(Imp.Sig.Result));
      if (!Result)
        return Result;
      if (Imp.Sig.Result != ValKind::VK_Unit)
        Arena.push_back(std::move(*Result));
      break;
    }

    case Opcode::Call:
      // linkModule rewrites every Call; reaching one means the image was
      // built outside the link pass.
      return Error::make(ErrorCode::EC_Link,
                         "unresolved call in '%s' at pc %u",
                         F->Src->Name.c_str(), PC);
    }
    ++PC;
  }
}
