//===- vtal/native/NativeGen.cpp - VTAL baseline code generator -----------===//
///
/// \file
/// The load-time baseline compiler: one pass of abstract interpretation
/// over a function's resolved code (mirroring the verifier's stack-kind
/// analysis) followed by one pass of x86-64 emission through X64Emitter.
/// No register allocation — every VTAL frame slot (locals, then operand
/// stack at its statically known depth) is a fixed [rsp+8*i] machine-stack
/// slot, and each instruction is a short load/op/store burst through
/// RAX/RCX/RDX or XMM0.  What the scheme buys is the removal of the
/// interpreter's dispatch, tag and arena traffic, which is where the
/// 6-8x interpreter of DESIGN.md §5 spends nearly everything.
///
/// Frame layout (prologue establishes; K = 8*NumSlots rounded so the
/// frame keeps 16-byte call alignment):
///
///     push rbp; mov rbp, rsp
///     push rbx                  ; rbx = NativeCtx* for the whole body
///     sub  rsp, K
///     [rsp + 8*i]       local i            (i < NumLocals)
///     [rsp + 8*(NL+j)]  operand stack j    (depth known per pc)
///
/// Fuel is paid per *segment* (see NativeImage.h); every deopt check
/// jumps to a per-(site, reason) stub that packs its identity into ESI
/// and funnels into one per-function sequence calling dsuVtalNativeDeopt
/// with RDX = the frame slots (= rsp).  The helper materializes the frame
/// into the interpreter via Interpreter::resumeAt and the interpreter
/// finishes the activation — native code never resumes a deopted frame,
/// which is what keeps the protocol small enough to trust.
///
//===----------------------------------------------------------------------===//

#include "vtal/Interp.h"
#include "vtal/native/NativeImage.h"
#include "vtal/native/RawValue.h"
#include "vtal/native/X64Emitter.h"

#include "epoch/Epoch.h"
#include "trace/Profile.h"

#include <cstring>

#include <sys/mman.h>

using namespace dsu;
using namespace dsu::vtal;
using namespace dsu::vtal::native;

// The jitted code addresses Fuel/Depth/TrapPending at fixed offsets from
// RBX; a drifting NativeCtx layout must fail the build, not corrupt fuel.
static_assert(offsetof(NativeCtx, Fuel) == 0, "NativeCtx ABI: Fuel at 0");
static_assert(offsetof(NativeCtx, Depth) == 8, "NativeCtx ABI: Depth at 8");
static_assert(offsetof(NativeCtx, TrapPending) == 12,
              "NativeCtx ABI: TrapPending at 12");

namespace {
constexpr unsigned MaxCallDepth = 256;   // must equal Interp.cpp's limit
constexpr uint32_t MaxFrameSlots = 4096; // 32KB of machine stack per frame
constexpr uint32_t ReasonShift = 28;     // deopt request: site | reason<<28
} // namespace

//===----------------------------------------------------------------------===//
// Runtime helpers called from jitted code
//===----------------------------------------------------------------------===//

extern "C" {

/// Deoptimization funnel: \p Packed is SiteId | (DeoptReason << 28), and
/// \p FrameSlots is the native frame base (locals then operand stack).
/// Hands the frame to the interpreter, which finishes the activation and
/// produces the ground-truth result, trap, and fuel.
uint64_t dsuVtalNativeDeopt(NativeCtx *Ctx, uint32_t Packed,
                            const uint64_t *FrameSlots) {
  NativeStats &S = NativeStats::instance();
  S.Deopts.fetch_add(1, std::memory_order_relaxed);
  uint32_t Reason = Packed >> ReasonShift;
  if (Reason < static_cast<uint32_t>(DeoptReason::NumReasons))
    S.DeoptsByReason[Reason].fetch_add(1, std::memory_order_relaxed);
  const DeoptSite &Site = Ctx->Image->site(Packed & ((1u << ReasonShift) - 1));
  Expected<Value> R = Ctx->Interp->resumeAt(
      Site.FnIndex, Site.PC, FrameSlots, Site.StackKinds.data(),
      static_cast<uint32_t>(Site.StackKinds.size()), Ctx->Fuel,
      /*DepthBias=*/Ctx->Depth - 1);
  if (!R) {
    Ctx->Err = R.takeError();
    Ctx->TrapPending = 1;
    return 0;
  }
  return valueToRaw(*R);
}

/// Mixed-tier CallFn: the callee is representable but not compiled into
/// the image (its analysis failed or its frame exceeds MaxFrameSlots), so
/// it runs interpreted and returns its raw result to the native caller
/// (which stays native — no deopt cliff for calling it).
uint64_t dsuVtalNativeCallBridge(NativeCtx *Ctx, uint32_t FnIndex,
                                 const uint64_t *Args) {
  NativeStats::instance().BridgeCalls.fetch_add(1, std::memory_order_relaxed);
  Expected<Value> R = Ctx->Interp->callRaw(FnIndex, Args, Ctx->Fuel,
                                           /*DepthBias=*/Ctx->Depth - 1);
  if (!R) {
    Ctx->Err = R.takeError();
    Ctx->TrapPending = 1;
    return 0;
  }
  return valueToRaw(*R);
}

/// CallHost from native code: same bind/kind checks and error messages as
/// the interpreter's CallHost, via Interpreter::callHostRaw.
uint64_t dsuVtalNativeCallHost(NativeCtx *Ctx, uint32_t Ordinal,
                               const uint64_t *Args) {
  uint64_t Raw = 0;
  if (Error E = Ctx->Interp->callHostRaw(Ordinal, Args, Raw)) {
    Ctx->Err = std::move(E);
    Ctx->TrapPending = 1;
    return 0;
  }
  return Raw;
}

} // extern "C"

//===----------------------------------------------------------------------===//
// Analysis: per-pc stack kinds, reachability, fuel segments
//===----------------------------------------------------------------------===//

namespace {

/// How one resolved instruction is emitted.
enum class PcClass : uint8_t {
  Plain,  ///< inline code, cost folded into the enclosing segment
  DivRem, ///< segment head with divide trap checks
  Call,   ///< segment head with the CallFn protocol
  Host,   ///< segment head with the CallHost protocol
  Unsup,  ///< unconditional deopt (PushS, string-result calls, ...)
};

struct PcState {
  bool Reachable = false;
  bool HasStr = false;  ///< a string is on the entry stack: native-unreachable
  bool SegHead = false;
  uint32_t SegCost = 0; ///< instructions this segment pays for (heads only)
  PcClass Class = PcClass::Plain;
  std::vector<ValKind> Stack; ///< operand-stack kinds on entry
};

struct FnAnalysis {
  std::vector<PcState> Pc;
  uint32_t MaxDepth = 0; ///< max operand-stack entry depth over all pcs
};

/// Stack effect + successor flow for the abstract pass.  Returns false on
/// any inconsistency (only reachable for modules that skipped the
/// verifier) — the caller then leaves the function interpreted.
bool abstractPass(const ResolvedModule &RM, const ResolvedFunction &F,
                  FnAnalysis &A) {
  const size_t N = F.Code.size();
  A.Pc.assign(N, PcState());
  std::vector<uint32_t> Work;

  auto flowTo = [&](uint32_t PC, const std::vector<ValKind> &Stack) {
    if (PC >= N)
      return false;
    PcState &S = A.Pc[PC];
    if (!S.Reachable) {
      S.Reachable = true;
      S.Stack = Stack;
      Work.push_back(PC);
      return true;
    }
    return S.Stack == Stack; // verifier's join rule: exact agreement
  };

  if (!flowTo(0, {}))
    return false;

  while (!Work.empty()) {
    uint32_t PC = Work.back();
    Work.pop_back();
    std::vector<ValKind> St = A.Pc[PC].Stack;
    const ResolvedInst &I = F.Code[PC];

    auto pop = [&](size_t K) {
      if (St.size() < K)
        return false;
      St.resize(St.size() - K);
      return true;
    };
    auto push = [&](ValKind K) { St.push_back(K); };

    bool Fall = true; // flow to PC+1 with the post-instruction stack
    switch (I.Op) {
    case Opcode::PushI:
      push(ValKind::VK_Int);
      break;
    case Opcode::PushF:
      push(ValKind::VK_Float);
      break;
    case Opcode::PushB:
      push(ValKind::VK_Bool);
      break;
    case Opcode::PushS:
      push(ValKind::VK_Str);
      break;
    case Opcode::Load:
      if (I.Index >= F.NumLocals)
        return false;
      push(F.LocalKinds[I.Index]);
      break;
    case Opcode::Store:
    case Opcode::Pop:
      if (!pop(1))
        return false;
      break;
    case Opcode::Dup:
      if (St.empty())
        return false;
      push(St.back());
      break;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
      if (!pop(2))
        return false;
      push(ValKind::VK_Int);
      break;
    case Opcode::Neg:
      if (!pop(1))
        return false;
      push(ValKind::VK_Int);
      break;
    case Opcode::Eq:
    case Opcode::Ne:
    case Opcode::Lt:
    case Opcode::Le:
    case Opcode::Gt:
    case Opcode::Ge:
    case Opcode::And:
    case Opcode::Or:
      if (!pop(2))
        return false;
      push(ValKind::VK_Bool);
      break;
    case Opcode::Not:
      if (!pop(1))
        return false;
      push(ValKind::VK_Bool);
      break;
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
      if (!pop(2))
        return false;
      push(ValKind::VK_Float);
      break;
    case Opcode::FNeg:
      if (!pop(1))
        return false;
      push(ValKind::VK_Float);
      break;
    case Opcode::FEq:
    case Opcode::FNe:
    case Opcode::FLt:
    case Opcode::FLe:
    case Opcode::FGt:
    case Opcode::FGe:
      if (!pop(2))
        return false;
      push(ValKind::VK_Bool);
      break;
    case Opcode::I2F:
      if (!pop(1))
        return false;
      push(ValKind::VK_Float);
      break;
    case Opcode::F2I:
      if (!pop(1))
        return false;
      push(ValKind::VK_Int);
      break;
    case Opcode::SCat:
      if (!pop(2))
        return false;
      push(ValKind::VK_Str);
      break;
    case Opcode::SLen:
      if (!pop(1))
        return false;
      push(ValKind::VK_Int);
      break;
    case Opcode::SEq:
      if (!pop(2))
        return false;
      push(ValKind::VK_Bool);
      break;
    case Opcode::SSub:
      if (!pop(3))
        return false;
      push(ValKind::VK_Str);
      break;
    case Opcode::SFind:
      if (!pop(2))
        return false;
      push(ValKind::VK_Int);
      break;
    case Opcode::Br:
      if (!flowTo(I.Index, St))
        return false;
      Fall = false;
      break;
    case Opcode::BrIf:
      if (!pop(1))
        return false;
      if (!flowTo(I.Index, St))
        return false;
      break;
    case Opcode::Ret:
      Fall = false;
      break;
    case Opcode::CallFn: {
      if (I.Index >= RM.Functions.size())
        return false;
      const ResolvedFunction &Callee = RM.Functions[I.Index];
      if (!pop(Callee.NumParams))
        return false;
      if (Callee.Result != ValKind::VK_Unit)
        push(Callee.Result);
      break;
    }
    case Opcode::CallHost: {
      if (!RM.Src || I.Index >= RM.Src->Imports.size())
        return false;
      const Signature &Sig = RM.Src->Imports[I.Index].Sig;
      if (!pop(Sig.Params.size()))
        return false;
      if (Sig.Result != ValKind::VK_Unit)
        push(Sig.Result);
      break;
    }
    case Opcode::Call:
      return false; // unresolved call: not execution form
    }
    if (Fall && !flowTo(PC + 1, St))
      return false;
  }

  // Classification + string poisoning + segment heads.
  for (uint32_t PC = 0; PC != N; ++PC) {
    PcState &S = A.Pc[PC];
    if (!S.Reachable)
      continue;
    if (S.Stack.size() > A.MaxDepth)
      A.MaxDepth = static_cast<uint32_t>(S.Stack.size());
    for (ValKind K : S.Stack)
      if (K == ValKind::VK_Str)
        S.HasStr = true;
    if (S.HasStr)
      continue; // native-unreachable; emitted as ud2
    const ResolvedInst &I = F.Code[PC];
    switch (I.Op) {
    case Opcode::Div:
    case Opcode::Rem:
      S.Class = PcClass::DivRem;
      break;
    case Opcode::CallFn: {
      const ResolvedFunction &Callee = RM.Functions[I.Index];
      bool StrParam = false;
      for (uint32_t P = 0; P != Callee.NumParams; ++P)
        StrParam |= Callee.LocalKinds[P] == ValKind::VK_Str;
      S.Class = (StrParam || Callee.Result == ValKind::VK_Str ||
                 Callee.NumParams > NativeImage::MaxParams)
                    ? PcClass::Unsup
                    : PcClass::Call;
      break;
    }
    case Opcode::CallHost: {
      const Signature &Sig = RM.Src->Imports[I.Index].Sig;
      bool StrParam = false;
      for (ValKind K : Sig.Params)
        StrParam |= K == ValKind::VK_Str;
      S.Class = (StrParam || Sig.Result == ValKind::VK_Str ||
                 Sig.Params.size() > NativeImage::MaxParams)
                    ? PcClass::Unsup
                    : PcClass::Host;
      break;
    }
    case Opcode::PushS:
    case Opcode::SCat:
    case Opcode::SLen:
    case Opcode::SEq:
    case Opcode::SSub:
    case Opcode::SFind:
    case Opcode::Call:
      S.Class = PcClass::Unsup;
      break;
    default:
      S.Class = PcClass::Plain;
      break;
    }
  }

  // Segment heads: entry, branch targets, fall-throughs after control
  // transfers, every deopt-capable instruction, and the continuation
  // after each call (the callee burned an unknown amount of fuel).
  auto markHead = [&](uint32_t PC) {
    if (PC < N && A.Pc[PC].Reachable && !A.Pc[PC].HasStr)
      A.Pc[PC].SegHead = true;
  };
  markHead(0);
  for (uint32_t PC = 0; PC != N; ++PC) {
    PcState &S = A.Pc[PC];
    if (!S.Reachable || S.HasStr)
      continue;
    const ResolvedInst &I = F.Code[PC];
    switch (S.Class) {
    case PcClass::DivRem:
    case PcClass::Call:
    case PcClass::Host:
    case PcClass::Unsup:
      S.SegHead = true;
      break;
    case PcClass::Plain:
      break;
    }
    if (S.Class == PcClass::Call || S.Class == PcClass::Host)
      markHead(PC + 1);
    if (I.Op == Opcode::Br || I.Op == Opcode::BrIf)
      markHead(I.Index);
    if (I.Op == Opcode::BrIf)
      markHead(PC + 1);
  }

  // Segment costs: a head pays for the straight run of instructions from
  // itself up to (excluding) the next head, stopping after any control
  // transfer.  Call/Host/Unsup heads are special: calls pay exactly their
  // own instruction (the continuation is its own head), unsupported pcs
  // pay nothing (the interpreter re-executes from the deopt site).
  for (uint32_t PC = 0; PC != N; ++PC) {
    PcState &S = A.Pc[PC];
    if (!S.SegHead)
      continue;
    if (S.Class == PcClass::Unsup) {
      S.SegCost = 0;
      continue;
    }
    if (S.Class == PcClass::Call || S.Class == PcClass::Host) {
      S.SegCost = 1;
      continue;
    }
    uint32_t Cost = 0;
    for (uint32_t Q = PC; Q < N; ++Q) {
      const PcState &QS = A.Pc[Q];
      if (Q != PC && (QS.SegHead || !QS.Reachable || QS.HasStr))
        break;
      ++Cost;
      Opcode Op = F.Code[Q].Op;
      if (Op == Opcode::Br || Op == Opcode::BrIf || Op == Opcode::Ret)
        break;
    }
    S.SegCost = Cost;
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Emission
//===----------------------------------------------------------------------===//

namespace {

struct CallFixup {
  size_t At;       ///< rel32 position in the image buffer
  uint32_t Callee; ///< resolved function index
};

/// Emits one function.  \p Compiling is the final compile set (analysis
/// already succeeded for every member), so CallFn sites know statically
/// whether the callee gets a direct rel32 call or the interpreter bridge.
void emitFunction(const ResolvedModule &RM, uint32_t FnIndex,
                  const FnAnalysis &A, const std::vector<bool> &Compiling,
                  X64Emitter &E, std::vector<NativeImage::FnInfo> &Fns,
                  std::vector<DeoptSite> &Sites,
                  std::vector<CallFixup> &Calls) {
  const ResolvedFunction &F = RM.Functions[FnIndex];
  const uint32_t NL = F.NumLocals;
  const size_t N = F.Code.size();

  // Frame: NL locals + the deepest operand stack, one headroom slot for
  // the in-flight push; K keeps RSP 16-byte aligned at call sites.
  const uint32_t NumSlots = NL + A.MaxDepth + 1;
  int32_t K = static_cast<int32_t>(8 * NumSlots);
  if (K % 16 == 0)
    K += 8;

  auto SL = [&](uint32_t Local) { return static_cast<int32_t>(8 * Local); };
  auto SS = [&](size_t Depth) {
    return static_cast<int32_t>(8 * (NL + Depth));
  };

  // Deopt sites are created lazily per pc; stubs lazily per (site,
  // reason).  All jcc/jmp fixups into stubs/epilogue resolve at the end.
  std::vector<uint32_t> SiteOfPc(N, UINT32_MAX);
  auto siteId = [&](uint32_t PC) {
    if (SiteOfPc[PC] == UINT32_MAX) {
      SiteOfPc[PC] = static_cast<uint32_t>(Sites.size());
      DeoptSite S;
      S.FnIndex = FnIndex;
      S.PC = PC;
      S.StackKinds = A.Pc[PC].Stack;
      Sites.push_back(std::move(S));
    }
    return SiteOfPc[PC];
  };
  struct StubRef {
    uint32_t Packed;
    std::vector<size_t> Jumps; ///< rel32 fixups targeting this stub
  };
  std::vector<StubRef> Stubs;
  auto toStub = [&](size_t FixAt, uint32_t PC, DeoptReason R) {
    uint32_t Packed =
        siteId(PC) | (static_cast<uint32_t>(R) << ReasonShift);
    for (StubRef &S : Stubs)
      if (S.Packed == Packed) {
        S.Jumps.push_back(FixAt);
        return;
      }
    Stubs.push_back(StubRef{Packed, {FixAt}});
  };
  std::vector<size_t> EpilogueJumps; ///< rel32 fixups to the epilogue
  struct BranchFixup {
    size_t At;
    uint32_t TargetPc;
  };
  std::vector<BranchFixup> Branches;
  std::vector<size_t> PcOff(N, 0);

  const size_t Entry = E.pos();

  // Prologue: ctx into rbx, arguments into the first NumParams slots,
  // remaining locals zeroed (kind-faithful: raw zero is int 0, float 0.0,
  // false, and unit alike).
  E.pushR(RBP);
  E.movRR(RBP, RSP);
  E.pushR(RBX);
  E.subRspI(K);
  E.movRR(RBX, RDI);
  for (uint32_t P = 0; P != F.NumParams; ++P) {
    E.movRM(RAX, RSI, static_cast<int32_t>(8 * P));
    E.movMR(RSP, SL(P), RAX);
  }
  if (NL > F.NumParams) {
    E.zeroRax();
    for (uint32_t L = F.NumParams; L != NL; ++L)
      E.movMR(RSP, SL(L), RAX);
  }

  // Emission-time top-of-stack cache: when true, RAX holds the value of
  // operand-stack slot SS(depth-1) and the memory slot is stale.  The
  // invariant maintained below is that the cache is empty at every
  // segment head and after every control transfer, so deopt stubs and
  // branch targets always see a fully materialized frame.
  bool TosCached = false;

  for (uint32_t PC = 0; PC != N; ++PC) {
    PcOff[PC] = E.pos();
    const PcState &S = A.Pc[PC];
    if (!S.Reachable || S.HasStr) {
      // Never reached from native code (unreachable, or the verifier's
      // join rule proves only string-bearing frames arrive here — those
      // activations deopted at the instruction that pushed the string).
      E.ud2();
      TosCached = false;
      continue;
    }
    const ResolvedInst &I = F.Code[PC];
    const size_t D = S.Stack.size();

    // Top-of-stack cache: inside a straight segment the logical stack
    // top may live in RAX instead of its frame slot, eliding the
    // store/reload pair between adjacent instructions.  Every segment
    // head is a potential deopt point (fuel, traps, calls) whose stub
    // materializes the frame from memory — and every branch target is a
    // segment head — so the invariant is simply: the cache is empty at
    // every segment head.  Flush here, before the fuel check, so the
    // fuel stub sees a complete frame.
    if (S.SegHead && TosCached) {
      E.movMR(RSP, SS(D - 1), RAX);
      TosCached = false;
    }

    // Segment head: the fuel protocol.  The check runs before anything is
    // paid, so a deopt always hands the interpreter the exact fuel it
    // would have held on arriving at this pc.
    if (S.SegHead) {
      switch (S.Class) {
      case PcClass::Plain:
      case PcClass::DivRem:
        E.cmpMI(RBX, 0, static_cast<int32_t>(S.SegCost));
        toStub(E.jcc(CC_B), PC, DeoptReason::Fuel);
        if (S.Class == PcClass::Plain)
          E.subMI(RBX, 0, static_cast<int32_t>(S.SegCost));
        break;
      case PcClass::Call:
      case PcClass::Host:
        E.cmpMI(RBX, 0, 1);
        toStub(E.jcc(CC_B), PC, DeoptReason::Fuel);
        break;
      case PcClass::Unsup:
        break;
      }
    }

    switch (S.Class) {
    case PcClass::Unsup:
      // The interpreter executes this instruction — and the rest of the
      // activation — with untouched fuel.
      toStub(E.jmp(), PC, DeoptReason::Unsupported);
      continue;

    case PcClass::DivRem: {
      // Divide trap checks fire before the segment's fuel is paid: the
      // interpreter re-executes the Div/Rem and raises the identical
      // "division by zero in '%s' at pc %u" / overflow message.
      E.movRM(RCX, RSP, SS(D - 1)); // divisor
      E.testRR(RCX, RCX);
      toStub(E.jcc(CC_E), PC, DeoptReason::DivTrap);
      E.movRM(RAX, RSP, SS(D - 2)); // dividend
      E.aluRI(7, RCX, -1);          // cmp rcx, -1
      size_t NoOvf = E.jcc(CC_NE);
      E.movRI(RDX, static_cast<uint64_t>(INT64_MIN));
      E.aluRR(0x3B, RAX, RDX); // cmp rax, rdx
      toStub(E.jcc(CC_E), PC, DeoptReason::DivTrap);
      E.fix(NoOvf, E.pos());
      E.subMI(RBX, 0, static_cast<int32_t>(S.SegCost));
      E.cqo();
      E.idivM(RSP, SS(D - 1));
      E.movMR(RSP, SS(D - 2), I.Op == Opcode::Div ? RAX : RDX);
      break;
    }

    case PcClass::Call: {
      const ResolvedFunction &Callee = RM.Functions[I.Index];
      const uint32_t NP = Callee.NumParams;
      // Depth check mirrors the interpreter's (frames-including-current
      // vs. the shared limit) and, like every deopt, fires before the
      // CallFn's own fuel is paid.
      E.cmpMI32(RBX, 8, static_cast<int32_t>(MaxCallDepth));
      toStub(E.jcc(CC_A), PC, DeoptReason::Depth);
      E.subMI(RBX, 0, 1);
      E.incM32(RBX, 8);
      if (Compiling[I.Index]) {
        E.movRR(RDI, RBX);
        E.leaRM(RSI, RSP, SS(D - NP));
        Calls.push_back(CallFixup{E.call(), I.Index});
      } else {
        E.movRR(RDI, RBX);
        E.movRI(RSI, I.Index);
        E.leaRM(RDX, RSP, SS(D - NP));
        E.movRI(RAX, reinterpret_cast<uint64_t>(&dsuVtalNativeCallBridge));
        E.callR(RAX);
      }
      E.decM32(RBX, 8);
      E.cmpMI32(RBX, 12, 0);
      EpilogueJumps.push_back(E.jcc(CC_NE));
      if (Callee.Result != ValKind::VK_Unit)
        E.movMR(RSP, SS(D - NP), RAX);
      break;
    }

    case PcClass::Host: {
      const Signature &Sig = RM.Src->Imports[I.Index].Sig;
      const size_t NP = Sig.Params.size();
      E.subMI(RBX, 0, 1);
      E.movRR(RDI, RBX);
      E.movRI(RSI, I.Index);
      E.leaRM(RDX, RSP, SS(D - NP));
      E.movRI(RAX, reinterpret_cast<uint64_t>(&dsuVtalNativeCallHost));
      E.callR(RAX);
      E.cmpMI32(RBX, 12, 0);
      EpilogueJumps.push_back(E.jcc(CC_NE));
      if (Sig.Result != ValKind::VK_Unit)
        E.movMR(RSP, SS(D - NP), RAX);
      break;
    }

    case PcClass::Plain:
      switch (I.Op) {
      case Opcode::PushI:
      case Opcode::PushF:
      case Opcode::PushB: {
        uint64_t Bits;
        if (I.Op == Opcode::PushF)
          std::memcpy(&Bits, &I.FloatOp, sizeof(Bits));
        else if (I.Op == Opcode::PushI)
          Bits = static_cast<uint64_t>(I.IntOp);
        else
          Bits = I.IntOp != 0 ? 1 : 0;
        if (TosCached)
          E.movMR(RSP, SS(D - 1), RAX);
        E.movRI(RAX, Bits);
        TosCached = true;
        break;
      }
      case Opcode::Load:
        if (TosCached)
          E.movMR(RSP, SS(D - 1), RAX);
        E.movRM(RAX, RSP, SL(I.Index));
        TosCached = true;
        break;
      case Opcode::Store:
        if (!TosCached)
          E.movRM(RAX, RSP, SS(D - 1));
        E.movMR(RSP, SL(I.Index), RAX);
        TosCached = false;
        break;
      case Opcode::Pop:
        TosCached = false;
        break;
      case Opcode::Dup:
        // Materialize the lower copy; the upper copy stays cached.
        if (TosCached)
          E.movMR(RSP, SS(D - 1), RAX);
        else
          E.movRM(RAX, RSP, SS(D - 1));
        TosCached = true;
        break;

      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::And:
      case Opcode::Or: {
        uint8_t Opc = I.Op == Opcode::Add   ? 0x03
                      : I.Op == Opcode::Sub ? 0x2B
                      : I.Op == Opcode::And ? 0x23
                      : I.Op == Opcode::Or  ? 0x0B
                                            : 0;
        if (TosCached && I.Op == Opcode::Sub) {
          // Non-commutative: the cached rhs moves aside, lhs loads from
          // memory.
          E.movRR(RCX, RAX);
          E.movRM(RAX, RSP, SS(D - 2));
          E.aluRR(0x2B, RAX, RCX); // sub rax, rcx
        } else if (TosCached) {
          if (I.Op == Opcode::Mul)
            E.imulRM(RAX, RSP, SS(D - 2));
          else
            E.aluRM(Opc, RAX, RSP, SS(D - 2));
        } else {
          E.movRM(RAX, RSP, SS(D - 2));
          if (I.Op == Opcode::Mul)
            E.imulRM(RAX, RSP, SS(D - 1));
          else
            E.aluRM(Opc, RAX, RSP, SS(D - 1));
        }
        TosCached = true;
        break;
      }
      case Opcode::Neg:
        if (!TosCached)
          E.movRM(RAX, RSP, SS(D - 1));
        E.negR(RAX);
        TosCached = true;
        break;
      case Opcode::Not:
        if (!TosCached)
          E.movRM(RAX, RSP, SS(D - 1));
        E.aluRI(6, RAX, 1); // xor rax, 1
        TosCached = true;
        break;

      case Opcode::Eq:
      case Opcode::Ne:
      case Opcode::Lt:
      case Opcode::Le:
      case Opcode::Gt:
      case Opcode::Ge: {
        Cond C = I.Op == Opcode::Eq   ? CC_E
                 : I.Op == Opcode::Ne ? CC_NE
                 : I.Op == Opcode::Lt ? CC_L
                 : I.Op == Opcode::Le ? CC_LE
                 : I.Op == Opcode::Gt ? CC_G
                                      : CC_GE;
        E.movRM(RCX, RSP, SS(D - 2));
        if (TosCached)
          E.aluRR(0x3B, RCX, RAX); // cmp lhs, rhs
        else
          E.aluRM(0x3B, RCX, RSP, SS(D - 1));
        E.movRI(RAX, 0); // mov imm leaves flags intact
        E.setcc(C, RAX);
        TosCached = true;
        break;
      }

      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv: {
        uint8_t Opc = I.Op == Opcode::FAdd   ? 0x58
                      : I.Op == Opcode::FSub ? 0x5C
                      : I.Op == Opcode::FMul ? 0x59
                                             : 0x5E;
        if (TosCached) {
          E.movMR(RSP, SS(D - 1), RAX);
          TosCached = false;
        }
        E.movsdXM(0, RSP, SS(D - 2));
        E.sseArithXM(Opc, 0, RSP, SS(D - 1));
        E.movsdMX(RSP, SS(D - 2), 0);
        break;
      }
      case Opcode::FNeg:
        if (!TosCached)
          E.movRM(RAX, RSP, SS(D - 1));
        E.btcRI(RAX, 63);
        TosCached = true;
        break;

      case Opcode::FEq:
      case Opcode::FNe: {
        // IEEE semantics through the parity flag: UCOMISD sets PF on
        // unordered, and NaN == x is false while NaN != x is true.
        if (TosCached) {
          E.movMR(RSP, SS(D - 1), RAX);
          TosCached = false;
        }
        E.movsdXM(0, RSP, SS(D - 2));
        E.ucomisdXM(0, RSP, SS(D - 1));
        E.movRI(RAX, 0);
        E.movRI(RCX, 0);
        if (I.Op == Opcode::FEq) {
          E.setcc(CC_NP, RAX);
          E.setcc(CC_E, RCX);
          E.aluRR32(0x23, RAX, RCX); // and
        } else {
          E.setcc(CC_P, RAX);
          E.setcc(CC_NE, RCX);
          E.aluRR32(0x0B, RAX, RCX); // or
        }
        TosCached = true;
        break;
      }
      case Opcode::FLt:
      case Opcode::FLe: {
        // A < B  ==  B > A: compare with the operands swapped so the
        // unordered case (CF set) falls out as false via the unsigned
        // "above" conditions.
        if (TosCached)
          E.movMR(RSP, SS(D - 1), RAX);
        E.movRI(RAX, 0);
        E.movsdXM(0, RSP, SS(D - 1));
        E.ucomisdXM(0, RSP, SS(D - 2));
        E.setcc(I.Op == Opcode::FLt ? CC_A : CC_AE, RAX);
        TosCached = true;
        break;
      }
      case Opcode::FGt:
      case Opcode::FGe: {
        if (TosCached)
          E.movMR(RSP, SS(D - 1), RAX);
        E.movRI(RAX, 0);
        E.movsdXM(0, RSP, SS(D - 2));
        E.ucomisdXM(0, RSP, SS(D - 1));
        E.setcc(I.Op == Opcode::FGt ? CC_A : CC_AE, RAX);
        TosCached = true;
        break;
      }

      case Opcode::I2F:
        if (TosCached) {
          E.movMR(RSP, SS(D - 1), RAX);
          TosCached = false;
        }
        E.cvtsi2sdXM(0, RSP, SS(D - 1));
        E.movsdMX(RSP, SS(D - 1), 0);
        break;
      case Opcode::F2I:
        // cvttsd2si matches the interpreter's static_cast<int64_t> on
        // x86-64 (both truncate; both yield the indefinite value when
        // out of range).
        if (TosCached)
          E.movMR(RSP, SS(D - 1), RAX);
        E.cvttsd2siRM(RAX, RSP, SS(D - 1));
        TosCached = true;
        break;

      case Opcode::Br:
        if (TosCached) {
          E.movMR(RSP, SS(D - 1), RAX);
          TosCached = false;
        }
        Branches.push_back(BranchFixup{E.jmp(), I.Index});
        break;
      case Opcode::BrIf:
        // The condition is consumed here; everything beneath it is
        // already in memory, so the target's full-frame invariant holds
        // without a flush.
        if (!TosCached)
          E.movRM(RAX, RSP, SS(D - 1));
        TosCached = false;
        E.testRR(RAX, RAX);
        Branches.push_back(BranchFixup{E.jcc(CC_NE), I.Index});
        break;

      case Opcode::Ret:
        if (F.Result != ValKind::VK_Unit && !TosCached)
          E.movRM(RAX, RSP, SS(D - 1));
        TosCached = false;
        EpilogueJumps.push_back(E.jmp());
        break;

      default:
        // PushS/string ops/Call are classified Unsup; CallFn/CallHost/
        // Div/Rem have their own classes.  Nothing else reaches here.
        E.ud2();
        break;
      }
      break;
    }
  }

  // If the body's last pc fell through (it cannot — Ret/Br terminate
  // every path in verified code), ud2 guards the seam anyway.
  E.ud2();

  // Deopt stubs: identify the (site, reason), funnel into the common
  // sequence.
  std::vector<size_t> CommonJumps;
  for (StubRef &S : Stubs) {
    size_t StubPos = E.pos();
    for (size_t J : S.Jumps)
      E.fix(J, StubPos);
    E.movRI(RSI, S.Packed);
    CommonJumps.push_back(E.jmp());
  }
  // Common deopt: rdi = ctx, esi already packed, rdx = frame slots.
  size_t CommonPos = E.pos();
  for (size_t J : CommonJumps)
    E.fix(J, CommonPos);
  if (!Stubs.empty()) {
    E.movRR(RDI, RBX);
    E.movRR(RDX, RSP);
    E.movRI(RAX, reinterpret_cast<uint64_t>(&dsuVtalNativeDeopt));
    E.callR(RAX);
    // Result (or pending trap) in hand: fall through to the epilogue.
  }
  // Epilogue: shared by Ret, trap propagation, and deopt returns.
  size_t EpiloguePos = E.pos();
  for (size_t J : EpilogueJumps)
    E.fix(J, EpiloguePos);
  E.addRspI(K);
  E.popR(RBX);
  E.popR(RBP);
  E.ret();

  // Intra-function branches.
  for (const BranchFixup &B : Branches)
    E.fix(B.At, PcOff[B.TargetPc]);

  Fns[FnIndex].EntryOffset = static_cast<uint32_t>(Entry);
  Fns[FnIndex].CodeBytes = static_cast<uint32_t>(E.pos() - Entry);
}

} // namespace

//===----------------------------------------------------------------------===//
// NativeImage
//===----------------------------------------------------------------------===//

Expected<std::shared_ptr<const NativeImage>>
NativeImage::compile(const ResolvedModule &RM) {
  std::shared_ptr<NativeImage> Img(new NativeImage());
  const size_t N = RM.Functions.size();
  Img->Fns.resize(N);
  for (size_t I = 0; I != N; ++I)
    Img->Fns[I].Result = RM.Functions[I].Result;

#if !defined(__x86_64__)
  // Non-x86-64 hosts get an empty image: everything stays interpreted.
  // (CMake normally forces DSU_VTAL_NATIVE=OFF there; this is the
  // belt-and-braces path.)
  return std::shared_ptr<const NativeImage>(Img);
#else
  std::vector<bool> Want = representable(RM);

  // Phase 1: analyze everything first — a function that fails analysis
  // (possible only for unverified modules) must be dropped before any
  // caller decides between a direct call and the bridge.
  std::vector<FnAnalysis> An(N);
  for (size_t I = 0; I != N; ++I) {
    if (!Want[I])
      continue;
    if (!abstractPass(RM, RM.Functions[I], An[I]) ||
        RM.Functions[I].NumLocals + An[I].MaxDepth + 1 > MaxFrameSlots)
      Want[I] = false;
  }

  // Phase 2: emit.
  X64Emitter E;
  std::vector<CallFixup> Calls;
  for (size_t I = 0; I != N; ++I)
    if (Want[I]) {
      emitFunction(RM, static_cast<uint32_t>(I), An[I], Want, E, Img->Fns,
                   Img->Sites, Calls);
      ++Img->NumCompiled;
    }

  if (Img->NumCompiled == 0)
    return std::shared_ptr<const NativeImage>(Img);

  for (const CallFixup &C : Calls)
    E.fix(C.At, Img->Fns[C.Callee].EntryOffset);

  Img->CodeSize = E.code().size();
  if (Error Err = Img->Arena.map(Img->CodeSize))
    return Err;
  Img->Arena.write(0, E.code().data(), Img->CodeSize);
  if (Error Err = Img->Arena.seal())
    return Err;

  NativeStats &S = NativeStats::instance();
  S.FunctionsCompiled.fetch_add(Img->NumCompiled, std::memory_order_relaxed);
  S.CodeBytesLive.fetch_add(Img->CodeSize, std::memory_order_relaxed);
  return std::shared_ptr<const NativeImage>(Img);
#endif
}

namespace {
struct RetiredPages {
  uint8_t *Base;
  size_t Size;
};
} // namespace

NativeImage::~NativeImage() {
  if (!Arena.base())
    return;
  NativeStats &S = NativeStats::instance();
  S.CodeBytesLive.fetch_sub(CodeSize, std::memory_order_relaxed);
  S.ArenasRetired.fetch_add(1, std::memory_order_relaxed);
  // The image object dies when its last owner drops it, but a reader that
  // resolved an entry pointer through the binding indirection may still
  // be ahead of the epoch clock — the pages themselves wait out the grace
  // period in the epoch domain's limbo list, exactly like a superseded
  // binding table.
  std::pair<uint8_t *, size_t> Pages = Arena.release();
  RetiredPages *R = new RetiredPages{Pages.first, Pages.second};
  epoch::domain().retire(R, [](void *P) {
    RetiredPages *RP = static_cast<RetiredPages *>(P);
    ::munmap(RP->Base, RP->Size);
    delete RP;
  });
}

//===----------------------------------------------------------------------===//
// Interpreter::runNative — the tier-dispatch entry shim
//===----------------------------------------------------------------------===//

namespace dsu {
namespace vtal {

Expected<Value> Interpreter::runNative(uint32_t FnIndex,
                                       const std::vector<Value> &Args,
                                       uint64_t &Fuel) const {
  const native::NativeImage *Image = Img.get();
  native::NativeEntryFn Entry = Image->entry(FnIndex);
  uint64_t RawArgs[native::NativeImage::MaxParams];
  for (size_t I = 0; I != Args.size(); ++I)
    RawArgs[I] = native::valueToRaw(Args[I]);

  native::NativeCtx Ctx;
  Ctx.Fuel = Fuel;
  Ctx.Depth = 1; // this activation's entry frame
  Ctx.Interp = this;
  Ctx.Image = Image;

  native::NativeStats::instance().NativeEntries.fetch_add(
      1, std::memory_order_relaxed);
  // Entry counts feed the same profile as interpreted activations; the
  // fuel natively executed functions burn is not credited as self-fuel
  // (DESIGN.md §17).
  if (Prof)
    Prof->fn(FnIndex).Calls.fetch_add(1, std::memory_order_relaxed);

  uint64_t RawRet = Entry(&Ctx, RawArgs);
  Fuel = Ctx.Fuel;
  if (Ctx.TrapPending)
    return std::move(Ctx.Err);
  return native::rawToValue(Image->resultKind(FnIndex), RawRet);
}

} // namespace vtal
} // namespace dsu
