//===- analysis/PatchAnalyzer.cpp -----------------------------*- C++ -*-===//
///
/// \file
/// Implementation of the whole-patch update-safety analyzer.
///
/// Design constraints that shape the code below:
///
///  * The analyzer may run *before* the VTAL verifier (the staging
///    worker lints a freshly parsed artifact before journalling its
///    Intent), so every module walk bounds-checks indices instead of
///    assuming verifier invariants.
///
///  * It must not duplicate verifier judgements.  A malformed branch
///    target or unknown callee is the verifier's finding (EC_Verify);
///    the analyzer silently abandons the affected path so existing
///    error-code expectations stay intact.
///
///  * Severity Error is reserved for defects with an inevitable bad
///    dynamic outcome: staging would refuse anyway (missing
///    transformer — see expandBump() in state/Transform.cpp, which
///    fails up front for any declared bump lacking a chain), or the
///    committed code is guaranteed to trap (const div-by-zero on the
///    entry path, a loop whose trip count exceeds the interpreter's
///    fuel budget).
///
//===----------------------------------------------------------------------===//

#include "analysis/PatchAnalyzer.h"

#include "link/SymbolTable.h"
#include "patch/Patch.h"
#include "runtime/UpdateableRegistry.h"
#include "state/Transform.h"
#include "support/Json.h"
#include "support/StringUtil.h"
#include "types/Compat.h"
#include "vtal/Interp.h"
#include "vtal/Module.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>

using namespace dsu;
using namespace dsu::analysis;
using vtal::Function;
using vtal::Instruction;
using vtal::Module;
using vtal::Opcode;
using vtal::ValKind;

const char *analysis::severityName(Severity S) {
  switch (S) {
  case Severity::Info:
    return "info";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "info";
}

void analysis::writeFindingJson(JsonWriter &W, const Finding &F) {
  W.beginObject();
  W.key("severity").value(severityName(F.Sev));
  W.key("code").value(F.Code);
  W.key("message").value(F.Message);
  if (!F.Fn.empty())
    W.key("fn").value(F.Fn);
  if (F.HasPC)
    W.key("pc").value(F.PC);
  W.endObject();
}

namespace {

void add(AnalysisReport &R, Severity Sev, const char *Code,
         std::string Msg) {
  Finding F;
  F.Sev = Sev;
  F.Code = Code;
  F.Message = std::move(Msg);
  R.Findings.push_back(std::move(F));
}

void addFn(AnalysisReport &R, Severity Sev, const char *Code,
           const std::string &Fn, uint32_t PC, std::string Msg) {
  Finding F;
  F.Sev = Sev;
  F.Code = Code;
  F.Message = std::move(Msg);
  F.Fn = Fn;
  F.PC = PC;
  F.HasPC = true;
  R.Findings.push_back(std::move(F));
}

/// True when a transformer for \p B is available once the patch is
/// staged: registered live, or shipped by the patch itself.
bool hasTransformer(const Patch &P, const AnalyzerEnv &Env,
                    const VersionBump &B) {
  if (Env.Transformers.has(B))
    return true;
  for (const PatchTransformer &T : P.Transformers)
    if (T.Bump == B)
      return true;
  return false;
}

/// The analyzer's copy of the expandBump() judgement: a direct
/// transformer, or the complete chain of single-version steps.
bool hasTransformerChain(const Patch &P, const AnalyzerEnv &Env,
                         const VersionBump &B) {
  if (hasTransformer(P, Env, B))
    return true;
  if (B.To.Version <= B.From.Version)
    return false;
  for (uint32_t V = B.From.Version; V != B.To.Version; ++V) {
    VersionBump Step{VersionedName{B.From.Name, V},
                     VersionedName{B.From.Name, V + 1}};
    if (!hasTransformer(P, Env, Step))
      return false;
  }
  return true;
}

void pushBump(std::vector<VersionBump> &Bumps, const VersionBump &B) {
  if (std::find(Bumps.begin(), Bumps.end(), B) == Bumps.end())
    Bumps.push_back(B);
}

/// Pass 1a: diff each new-types declaration against the live context,
/// collecting the version bumps staging will declare (mirrors the
/// stage-2 loop of Runtime::stageInto, simulated against the pre-patch
/// context so earlier declarations in the same patch are visible to
/// later ones).
void diffNewTypes(const Patch &P, const AnalyzerEnv &Env, AnalysisReport &R,
                  std::vector<VersionBump> &DeclaredBumps) {
  std::map<std::string, uint32_t> SimLatest;
  auto Latest = [&](const std::string &Name) {
    uint32_t Live = Env.Types.latestVersion(Name);
    auto It = SimLatest.find(Name);
    return It == SimLatest.end() ? Live : std::max(Live, It->second);
  };

  for (const PatchTypeDef &TD : P.NewTypes) {
    if (!TD.Repr)
      continue;
    if (const Type *Existing = Env.Types.lookupDefinition(TD.Name)) {
      if (typesEqual(Existing, TD.Repr))
        add(R, Severity::Info, "no-repr-change",
            formatString("type %s is redeclared with its existing "
                         "representation %s; the declaration is a no-op",
                         TD.Name.str().c_str(), Existing->str().c_str()));
      else
        add(R, Severity::Error, "type-redefinition",
            formatString(
                "type %s is already defined as %s; definitions are "
                "immutable — a new representation (%s) needs a version bump",
                TD.Name.str().c_str(), Existing->str().c_str(),
                TD.Repr->str().c_str()));
      continue;
    }
    uint32_t Prev = Latest(TD.Name.Name);
    if (Prev > 0 && Prev < TD.Name.Version)
      pushBump(DeclaredBumps,
               VersionBump{VersionedName{TD.Name.Name, Prev}, TD.Name});
    SimLatest[TD.Name.Name] = std::max(Latest(TD.Name.Name), TD.Name.Version);
  }
}

/// Pass 1b: every declared transformer must connect two versions that
/// actually exist (defined live, or declared by this patch).
void auditTransformers(const Patch &P, const AnalyzerEnv &Env,
                       AnalysisReport &R) {
  auto Defined = [&](const VersionedName &N) {
    if (Env.Types.lookupDefinition(N))
      return true;
    for (const PatchTypeDef &TD : P.NewTypes)
      if (TD.Name == N)
        return true;
    return false;
  };
  for (const PatchTransformer &T : P.Transformers) {
    if (!Defined(T.Bump.From))
      add(R, Severity::Error, "orphan-transformer",
          formatString("transformer %s -> %s: source version %s is defined "
                       "neither by the running program nor by this patch",
                       T.Bump.From.str().c_str(), T.Bump.To.str().c_str(),
                       T.Bump.From.str().c_str()));
    else if (!Defined(T.Bump.To))
      add(R, Severity::Error, "orphan-transformer",
          formatString("transformer %s -> %s: target version %s is defined "
                       "neither by the running program nor by this patch",
                       T.Bump.From.str().c_str(), T.Bump.To.str().c_str(),
                       T.Bump.To.str().c_str()));
  }
}

/// Pass 2: predict the bumps link-prepare will require, check the
/// provides against the live slots, and classify code-only vs
/// state-migrating the way stageInto will.
void predictClassification(const Patch &P, const AnalyzerEnv &Env,
                           AnalysisReport &R,
                           std::vector<VersionBump> &AllBumps) {
  for (const ProvideRequest &Pr : P.Unit.Provides) {
    const UpdateableSlot *Slot = Env.Updateables.lookup(Pr.Name);
    if (!Slot || !Pr.Ty)
      continue;
    ReplaceCheck RC = checkReplacement(Slot->type(), Pr.Ty);
    if (!RC.ok()) {
      add(R, Severity::Error, "incompatible-replacement",
          formatString("provide '%s' cannot replace the live definition: %s",
                       Pr.Name.c_str(), RC.Reason.c_str()));
      continue;
    }
    for (const VersionBump &B : RC.Bumps)
      pushBump(AllBumps, B);
  }

  R.CodeOnlyPredicted = AllBumps.empty() && P.Transformers.empty();

  for (const VersionBump &B : AllBumps)
    if (!hasTransformerChain(P, Env, B))
      add(R, Severity::Error, "missing-transformer",
          formatString(
              "type %s changes representation (%s -> %s) but neither the "
              "program nor the patch supplies a transformer (or a chain of "
              "single-version steps) for the bump; staging will refuse it",
              B.From.Name.c_str(), B.From.str().c_str(), B.To.str().c_str()));
}

/// Pass 4: import/provide signature audit against the live export
/// table.  Imports are also checked by the loader and the linker, but
/// the analyzer sees in-memory patches those paths skip, and gives the
/// finding a stable code the lint surfaces key on.
void auditLink(const Patch &P, const AnalyzerEnv &Env, AnalysisReport &R) {
  for (const ImportRequest &I : P.Unit.Imports) {
    const SymbolDef *D = Env.Exports.lookup(I.Name);
    if (!D) {
      add(R, Severity::Error, "unresolved-import",
          formatString("import '%s' is not exported by the running program",
                       I.Name.c_str()));
      continue;
    }
    if (I.Ty && D->Ty && !typesEqual(D->Ty, I.Ty))
      add(R, Severity::Error, "import-type-mismatch",
          formatString("import '%s' is declared %s but the program exports "
                       "it as %s",
                       I.Name.c_str(), I.Ty->str().c_str(),
                       D->Ty->str().c_str()));
  }

  // A provide that *defines* (no live slot) but reuses a host export's
  // name splits the namespace: future VTAL imports of that name keep
  // resolving to the host export while updateable dispatch finds the
  // patch definition.  Identical types make that benign (worth noting);
  // differing types make the split observable.
  for (const ProvideRequest &Pr : P.Unit.Provides) {
    if (Env.Updateables.lookup(Pr.Name))
      continue;
    const SymbolDef *D = Env.Exports.lookup(Pr.Name);
    if (!D)
      continue;
    if (Pr.Ty && D->Ty && typesEqual(D->Ty, Pr.Ty))
      add(R, Severity::Info, "shadowing-provide",
          formatString("provide '%s' shadows the host export of the same "
                       "name (identical type %s)",
                       Pr.Name.c_str(), Pr.Ty->str().c_str()));
    else
      add(R, Severity::Error, "shadowing-provide",
          formatString(
              "provide '%s' shadows the host export of the same name under "
              "a different type (%s vs exported %s); importers of '%s' "
              "would silently split between the two bindings",
              Pr.Name.c_str(), Pr.Ty ? Pr.Ty->str().c_str() : "<untyped>",
              D->Ty ? D->Ty->str().c_str() : "<untyped>", Pr.Name.c_str()));
  }
}

//===----------------------------------------------------------------------===//
// Pass 3: VTAL abstract interpretation
//===----------------------------------------------------------------------===//

/// An abstract scalar: a known 64-bit constant (ints and bools share
/// the lattice; bools are 0/1) or Unknown.
struct AbsVal {
  bool Known = false;
  int64_t V = 0;
};

/// Per-function working storage, hoisted to the module walk and reused
/// across functions: the analyzer runs inline in the staging pipeline
/// with a < 10%-of-verify-time budget, and per-function heap churn was
/// the dominant cost.
struct Scratch {
  std::vector<char> Reach;
  std::vector<uint32_t> Work;
  std::vector<uint32_t> BackEdges;
  std::vector<AbsVal> Stack;
  std::vector<AbsVal> Locals;
  std::vector<uint8_t> Visits;
};

/// Reachability over the instruction graph; fills \p S.Reach.  Chases
/// fall-through edges directly (the common case) and only spills branch
/// targets to the worklist.  Out-of-range branch targets terminate
/// their path silently (the verifier owns that diagnostic).
void reachableSet(const Function &F, Scratch &S) {
  size_t N = F.Code.size();
  S.Reach.assign(N, 0);
  S.Work.clear();
  uint32_t PC = 0;
  while (true) {
    if (PC >= N || S.Reach[PC]) {
      if (S.Work.empty())
        break;
      PC = S.Work.back();
      S.Work.pop_back();
      continue;
    }
    S.Reach[PC] = 1;
    const Instruction &I = F.Code[PC];
    switch (I.Op) {
    case Opcode::Br:
      PC = I.Index;
      break;
    case Opcode::BrIf:
      S.Work.push_back(I.Index);
      ++PC;
      break;
    case Opcode::Ret:
      PC = static_cast<uint32_t>(N);
      break;
    default:
      ++PC;
      break;
    }
  }
}

/// Bounded constant propagation down the must-execute path from entry.
/// Follows only forced control flow (unconditional branches, BrIf on a
/// known condition); stops at the first join with unknown state.  A
/// Div/Rem whose divisor is the constant 0 on this path is a guaranteed
/// trap on every invocation.
void findMustTraps(const Module &M, const Function &F, Scratch &S,
                   AnalysisReport &R) {
  size_t N = F.Code.size();
  std::vector<AbsVal> &Stack = S.Stack;
  std::vector<AbsVal> &Locals = S.Locals;
  std::vector<uint8_t> &Visits = S.Visits;
  Stack.clear();
  Locals.assign(F.Locals.size(), AbsVal{});
  Visits.assign(N, 0);
  size_t Steps = 0;
  uint32_t PC = 0;

  auto Pop = [&]() -> std::optional<AbsVal> {
    if (Stack.empty())
      return std::nullopt;
    AbsVal V = Stack.back();
    Stack.pop_back();
    return V;
  };
  // Wrapping arithmetic through uint64_t: the interpreter's semantics,
  // and no UB in the analyzer on overflowing constants.
  auto Wrap = [](uint64_t X) { return static_cast<int64_t>(X); };

  while (PC < N && Steps++ < 4096) {
    if (Visits[PC]++ > 64)
      return; // const-condition loop; the fuel pass owns that shape
    const Instruction &I = F.Code[PC];
    switch (I.Op) {
    case Opcode::PushI:
    case Opcode::PushB:
      Stack.push_back(AbsVal{true, I.IntOp});
      ++PC;
      break;
    case Opcode::PushF:
    case Opcode::PushS:
      Stack.push_back(AbsVal{});
      ++PC;
      break;
    case Opcode::Load: {
      if (I.Index >= Locals.size())
        return;
      Stack.push_back(Locals[I.Index]);
      ++PC;
      break;
    }
    case Opcode::Store: {
      std::optional<AbsVal> V = Pop();
      if (!V || I.Index >= Locals.size())
        return;
      Locals[I.Index] = *V;
      ++PC;
      break;
    }
    case Opcode::Pop:
      if (!Pop())
        return;
      ++PC;
      break;
    case Opcode::Dup:
      if (Stack.empty())
        return;
      Stack.push_back(Stack.back());
      ++PC;
      break;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul: {
      std::optional<AbsVal> B = Pop(), A = Pop();
      if (!B || !A)
        return;
      AbsVal Res;
      if (A->Known && B->Known) {
        uint64_t X = static_cast<uint64_t>(A->V), Y = static_cast<uint64_t>(B->V);
        Res.Known = true;
        Res.V = Wrap(I.Op == Opcode::Add   ? X + Y
                     : I.Op == Opcode::Sub ? X - Y
                                           : X * Y);
      }
      Stack.push_back(Res);
      ++PC;
      break;
    }
    case Opcode::Div:
    case Opcode::Rem: {
      std::optional<AbsVal> B = Pop(), A = Pop();
      if (!B || !A)
        return;
      if (B->Known && B->V == 0) {
        addFn(R, Severity::Error, "must-trap", F.Name, PC,
              formatString("%s by a constant zero divisor on the "
                           "must-execute path from entry: every invocation "
                           "of '%s' traps [%s]",
                           I.Op == Opcode::Div ? "division" : "remainder",
                           F.Name.c_str(), I.str().c_str()));
        return;
      }
      AbsVal Res;
      if (A->Known && B->Known && B->V != 0 &&
          !(A->V == INT64_MIN && B->V == -1)) {
        Res.Known = true;
        Res.V = I.Op == Opcode::Div ? A->V / B->V : A->V % B->V;
      }
      Stack.push_back(Res);
      ++PC;
      break;
    }
    case Opcode::Neg: {
      std::optional<AbsVal> A = Pop();
      if (!A)
        return;
      AbsVal Res;
      if (A->Known) {
        Res.Known = true;
        Res.V = Wrap(0 - static_cast<uint64_t>(A->V));
      }
      Stack.push_back(Res);
      ++PC;
      break;
    }
    case Opcode::Eq:
    case Opcode::Ne:
    case Opcode::Lt:
    case Opcode::Le:
    case Opcode::Gt:
    case Opcode::Ge: {
      std::optional<AbsVal> B = Pop(), A = Pop();
      if (!B || !A)
        return;
      AbsVal Res;
      if (A->Known && B->Known) {
        Res.Known = true;
        switch (I.Op) {
        case Opcode::Eq: Res.V = A->V == B->V; break;
        case Opcode::Ne: Res.V = A->V != B->V; break;
        case Opcode::Lt: Res.V = A->V < B->V; break;
        case Opcode::Le: Res.V = A->V <= B->V; break;
        case Opcode::Gt: Res.V = A->V > B->V; break;
        default:         Res.V = A->V >= B->V; break;
        }
      }
      Stack.push_back(Res);
      ++PC;
      break;
    }
    case Opcode::And:
    case Opcode::Or: {
      std::optional<AbsVal> B = Pop(), A = Pop();
      if (!B || !A)
        return;
      AbsVal Res;
      if (A->Known && B->Known) {
        Res.Known = true;
        Res.V = I.Op == Opcode::And ? (A->V && B->V) : (A->V || B->V);
      }
      Stack.push_back(Res);
      ++PC;
      break;
    }
    case Opcode::Not: {
      std::optional<AbsVal> A = Pop();
      if (!A)
        return;
      AbsVal Res;
      if (A->Known) {
        Res.Known = true;
        Res.V = !A->V;
      }
      Stack.push_back(Res);
      ++PC;
      break;
    }
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
    case Opcode::FEq:
    case Opcode::FNe:
    case Opcode::FLt:
    case Opcode::FLe:
    case Opcode::FGt:
    case Opcode::FGe:
    case Opcode::SCat:
    case Opcode::SEq:
    case Opcode::SFind: {
      if (!Pop() || !Pop())
        return;
      Stack.push_back(AbsVal{});
      ++PC;
      break;
    }
    case Opcode::FNeg:
    case Opcode::I2F:
    case Opcode::F2I:
    case Opcode::SLen: {
      if (!Pop())
        return;
      Stack.push_back(AbsVal{});
      ++PC;
      break;
    }
    case Opcode::SSub: {
      if (!Pop() || !Pop() || !Pop())
        return;
      Stack.push_back(AbsVal{});
      ++PC;
      break;
    }
    case Opcode::Br:
      PC = I.Index;
      break;
    case Opcode::BrIf: {
      std::optional<AbsVal> C = Pop();
      if (!C || !C->Known)
        return; // data-dependent branch: the must-execute path ends here
      PC = C->V ? I.Index : PC + 1;
      break;
    }
    case Opcode::Ret:
      return;
    case Opcode::Call: {
      const Function *CF = M.findFunction(I.StrOp);
      const vtal::Import *CI = CF ? nullptr : M.findImport(I.StrOp);
      size_t NArgs;
      ValKind Res;
      if (CF) {
        NArgs = CF->Sig.Params.size();
        Res = CF->Sig.Result;
      } else if (CI) {
        NArgs = CI->Sig.Params.size();
        Res = CI->Sig.Result;
      } else {
        return; // unknown callee: the verifier's finding
      }
      if (Stack.size() < NArgs)
        return;
      Stack.resize(Stack.size() - NArgs);
      if (Res != ValKind::VK_Unit)
        Stack.push_back(AbsVal{});
      ++PC;
      break;
    }
    case Opcode::CallFn:
    case Opcode::CallHost:
      return;
    }
  }
}

/// Loop-shape analysis over back edges.  For each back edge [H, B]:
/// no exit from the region means the loop never terminates (with fuel
/// semantics: a guaranteed fuel trap); otherwise the canonical counted
/// loop — constant init before the header, one compare-and-exit, one
/// constant-stride step — yields a trip count to compare against the
/// interpreter's fuel budget.
void findFuelBombs(const Function &F, const std::vector<uint32_t> &BackEdges,
                   uint64_t FuelBudget, AnalysisReport &R) {
  for (uint32_t B : BackEdges) {
    const Instruction &BI = F.Code[B];
    uint32_t H = BI.Index;

    // A conditional back edge falls through out of the region, so only
    // an unconditional one can seal it.
    bool HasExit = BI.Op == Opcode::BrIf;
    for (uint32_t PC = H; PC <= B && !HasExit; ++PC) {
      const Instruction &I = F.Code[PC];
      if (I.Op == Opcode::Ret)
        HasExit = true;
      else if (PC != B && (I.Op == Opcode::Br || I.Op == Opcode::BrIf) &&
               (I.Index < H || I.Index > B))
        HasExit = true;
    }
    if (!HasExit) {
      addFn(R, Severity::Error, "infinite-loop", F.Name, H,
            formatString("loop pc%u..pc%u has no exit — no return and no "
                         "branch out of the region: '%s' exhausts its fuel "
                         "and traps on every invocation",
                         H, B, F.Name.c_str()));
      continue;
    }

    // Counted-loop pattern.  Exit test inside the region:
    //   load L; push.i C; <cmp>; brif <outside>
    uint32_t L = UINT32_MAX;
    int64_t C = 0;
    Opcode Cmp = Opcode::Ret;
    bool HaveExitTest = false;
    for (uint32_t PC = H; PC + 3 <= B && !HaveExitTest; ++PC) {
      const Instruction &I0 = F.Code[PC], &I1 = F.Code[PC + 1],
                        &I2 = F.Code[PC + 2], &I3 = F.Code[PC + 3];
      bool IsCmp = I2.Op == Opcode::Eq || I2.Op == Opcode::Ne ||
                   I2.Op == Opcode::Lt || I2.Op == Opcode::Le ||
                   I2.Op == Opcode::Gt || I2.Op == Opcode::Ge;
      if (I0.Op == Opcode::Load && I1.Op == Opcode::PushI && IsCmp &&
          I3.Op == Opcode::BrIf && (I3.Index < H || I3.Index > B)) {
        L = I0.Index;
        C = I1.IntOp;
        Cmp = I2.Op;
        HaveExitTest = true;
      }
    }
    if (!HaveExitTest)
      continue;

    // Step inside the region: load L; push.i S; add|sub; store L —
    // and it must be the only store to L in the region.
    int64_t Stride = 0;
    bool HaveStep = false, ForeignStore = false;
    for (uint32_t PC = H; PC <= B; ++PC) {
      const Instruction &I = F.Code[PC];
      if (I.Op != Opcode::Store || I.Index != L)
        continue;
      if (PC >= H + 3 && F.Code[PC - 3].Op == Opcode::Load &&
          F.Code[PC - 3].Index == L && F.Code[PC - 2].Op == Opcode::PushI &&
          (F.Code[PC - 1].Op == Opcode::Add ||
           F.Code[PC - 1].Op == Opcode::Sub) &&
          !HaveStep) {
        int64_t S = F.Code[PC - 2].IntOp;
        Stride = F.Code[PC - 1].Op == Opcode::Add ? S : -S;
        HaveStep = true;
      } else {
        ForeignStore = true;
      }
    }
    if (!HaveStep || ForeignStore)
      continue;

    // Init before the header: the last store to L must be push.i C0;
    // store L, with no later store in between.
    bool HaveInit = false;
    int64_t C0 = 0;
    for (uint32_t PC = 0; PC < H; ++PC)
      if (F.Code[PC].Op == Opcode::Store && F.Code[PC].Index == L) {
        HaveInit = PC > 0 && F.Code[PC - 1].Op == Opcode::PushI;
        C0 = HaveInit ? F.Code[PC - 1].IntOp : 0;
      }
    if (!HaveInit)
      continue;

    auto ExitHolds = [&](int64_t V) {
      switch (Cmp) {
      case Opcode::Eq: return V == C;
      case Opcode::Ne: return V != C;
      case Opcode::Lt: return V < C;
      case Opcode::Le: return V <= C;
      case Opcode::Gt: return V > C;
      default:         return V >= C;
      }
    };

    uint64_t RegionLen = B - H + 1;
    if (ExitHolds(C0))
      continue; // exits on the first test
    if (Stride == 0) {
      addFn(R, Severity::Error, "infinite-loop", F.Name, H,
            formatString("counted loop pc%u..pc%u never changes its counter "
                         "(stride 0) and its exit condition is false at the "
                         "initial value %lld",
                         H, B, static_cast<long long>(C0)));
      continue;
    }

    bool Toward;
    switch (Cmp) {
    case Opcode::Lt:
    case Opcode::Le:
      Toward = Stride < 0;
      break;
    case Opcode::Gt:
    case Opcode::Ge:
      Toward = Stride > 0;
      break;
    case Opcode::Eq: {
      __int128 Delta = static_cast<__int128>(C) - C0;
      Toward = (Delta > 0) == (Stride > 0) && Delta % Stride == 0;
      break;
    }
    default: // Ne with C0 == C: one step with a nonzero stride exits
      Toward = true;
      break;
    }
    if (!Toward) {
      addFn(R, Severity::Error, "infinite-loop", F.Name, H,
            formatString("counted loop pc%u..pc%u steps its counter away "
                         "from the exit bound (init %lld, stride %lld, "
                         "bound %lld): it can never terminate",
                         H, B, static_cast<long long>(C0),
                         static_cast<long long>(Stride),
                         static_cast<long long>(C)));
      continue;
    }

    unsigned __int128 Dist =
        C0 > C ? static_cast<unsigned __int128>(static_cast<__int128>(C0) - C)
               : static_cast<unsigned __int128>(static_cast<__int128>(C) - C0);
    unsigned __int128 Mag =
        Stride > 0 ? static_cast<unsigned __int128>(Stride)
                   : static_cast<unsigned __int128>(-static_cast<__int128>(Stride));
    unsigned __int128 Trips = (Dist + Mag - 1) / Mag + 1; // ceil, ± one test
    unsigned __int128 Cost = Trips * RegionLen;
    if (Cost > FuelBudget) {
      addFn(R, Severity::Error, "fuel-exhaustion", F.Name, H,
            formatString(
                "counted loop pc%u..pc%u runs ~%llu iterations of %llu "
                "instructions (~%llu total), exceeding the interpreter fuel "
                "budget of %llu: '%s' is guaranteed to trap",
                H, B, static_cast<unsigned long long>(Trips),
                static_cast<unsigned long long>(RegionLen),
                static_cast<unsigned long long>(Cost),
                static_cast<unsigned long long>(FuelBudget),
                F.Name.c_str()));
    }
  }
}

/// Pass 3 driver over one module.  One pre-scan per function gathers
/// everything the per-pass outer loops would otherwise each rediscover:
/// the unreachable-instruction count (against the reachability set),
/// resolved call forms (with their ordinal range check), whether any
/// division/remainder exists (the only opcodes findMustTraps can
/// report on), and the back-edge positions findFuelBombs works from.
void analyzeModule(const Module &M, uint64_t FuelBudget, AnalysisReport &R) {
  // thread_local so a small patch doesn't pay the scratch allocations
  // on every analyzePatch call; the retained capacity is a few KB.
  static thread_local Scratch S;
  for (const Function &F : M.Functions) {
    if (F.Code.empty())
      continue;

    reachableSet(F, S);
    bool HasResolved = false, HasDiv = false;
    size_t Dead = 0;
    uint32_t FirstDead = 0;
    S.BackEdges.clear();
    for (uint32_t PC = 0; PC != F.Code.size(); ++PC) {
      const Instruction &I = F.Code[PC];
      if (!S.Reach[PC]) {
        if (!Dead)
          FirstDead = PC;
        ++Dead;
      }
      switch (I.Op) {
      case Opcode::Div:
      case Opcode::Rem:
        HasDiv = true;
        break;
      case Opcode::Br:
      case Opcode::BrIf:
        if (I.Index <= PC)
          S.BackEdges.push_back(PC);
        break;
      case Opcode::CallFn:
        // Resolved call forms are not a valid shipping surface; the
        // verifier refuses the module.  The analyzer only checks that
        // the dense ordinals are in range (an out-of-range ordinal
        // would be an out-of-bounds dispatch if it ever executed) and
        // otherwise leaves the function alone.
        HasResolved = true;
        if (I.Index >= M.Functions.size())
          addFn(R, Severity::Error, "bad-ordinal", F.Name, PC,
                formatString("call.fn #%u is out of range: the module has "
                             "%zu functions",
                             I.Index, M.Functions.size()));
        break;
      case Opcode::CallHost:
        HasResolved = true;
        if (I.Index >= M.Imports.size())
          addFn(R, Severity::Error, "bad-ordinal", F.Name, PC,
                formatString("call.host #%u is out of range: the module has "
                             "%zu imports",
                             I.Index, M.Imports.size()));
        break;
      default:
        break;
      }
    }
    if (HasResolved)
      continue;

    if (Dead)
      addFn(R, Severity::Warning, "unreachable-code", F.Name, FirstDead,
            formatString("%zu of %zu instructions are unreachable (first at "
                         "pc%u: %s)",
                         Dead, F.Code.size(), FirstDead,
                         F.Code[FirstDead].str().c_str()));
    if (HasDiv)
      findMustTraps(M, F, S, R);
    findFuelBombs(F, S.BackEdges, FuelBudget, R);
  }
}

} // namespace

AnalysisReport analysis::analyzePatch(const Patch &P, const AnalyzerEnv &Env,
                                      uint64_t FuelBudget) {
  if (FuelBudget == 0)
    FuelBudget = vtal::DefaultFuel;

  AnalysisReport R;

  // Pass 1: cross-version type diff + transformer coverage + orphans.
  std::vector<VersionBump> Bumps;
  diffNewTypes(P, Env, R, Bumps);
  auditTransformers(P, Env, R);

  // Pass 2: classification prediction over declared + required bumps.
  predictClassification(P, Env, R, Bumps);

  // Pass 3: abstract interpretation of the shipped VTAL module.
  if (P.VtalMod)
    analyzeModule(*P.VtalMod, FuelBudget, R);

  // Pass 4: import/provide audit.
  auditLink(P, Env, R);

  return R;
}
