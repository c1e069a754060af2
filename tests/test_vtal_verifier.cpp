//===- tests/test_vtal_verifier.cpp - VTAL verifier tests -----*- C++ -*-===//
///
/// The verifier is the trust boundary: these tests check it accepts
/// well-typed patch code and rejects every class of ill-typed code —
/// including adversarially mutated bytecode — without crashing.

#include "vtal/Assembler.h"
#include "vtal/Bytecode.h"
#include "vtal/Verifier.h"

#include <gtest/gtest.h>

using namespace dsu;
using namespace dsu::vtal;

namespace {

Module mustAssemble(const char *Src) {
  Expected<Module> M = assemble(Src);
  EXPECT_TRUE(M) << M.error().str();
  return std::move(*M);
}

TEST(VerifierTest, AcceptsFactorial) {
  Module M = mustAssemble(R"(
module fact
func fact (n: int) -> int {
  locals (acc: int, i: int)
  push.i 1
  store acc
  push.i 1
  store i
loop:
  load i
  load n
  gt
  brif done
  load acc
  load i
  mul
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
  VerifyStats Stats;
  EXPECT_FALSE(verifyModule(M, &Stats));
  EXPECT_EQ(Stats.FunctionsChecked, 1u);
  EXPECT_GE(Stats.InstructionsChecked, M.totalInstructions());
}

TEST(VerifierTest, AcceptsAllOperandKinds) {
  Module M = mustAssemble(R"(
module kinds
func f (a: int, b: float, c: bool, d: string) -> string {
  load a
  i2f
  load b
  fadd
  f2i
  push.i 3
  rem
  push.i 0
  eq
  load c
  and
  not
  brif tail
  load d
  dup
  scat
  ret
tail:
  load d
  slen
  neg
  pop
  push.s "x"
  load d
  seq
  pop
  load d
  ret
}
)");
  Error E = verifyModule(M);
  EXPECT_FALSE(E) << E.str();
}

TEST(VerifierTest, AcceptsCallsToFunctionsAndImports) {
  Module M = mustAssemble(R"(
module calls
import now : () -> int
func twice (x: int) -> int {
  load x
  push.i 2
  mul
  ret
}
func main () -> int {
  call now
  call twice
  ret
}
)");
  Error E = verifyModule(M);
  EXPECT_FALSE(E) << E.str();
}

struct RejectCase {
  const char *Name;
  const char *Source;
  const char *WhySubstring;
};

// Print a case by its name: the default printer dumps the pointer bytes,
// which would make the listed test names change from run to run.
void PrintTo(const RejectCase &C, std::ostream *OS) { *OS << C.Name; }

class VerifierRejects : public ::testing::TestWithParam<RejectCase> {};

TEST_P(VerifierRejects, Rejected) {
  Module M = mustAssemble(GetParam().Source);
  Error E = verifyModule(M);
  ASSERT_TRUE(E) << "verified: " << GetParam().Name;
  EXPECT_EQ(E.code(), ErrorCode::EC_Verify);
  EXPECT_NE(E.message().find(GetParam().WhySubstring), std::string::npos)
      << "actual: " << E.message();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VerifierRejects,
    ::testing::Values(
        RejectCase{"stack_underflow",
                   "module m\nfunc f () -> int {\nadd\nret\n}",
                   "underflow"},
        RejectCase{"kind_mismatch",
                   "module m\nfunc f () -> int {\npush.s \"x\"\npush.i 1\n"
                   "add\nret\n}",
                   "expected int"},
        RejectCase{"wrong_return_kind",
                   "module m\nfunc f () -> int {\npush.b true\nret\n}",
                   "return"},
        RejectCase{"excess_stack_at_ret",
                   "module m\nfunc f () -> int {\npush.i 1\npush.i 2\n"
                   "ret\n}",
                   "return"},
        RejectCase{"nonempty_unit_ret",
                   "module m\nfunc f () -> unit {\npush.i 1\nret\n}",
                   "non-empty stack"},
        RejectCase{"fall_off_end",
                   "module m\nfunc f () -> int {\npush.i 1\npop\n}",
                   "past end"},
        RejectCase{"inconsistent_join",
                   "module m\nfunc f (c: bool) -> int {\nload c\n"
                   "brif other\npush.i 1\npush.i 2\nbr join\nother:\n"
                   "push.i 1\njoin:\nret\n}",
                   "join"},
        RejectCase{"store_kind_mismatch",
                   "module m\nfunc f () -> unit {\nlocals (x: int)\n"
                   "push.s \"s\"\nstore x\nret\n}",
                   "expected int"},
        RejectCase{"call_unknown",
                   "module m\nfunc f () -> int {\ncall ghost\nret\n}",
                   "unknown function"},
        RejectCase{"call_bad_args",
                   "module m\nfunc g (x: int) -> int {\nload x\nret\n}\n"
                   "func f () -> int {\npush.s \"s\"\ncall g\nret\n}",
                   "expected int"},
        RejectCase{"brif_non_bool",
                   "module m\nfunc f () -> unit {\npush.i 1\nbrif x\nx:\n"
                   "ret\n}",
                   "expected bool"},
        RejectCase{"empty_function", "module m\nfunc f () -> unit {\n}",
                   "no code"}),
    [](const ::testing::TestParamInfo<RejectCase> &Info) {
      return Info.param.Name;
    });

TEST(VerifierTest, DuplicateFunctionNameViaDecode) {
  // The assembler refuses duplicates, so build the module directly.
  Module M;
  M.Name = "dup";
  Function F;
  F.Name = "f";
  F.Sig.Result = ValKind::VK_Unit;
  F.Code.push_back(Instruction{Opcode::Ret, 0, 0, "", 0});
  M.Functions.push_back(F);
  M.Functions.push_back(F);
  Error E = verifyModule(M);
  ASSERT_TRUE(E);
  EXPECT_NE(E.message().find("duplicate"), std::string::npos);
}

TEST(VerifierTest, ImportFunctionCollision) {
  Module M;
  M.Name = "coll";
  Import I;
  I.Name = "f";
  I.Sig.Result = ValKind::VK_Unit;
  M.Imports.push_back(I);
  Function F;
  F.Name = "f";
  F.Sig.Result = ValKind::VK_Unit;
  F.Code.push_back(Instruction{Opcode::Ret, 0, 0, "", 0});
  M.Functions.push_back(F);
  Error E = verifyModule(M);
  ASSERT_TRUE(E);
  EXPECT_NE(E.message().find("collides"), std::string::npos);
}

/// Adversarial mutation sweep: flip each instruction's opcode to every
/// other opcode and demand the verifier terminates with a clean verdict
/// (accept or reject), never crashing.  This is the load-bearing safety
/// property for accepting patch code from outside the trust boundary.
TEST(VerifierProperty, OpcodeMutationNeverCrashes) {
  Module M = mustAssemble(R"(
module victim
func f (n: int) -> int {
  locals (acc: int)
  push.i 1
  store acc
  load n
  push.i 0
  gt
  brif body
  load acc
  ret
body:
  load acc
  load n
  mul
  store acc
  load acc
  ret
}
)");
  ASSERT_FALSE(verifyModule(M));

  size_t Accepted = 0, Rejected = 0;
  Function &F = M.Functions[0];
  for (size_t PC = 0; PC != F.Code.size(); ++PC) {
    Instruction Saved = F.Code[PC];
    for (unsigned Op = 0; Op != NumOpcodes; ++Op) {
      F.Code[PC].Op = static_cast<Opcode>(Op);
      // Keep operand fields; out-of-range indices must also be caught.
      if (verifyModule(M))
        ++Rejected;
      else
        ++Accepted;
    }
    F.Code[PC] = Saved;
  }
  // The original (and a few benign mutations) pass; most mutations fail.
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, Accepted);
}

/// Byte-corruption sweep over the encoded form: decode either fails
/// cleanly or yields a module the verifier judges without crashing.
TEST(VerifierProperty, BytecodeCorruptionIsSafe) {
  Module M = mustAssemble(R"(
module victim
func f (x: int) -> int {
  load x
  push.i 41
  add
  ret
}
)");
  std::string Bytes = encodeModule(M);
  unsigned DecodeFailures = 0, VerifyRuns = 0;
  for (size_t I = 0; I != Bytes.size(); ++I) {
    for (unsigned char Delta : {0x01, 0x80, 0xFF}) {
      std::string Mutated = Bytes;
      Mutated[I] = static_cast<char>(Mutated[I] ^ Delta);
      Expected<Module> Decoded = decodeModule(Mutated);
      if (!Decoded) {
        ++DecodeFailures;
        continue;
      }
      ++VerifyRuns;
      (void)verifyModule(*Decoded); // must not crash; verdict is free
    }
  }
  EXPECT_GT(DecodeFailures, 0u);
  EXPECT_GT(VerifyRuns, 0u);
}

} // namespace

namespace {

TEST(VerifierTest, StringOpsTyped) {
  // ssub needs (str, int, int); sfind needs (str, str).
  Module Bad1 = mustAssemble(
      "module m\nfunc f (s: string) -> string {\nload s\npush.s \"a\"\n"
      "push.i 1\nssub\nret\n}");
  EXPECT_TRUE(verifyModule(Bad1));
  Module Bad2 = mustAssemble(
      "module m\nfunc f (s: string) -> int {\nload s\npush.i 1\nsfind\n"
      "ret\n}");
  EXPECT_TRUE(verifyModule(Bad2));
  Module Good = mustAssemble(
      "module m\nfunc f (s: string) -> string {\nload s\npush.i 0\n"
      "push.i 2\nssub\nret\n}");
  Error E = verifyModule(Good);
  EXPECT_FALSE(E) << E.str();
}

} // namespace
