//===- tests/test_vtal_asm.cpp - VTAL assembler tests ---------*- C++ -*-===//

#include "vtal/Assembler.h"

#include <gtest/gtest.h>

using namespace dsu;
using namespace dsu::vtal;

namespace {

const char *FactSource = R"(
; iterative factorial
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
)";

TEST(AssemblerTest, AssemblesFactorial) {
  Expected<Module> M = assemble(FactSource);
  ASSERT_TRUE(M) << M.error().str();
  EXPECT_EQ(M->Name, "fact");
  ASSERT_EQ(M->Functions.size(), 1u);
  const Function &F = M->Functions[0];
  EXPECT_EQ(F.Name, "fact");
  EXPECT_EQ(F.numParams(), 1u);
  EXPECT_EQ(F.Locals.size(), 3u);
  EXPECT_EQ(F.Sig.str(), "(int) -> int");
  EXPECT_GT(F.Code.size(), 10u);
}

TEST(AssemblerTest, LabelsResolveForwardAndBack) {
  Expected<Module> M = assemble(FactSource);
  ASSERT_TRUE(M);
  const Function &F = M->Functions[0];
  // "brif done" must point past "br loop".
  bool SawBrif = false, SawBr = false;
  for (const Instruction &I : F.Code) {
    if (I.Op == Opcode::BrIf) {
      SawBrif = true;
      EXPECT_GT(I.Index, 0u);
      EXPECT_LT(I.Index, F.Code.size());
    }
    if (I.Op == Opcode::Br) {
      SawBr = true;
      EXPECT_EQ(F.Code[I.Index].Op, Opcode::Load); // top of loop
    }
  }
  EXPECT_TRUE(SawBrif);
  EXPECT_TRUE(SawBr);
}

TEST(AssemblerTest, ImportsAndMultipleFunctions) {
  Expected<Module> M = assemble(R"(
module multi
import log : (string) -> unit
func helper (x: int) -> int {
  load x
  push.i 2
  mul
  ret
}
func main (x: int) -> int {
  push.s "starting"
  call log
  load x
  call helper
  ret
}
)");
  ASSERT_TRUE(M) << M.error().str();
  ASSERT_EQ(M->Imports.size(), 1u);
  EXPECT_EQ(M->Imports[0].Name, "log");
  EXPECT_EQ(M->Imports[0].Sig.str(), "(string) -> unit");
  EXPECT_NE(M->findFunction("helper"), nullptr);
  EXPECT_NE(M->findFunction("main"), nullptr);
  EXPECT_EQ(M->findFunction("absent"), nullptr);
  EXPECT_NE(M->findImport("log"), nullptr);
}

TEST(AssemblerTest, StringEscapes) {
  Expected<Module> M = assemble(R"(
module s
func f () -> string {
  push.s "a\"b\\c\nd"
  ret
}
)");
  ASSERT_TRUE(M) << M.error().str();
  EXPECT_EQ(M->Functions[0].Code[0].StrOp, "a\"b\\c\nd");
}

TEST(AssemblerTest, FloatAndBoolOperands) {
  Expected<Module> M = assemble(R"(
module fb
func f () -> float {
  push.b true
  brif yes
  push.f 1.5
  ret
yes:
  push.f -2.25
  ret
}
)");
  ASSERT_TRUE(M) << M.error().str();
  EXPECT_EQ(M->Functions[0].Code[0].IntOp, 1);
  EXPECT_DOUBLE_EQ(M->Functions[0].Code[2].FloatOp, 1.5);
}

TEST(AssemblerTest, ModulePrintIsStable) {
  Expected<Module> M = assemble(FactSource);
  ASSERT_TRUE(M);
  std::string S = M->str();
  EXPECT_NE(S.find("module fact"), std::string::npos);
  EXPECT_NE(S.find("func fact"), std::string::npos);
}

struct AsmErrorCase {
  const char *Name;
  const char *Source;
};

// Print a case by its name: the default printer dumps the pointer bytes,
// which would make the listed test names change from run to run.
void PrintTo(const AsmErrorCase &C, std::ostream *OS) { *OS << C.Name; }

class AssemblerErrors : public ::testing::TestWithParam<AsmErrorCase> {};

TEST_P(AssemblerErrors, Rejected) {
  Expected<Module> M = assemble(GetParam().Source);
  EXPECT_FALSE(M) << "accepted: " << GetParam().Name;
  if (!M)
    EXPECT_EQ(M.error().code(), ErrorCode::EC_Parse);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AssemblerErrors,
    ::testing::Values(
        AsmErrorCase{"no_module", "func f () -> int {\nret\n}"},
        AsmErrorCase{"missing_name", "module\n"},
        AsmErrorCase{"unterminated_func",
                     "module m\nfunc f () -> int {\npush.i 1\nret"},
        AsmErrorCase{"bad_mnemonic",
                     "module m\nfunc f () -> int {\nfrobnicate\n}"},
        AsmErrorCase{"unknown_local",
                     "module m\nfunc f () -> int {\nload q\nret\n}"},
        AsmErrorCase{"undefined_label",
                     "module m\nfunc f () -> int {\nbr nowhere\nret\n}"},
        AsmErrorCase{"duplicate_label",
                     "module m\nfunc f () -> unit {\na:\na:\nret\n}"},
        AsmErrorCase{"duplicate_function",
                     "module m\nfunc f () -> unit {\nret\n}\n"
                     "func f () -> unit {\nret\n}"},
        AsmErrorCase{"bad_int_operand",
                     "module m\nfunc f () -> int {\npush.i 1x\nret\n}"},
        AsmErrorCase{"unquoted_string",
                     "module m\nfunc f () -> string {\npush.s hi\nret\n}"},
        AsmErrorCase{"bad_bool",
                     "module m\nfunc f () -> int {\npush.b maybe\nret\n}"},
        AsmErrorCase{"unit_local",
                     "module m\nfunc f () -> unit {\nlocals (u: unit)\n"
                     "ret\n}"},
        AsmErrorCase{"bad_import", "module m\nimport x\n"},
        AsmErrorCase{"operand_on_nullary",
                     "module m\nfunc f () -> int {\nadd 3\nret\n}"}),
    [](const ::testing::TestParamInfo<AsmErrorCase> &Info) {
      return Info.param.Name;
    });

TEST(SignatureTest, ParsePrintRoundTrip) {
  for (const char *Text :
       {"() -> unit", "(int) -> int", "(int, float, string) -> bool",
        "(bool) -> string"}) {
    Expected<Signature> Sig = parseSignature(Text);
    ASSERT_TRUE(Sig) << Text;
    Expected<Signature> Back = parseSignature(Sig->str());
    ASSERT_TRUE(Back);
    EXPECT_TRUE(*Sig == *Back) << Text;
  }
}

TEST(SignatureTest, Rejects) {
  EXPECT_FALSE(parseSignature("int -> int"));
  EXPECT_FALSE(parseSignature("(unit) -> int"));
  EXPECT_FALSE(parseSignature("(int)"));
  EXPECT_FALSE(parseSignature("(int) -> void"));
}

} // namespace
