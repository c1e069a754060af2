//===- tests/test_vtal_interp.cpp - VTAL interpreter tests ----*- C++ -*-===//

#include "vtal/Assembler.h"
#include "vtal/Interp.h"
#include "vtal/Verifier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

using namespace dsu;
using namespace dsu::vtal;

namespace {

Module mustAssembleVerified(const char *Src) {
  Expected<Module> M = assemble(Src);
  EXPECT_TRUE(M) << M.error().str();
  Error E = verifyModule(*M);
  EXPECT_FALSE(E) << E.str();
  return std::move(*M);
}

TEST(InterpTest, Factorial) {
  Module M = mustAssembleVerified(R"(
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
  Interpreter I(M);
  int64_t Want = 1;
  for (int64_t N = 0; N <= 12; ++N) {
    if (N > 0)
      Want *= N;
    Expected<Value> R = I.call("fact", {Value::makeInt(N)});
    ASSERT_TRUE(R) << R.error().str();
    EXPECT_EQ(R->asInt(), Want) << "fact(" << N << ")";
  }
  EXPECT_GT(I.lastFuelUsed(), 0u);
}

TEST(InterpTest, RecursiveFibonacci) {
  Module M = mustAssembleVerified(R"(
module fib
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
  Interpreter I(M);
  Expected<Value> R = I.call("fib", {Value::makeInt(15)});
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->asInt(), 610);
}

TEST(InterpTest, FloatsAndConversions) {
  Module M = mustAssembleVerified(R"(
module flt
func mix (a: float, b: int) -> float {
  load a
  load b
  i2f
  fmul
  push.f 0.5
  fadd
  ret
}
)");
  Interpreter I(M);
  Expected<Value> R =
      I.call("mix", {Value::makeFloat(2.5), Value::makeInt(4)});
  ASSERT_TRUE(R);
  EXPECT_DOUBLE_EQ(R->asFloat(), 10.5);
}

TEST(InterpTest, StringOps) {
  Module M = mustAssembleVerified(R"(
module str
func greet (name: string) -> string {
  push.s "hello, "
  load name
  scat
  push.s "!"
  scat
  ret
}
func isempty (s: string) -> bool {
  load s
  slen
  push.i 0
  eq
  ret
}
)");
  Interpreter I(M);
  Expected<Value> R = I.call("greet", {Value::makeStr("world")});
  ASSERT_TRUE(R);
  EXPECT_EQ(R->asStr(), "hello, world!");
  Expected<Value> B = I.call("isempty", {Value::makeStr("")});
  ASSERT_TRUE(B);
  EXPECT_TRUE(B->asBool());
}

TEST(InterpTest, HostImports) {
  Module M = mustAssembleVerified(R"(
module imp
import fetch : (string) -> string
import now : () -> int
func run (key: string) -> string {
  load key
  call fetch
  ret
}
func stamp () -> int {
  call now
  push.i 1
  add
  ret
}
)");
  Interpreter I(M);
  ASSERT_FALSE(I.bindImport("fetch", [](const std::vector<Value> &Args)
                                -> Expected<Value> {
    return Value::makeStr("value-of-" + Args[0].asStr());
  }));
  ASSERT_FALSE(
      I.bindImport("now", [](const std::vector<Value> &) -> Expected<Value> {
        return Value::makeInt(41);
      }));

  Expected<Value> R = I.call("run", {Value::makeStr("k1")});
  ASSERT_TRUE(R);
  EXPECT_EQ(R->asStr(), "value-of-k1");
  Expected<Value> S = I.call("stamp", {});
  ASSERT_TRUE(S);
  EXPECT_EQ(S->asInt(), 42);
}

TEST(InterpTest, UnboundImportTraps) {
  Module M = mustAssembleVerified(R"(
module imp
import now : () -> int
func f () -> int {
  call now
  ret
}
)");
  Interpreter I(M);
  Expected<Value> R = I.call("f", {});
  ASSERT_FALSE(R);
  EXPECT_EQ(R.error().code(), ErrorCode::EC_Link);
}

TEST(InterpTest, BindUnknownImportFails) {
  Module M = mustAssembleVerified(
      "module m\nfunc f () -> unit {\nret\n}");
  Interpreter I(M);
  EXPECT_TRUE(I.bindImport("ghost", [](const std::vector<Value> &)
                               -> Expected<Value> {
    return Value::makeUnit();
  }));
}

TEST(InterpTest, HostResultKindChecked) {
  Module M = mustAssembleVerified(R"(
module imp
import now : () -> int
func f () -> int {
  call now
  ret
}
)");
  Interpreter I(M);
  ASSERT_FALSE(
      I.bindImport("now", [](const std::vector<Value> &) -> Expected<Value> {
        return Value::makeStr("not an int");
      }));
  Expected<Value> R = I.call("f", {});
  ASSERT_FALSE(R);
  EXPECT_EQ(R.error().code(), ErrorCode::EC_Link);
}

TEST(InterpTest, DivisionByZeroTraps) {
  Module M = mustAssembleVerified(R"(
module div
func f (a: int, b: int) -> int {
  load a
  load b
  div
  ret
}
)");
  Interpreter I(M);
  Expected<Value> Ok = I.call("f", {Value::makeInt(7), Value::makeInt(2)});
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Ok->asInt(), 3);
  Expected<Value> Bad = I.call("f", {Value::makeInt(7), Value::makeInt(0)});
  ASSERT_FALSE(Bad);
  EXPECT_NE(Bad.error().message().find("division by zero"),
            std::string::npos);
}

TEST(InterpTest, DivisionOverflowTraps) {
  Module M = mustAssembleVerified(R"(
module ovf
func div (a: int, b: int) -> int {
  load a
  load b
  div
  ret
}
func rem (a: int, b: int) -> int {
  load a
  load b
  rem
  ret
}
)");
  Interpreter I(M);
  const Value Min = Value::makeInt(INT64_MIN);
  const Value MinusOne = Value::makeInt(-1);
  // INT64_MIN / -1 and INT64_MIN % -1 have no int64 result: both trap
  // at the div/rem instruction, with fuel charged through it.
  Expected<Value> Q = I.call("div", {Min, MinusOne});
  ASSERT_FALSE(Q);
  EXPECT_EQ(Q.error().message(),
            "integer overflow in division in 'div' at pc 2");
  EXPECT_EQ(I.lastFuelUsed(), 3u);
  Expected<Value> R = I.call("rem", {Min, MinusOne});
  ASSERT_FALSE(R);
  EXPECT_EQ(R.error().message(),
            "integer overflow in division in 'rem' at pc 2");
  EXPECT_EQ(I.lastFuelUsed(), 3u);

  // Neighbouring operands are ordinary, truncating toward zero.
  Expected<Value> Q1 = I.call("div", {Min, Value::makeInt(1)});
  ASSERT_TRUE(Q1) << Q1.error().str();
  EXPECT_EQ(Q1->asInt(), INT64_MIN);
  Expected<Value> Q2 = I.call("div", {Value::makeInt(INT64_MAX), MinusOne});
  ASSERT_TRUE(Q2) << Q2.error().str();
  EXPECT_EQ(Q2->asInt(), -INT64_MAX);
  Expected<Value> R1 = I.call("rem", {Value::makeInt(-7), Value::makeInt(2)});
  ASSERT_TRUE(R1) << R1.error().str();
  EXPECT_EQ(R1->asInt(), -1);
  EXPECT_EQ(I.lastFuelUsed(), 4u);
}

TEST(InterpTest, NegWrapsAtInt64Min) {
  Module M = mustAssembleVerified(R"(
module negw
func f (a: int) -> int {
  load a
  neg
  ret
}
)");
  Interpreter I(M);
  Expected<Value> R = I.call("f", {Value::makeInt(INT64_MIN)});
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->asInt(), INT64_MIN);
  Expected<Value> R2 = I.call("f", {Value::makeInt(INT64_MAX)});
  ASSERT_TRUE(R2) << R2.error().str();
  EXPECT_EQ(R2->asInt(), -INT64_MAX);
}

TEST(InterpTest, NaNComparesUnordered) {
  Module M = mustAssembleVerified(R"(
module nan
func nan () -> float {
  push.f 0.0
  push.f 0.0
  fdiv
  ret
}
func feq (a: float, b: float) -> bool {
  load a
  load b
  feq
  ret
}
func fne (a: float, b: float) -> bool {
  load a
  load b
  fne
  ret
}
func flt (a: float, b: float) -> bool {
  load a
  load b
  flt
  ret
}
func fle (a: float, b: float) -> bool {
  load a
  load b
  fle
  ret
}
func fgt (a: float, b: float) -> bool {
  load a
  load b
  fgt
  ret
}
func fge (a: float, b: float) -> bool {
  load a
  load b
  fge
  ret
}
)");
  Interpreter I(M);
  Expected<Value> N = I.call("nan", {});
  ASSERT_TRUE(N) << N.error().str();
  ASSERT_TRUE(std::isnan(N->asFloat()));
  const Value One = Value::makeFloat(1.0);
  // Every ordered comparison with a NaN operand is false; only fne holds.
  const std::pair<const char *, bool> Want[] = {
      {"feq", false}, {"fne", true},  {"flt", false},
      {"fle", false}, {"fgt", false}, {"fge", false}};
  for (const auto &[Fn, Expect] : Want)
    for (const auto &Args : {std::vector<Value>{*N, *N},
                             std::vector<Value>{*N, One},
                             std::vector<Value>{One, *N}}) {
      Expected<Value> R = I.call(Fn, Args);
      ASSERT_TRUE(R) << Fn << ": " << R.error().str();
      EXPECT_EQ(R->asBool(), Expect) << Fn;
    }
}

TEST(InterpTest, FuelTrapsExactlyAtTheLimit) {
  // Four instructions: a budget of 4 runs them all, a budget of 3 traps
  // on the fourth with the whole budget spent.
  const char *Src = R"(
module four
func f () -> int {
  push.i 1
  push.i 2
  add
  ret
}
)";
  Module M = mustAssembleVerified(Src);
  Interpreter Enough(M, /*Fuel=*/4);
  Expected<Value> R = Enough.call("f", {});
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->asInt(), 3);
  EXPECT_EQ(Enough.lastFuelUsed(), 4u);

  Interpreter Short(M, /*Fuel=*/3);
  Expected<Value> T = Short.call("f", {});
  ASSERT_FALSE(T);
  EXPECT_NE(T.error().message().find("fuel exhausted in 'f'"),
            std::string::npos)
      << T.error().message();
  EXPECT_EQ(Short.lastFuelUsed(), 3u);
}

TEST(InterpTest, FuelExhaustionTraps) {
  Module M = mustAssembleVerified(R"(
module spin
func f () -> unit {
loop:
  br loop
}
)");
  Interpreter I(M, /*Fuel=*/10000);
  Expected<Value> R = I.call("f", {});
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("fuel"), std::string::npos);
}

TEST(InterpTest, CallDepthLimited) {
  Module M = mustAssembleVerified(R"(
module deep
func f (n: int) -> int {
  load n
  call f
  ret
}
)");
  Interpreter I(M);
  Expected<Value> R = I.call("f", {Value::makeInt(1)});
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("depth"), std::string::npos);
}

TEST(InterpTest, ArgumentValidation) {
  Module M = mustAssembleVerified(R"(
module args
func f (a: int, b: string) -> int {
  load b
  slen
  load a
  add
  ret
}
)");
  Interpreter I(M);
  EXPECT_FALSE(I.call("ghost", {}));
  EXPECT_FALSE(I.call("f", {Value::makeInt(1)}));
  EXPECT_FALSE(I.call("f", {Value::makeStr("x"), Value::makeInt(1)}));
  Expected<Value> Ok =
      I.call("f", {Value::makeInt(1), Value::makeStr("abc")});
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Ok->asInt(), 4);
}

TEST(InterpTest, LocalsZeroInitialized) {
  Module M = mustAssembleVerified(R"(
module zeros
func f () -> string {
  locals (s: string, i: int)
  load s
  load i
  push.i 0
  eq
  brif ok
  push.s "bad"
  scat
  ret
ok:
  push.s "ok"
  scat
  ret
}
)");
  Interpreter I(M);
  Expected<Value> R = I.call("f", {});
  ASSERT_TRUE(R);
  EXPECT_EQ(R->asStr(), "ok");
}

TEST(InterpTest, GcdLoop) {
  Module M = mustAssembleVerified(R"(
module gcd
func gcd (a: int, b: int) -> int {
loop:
  load b
  push.i 0
  eq
  brif done
  load a
  load b
  rem
  load b
  store a
  store b
  br loop
done:
  load a
  ret
}
)");
  Interpreter I(M);
  // Note the store order above: rem result and old b swap into (b, a).
  Expected<Value> R =
      I.call("gcd", {Value::makeInt(252), Value::makeInt(105)});
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->asInt(), 21);
}

TEST(ValueTest, DebugStrings) {
  EXPECT_EQ(Value::makeInt(42).str(), "int(42)");
  EXPECT_EQ(Value::makeBool(true).str(), "bool(true)");
  EXPECT_EQ(Value::makeUnit().str(), "unit");
  EXPECT_EQ(Value::makeStr("a\"b").str(), "string(\"a\\\"b\")");
  EXPECT_EQ(Value::makeFloat(1.5).str(), "float(1.5)");
}

} // namespace

namespace {

TEST(InterpTest, SubstringAndFind) {
  Module M = mustAssembleVerified(R"(
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
func method_of (line: string) -> string {
  locals (sp: int)
  load line
  push.s " "
  sfind
  store sp
  load line
  push.i 0
  load sp
  ssub
  ret
}
)");
  Interpreter I(M);
  EXPECT_EQ(I.call("strip_query", {Value::makeStr("/doc.html?x=1")})
                ->asStr(),
            "/doc.html");
  EXPECT_EQ(I.call("strip_query", {Value::makeStr("/plain.html")})->asStr(),
            "/plain.html");
  EXPECT_EQ(I.call("method_of", {Value::makeStr("GET /x HTTP/1.0")})
                ->asStr(),
            "GET");
}

TEST(InterpTest, SubstringClamps) {
  Module M = mustAssembleVerified(R"(
module clamp
func slice (s: string, a: int, n: int) -> string {
  load s
  load a
  load n
  ssub
  ret
}
)");
  Interpreter I(M);
  auto Slice = [&](const char *S, int64_t A, int64_t N) {
    return I.call("slice", {Value::makeStr(S), Value::makeInt(A),
                            Value::makeInt(N)})
        ->asStr();
  };
  EXPECT_EQ(Slice("hello", 1, 3), "ell");
  EXPECT_EQ(Slice("hello", 0, 99), "hello");  // length clamped
  EXPECT_EQ(Slice("hello", 99, 3), "");       // start clamped
  EXPECT_EQ(Slice("hello", -5, 2), "he");     // negative start clamped
  EXPECT_EQ(Slice("hello", 2, -1), "");       // negative length clamped
}

TEST(InterpTest, SFindMiss) {
  Module M = mustAssembleVerified(R"(
module findmiss
func f (s: string) -> int {
  load s
  push.s "zzz"
  sfind
  ret
}
)");
  Interpreter I(M);
  EXPECT_EQ(I.call("f", {Value::makeStr("hay")})->asInt(), -1);
}

} // namespace
