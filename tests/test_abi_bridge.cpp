//===- tests/test_abi_bridge.cpp - Marshalling bridge tests ---*- C++ -*-===//
///
/// The bridge between patch-code backends and the uniform Binding ABI:
/// the runtime trampoline table, value marshalling, and trap containment.

#include "patch/AbiBridge.h"
#include "runtime/Updateable.h"
#include "support/Logging.h"
#include "types/TypeParser.h"

#include "StderrCapture.h"

#include <gtest/gtest.h>

using namespace dsu;
using vtal::Value;

namespace {

class AbiBridgeTest : public ::testing::Test {
protected:
  const Type *ty(const char *Text) {
    return cantFail(parseType(Ctx, Text), Text);
  }
  TypeContext Ctx;
  UpdateableRegistry Reg;
};

TEST_F(AbiBridgeTest, BridgeableTable) {
  // Everything scalar up to arity 2, plus the curated arity-3 set.
  EXPECT_TRUE(isBridgeableFnType(ty("fn() -> unit")));
  EXPECT_TRUE(isBridgeableFnType(ty("fn() -> int")));
  EXPECT_TRUE(isBridgeableFnType(ty("fn(string) -> string")));
  EXPECT_TRUE(isBridgeableFnType(ty("fn(int, float) -> bool")));
  EXPECT_TRUE(isBridgeableFnType(ty("fn(bool, string) -> float")));
  EXPECT_TRUE(isBridgeableFnType(ty("fn(string, string, int) -> string")));
  EXPECT_TRUE(isBridgeableFnType(ty("fn(int, int, int) -> int")));

  // Outside the table.
  EXPECT_FALSE(isBridgeableFnType(ty("fn(%rec@1) -> int")));
  EXPECT_FALSE(isBridgeableFnType(ty("fn(int, int, int, int) -> int")));
  EXPECT_FALSE(isBridgeableFnType(ty("fn(array<int>) -> int")));
  EXPECT_FALSE(isBridgeableFnType(ty("int")));
  EXPECT_FALSE(isBridgeableFnType(nullptr));
}

TEST_F(AbiBridgeTest, ValueBindingMarshalsEachKind) {
  // fn(int, string) -> string through the Value-level implementation.
  const Type *FnTy = ty("fn(int, string) -> string");
  Binding B = cantFail(makeValueBinding(
      Ctx, FnTy,
      [](const std::vector<Value> &Args) -> Expected<Value> {
        return Value::makeStr(Args[1].asStr() + ":" +
                              std::to_string(Args[0].asInt()));
      },
      1, "test"));
  UpdateableSlot *Slot = cantFail(Reg.define("f", FnTy, std::move(B)));
  Updateable<SharedStr(int64_t, SharedStr)> H(Slot);
  EXPECT_EQ(H(42, "answer"), "answer:42");
}

TEST_F(AbiBridgeTest, ValueBindingFloatAndBool) {
  const Type *FnTy = ty("fn(float, bool) -> float");
  Binding B = cantFail(makeValueBinding(
      Ctx, FnTy,
      [](const std::vector<Value> &Args) -> Expected<Value> {
        return Value::makeFloat(Args[1].asBool() ? Args[0].asFloat() * 2
                                                 : 0.0);
      },
      1, "test"));
  UpdateableSlot *Slot = cantFail(Reg.define("g", FnTy, std::move(B)));
  Updateable<double(double, bool)> H(Slot);
  EXPECT_DOUBLE_EQ(H(1.25, true), 2.5);
  EXPECT_DOUBLE_EQ(H(1.25, false), 0.0);
}

TEST_F(AbiBridgeTest, UnitResultBinding) {
  const Type *FnTy = ty("fn(string) -> unit");
  int Calls = 0;
  Binding B = cantFail(makeValueBinding(
      Ctx, FnTy,
      [&Calls](const std::vector<Value> &) -> Expected<Value> {
        ++Calls;
        return Value::makeUnit();
      },
      1, "test"));
  UpdateableSlot *Slot = cantFail(Reg.define("h", FnTy, std::move(B)));
  Updateable<void(SharedStr)> H(Slot);
  H("x");
  H("y");
  EXPECT_EQ(Calls, 2);
}

TEST_F(AbiBridgeTest, TrapContained) {
  // A trapping implementation yields the result type's zero value and
  // must not crash or corrupt the caller.
  const Type *FnTy = ty("fn(int) -> int");
  Binding B = cantFail(makeValueBinding(
      Ctx, FnTy,
      [](const std::vector<Value> &) -> Expected<Value> {
        return Error::make(ErrorCode::EC_Invalid, "division by zero");
      },
      1, "test"));
  UpdateableSlot *Slot = cantFail(Reg.define("t", FnTy, std::move(B)));
  Updateable<int64_t(int64_t)> H(Slot);
  EXPECT_EQ(H(5), 0);
}

TEST_F(AbiBridgeTest, TrapLogIsBoundedButTheCountIsExact) {
  // A patch that traps on every request must not write a line per
  // request on the serving thread: the first trap and each power of two
  // are logged (1, 2, 4, ..., 512 for 1000 traps), every trap counted.
  const Type *FnTy = ty("fn(int) -> int");
  Binding B = cantFail(makeValueBinding(
      Ctx, FnTy,
      [](const std::vector<Value> &) -> Expected<Value> {
        return Error::make(ErrorCode::EC_Invalid, "division by zero");
      },
      1, "test"));
  UpdateableSlot *Slot = cantFail(Reg.define("t", FnTy, std::move(B)));
  Updateable<int64_t(int64_t)> H(Slot);
  LogLevel Saved = logLevel();
  setLogLevel(LL_Error);
  testing_support::StderrCapture Capture;
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(H(I), 0);
  std::string Text = Capture.finish();
  setLogLevel(Saved);
  EXPECT_EQ(Slot->newest()->trapCount(), 1000u);
  size_t Lines = 0;
  for (const std::string &L : testing_support::StderrCapture::lines(Text))
    if (L.find("patch code trapped") != std::string::npos)
      ++Lines;
  EXPECT_GE(Lines, 1u);
  EXPECT_LE(Lines, 11u) << Text;
}

TEST_F(AbiBridgeTest, StringsCrossAsPointers) {
  // fn(string) -> string returning its argument: the bytes the caller
  // passed come back as the same object, in both directions.
  const Type *FnTy = ty("fn(string) -> string");
  Binding B = cantFail(makeValueBinding(
      Ctx, FnTy,
      [](const std::vector<Value> &Args) -> Expected<Value> {
        return Args[0];
      },
      1, "test"));
  UpdateableSlot *Slot = cantFail(Reg.define("id", FnTy, std::move(B)));
  Updateable<SharedStr(SharedStr)> H(Slot);
  SharedStr In(std::string(4096, 'b'));
  EXPECT_EQ(H(In).shared(), In.shared());
}

TEST_F(AbiBridgeTest, TrappedStringStageYieldsEmptyString) {
  const Type *FnTy = ty("fn(string) -> string");
  Binding B = cantFail(makeValueBinding(
      Ctx, FnTy,
      [](const std::vector<Value> &) -> Expected<Value> {
        return Error::make(ErrorCode::EC_Invalid, "division by zero");
      },
      1, "test"));
  UpdateableSlot *Slot = cantFail(Reg.define("trap", FnTy, std::move(B)));
  Updateable<SharedStr(SharedStr)> H(Slot);
  SharedStr R = H("x");
  EXPECT_EQ(R, "");
  ASSERT_NE(R.shared(), nullptr);
}

TEST_F(AbiBridgeTest, UnsupportedSignatureFailsCleanly) {
  Expected<Binding> B = makeValueBinding(
      Ctx, ty("fn(int, int, int, int) -> int"),
      [](const std::vector<Value> &) -> Expected<Value> {
        return Value::makeInt(0);
      },
      1, "test");
  ASSERT_FALSE(B);
  EXPECT_EQ(B.error().code(), ErrorCode::EC_Unsupported);
}

TEST_F(AbiBridgeTest, UniformBindingValidation) {
  EXPECT_FALSE(makeUniformBinding(ty("int"), reinterpret_cast<void *>(1),
                                  1, "x"));
  EXPECT_FALSE(makeUniformBinding(ty("fn() -> unit"), nullptr, 1, "x"));
  Expected<Binding> B = makeUniformBinding(
      ty("fn() -> unit"), reinterpret_cast<void *>(1), 3, "origin");
  ASSERT_TRUE(B);
  EXPECT_EQ(B->Version, 3u);
  EXPECT_EQ(B->Origin, "origin");
  EXPECT_EQ(B->Ctx, B->Invoker);
}

} // namespace
