//===- tests/alloc/test_vtal_share.cpp - Concurrent VTAL callers -*- C++ -*-//
///
/// \file
/// A loaded VTAL module runs on one interpreter that every thread calls
/// directly.  While one call of a provide sits inside a blocking host
/// import, a second thread calls the same provide: it must cost no more
/// operator new calls than a warm call does, so it neither waits for the
/// first call nor links a second copy of the module.
///
/// Only allocations made on the thread under measurement count.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "patch/PatchLoader.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace alloc_pin {
void startCounting();
uint64_t stopCounting();
} // namespace alloc_pin

using namespace dsu;

namespace {

int64_t gateV1(int64_t X) { return X; }

/// f(x) = hold(x) + 1, where the host import blocks while x is 1.  The
/// string local keeps f interpreted (the native tier compiles only
/// string-free frames).
const char *GateManifest = R"dsu(
(patch
  (id "vtal-share-gate")
  (description "a provide whose import can block")
  (provides
    (fn (name "app.gate")
        (type "fn(int) -> int")
        (vtal-fn "f")))
  (vtal-module
"module gate
import app.hold : (int) -> int
func f (x: int) -> int {
  locals (s: string)
  load x
  call app.hold
  push.i 1
  add
  ret
}"))
)dsu";

TEST(VtalSharingAllocTest, ConcurrentCallerAllocatesNoMoreThanAWarmCall) {
  std::mutex Mu;
  std::condition_variable CV;
  bool Held = false, Release = false;

  Runtime RT;
  Updateable<int64_t(int64_t)> Gate =
      cantFail(RT.defineUpdateable("app.gate", &gateV1));
  ASSERT_FALSE(RT.exportHost(
      "app.hold", RT.types().fnType({RT.types().intType()},
                                    RT.types().intType()),
      [&](const std::vector<vtal::Value> &Args) -> Expected<vtal::Value> {
        if (Args[0].asInt() == 1) {
          std::unique_lock<std::mutex> L(Mu);
          Held = true;
          CV.notify_all();
          CV.wait(L, [&] { return Release; });
        }
        return Args[0];
      }));
  Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(), GateManifest);
  ASSERT_TRUE(P) << P.takeError().str();
  ASSERT_FALSE(RT.applyNow(std::move(*P)));

  // A warm call on this thread, alone.
  for (int I = 0; I != 10; ++I)
    ASSERT_EQ(Gate(5), 6);
  alloc_pin::startCounting();
  int64_t Warm = Gate(5);
  uint64_t WarmAllocs = alloc_pin::stopCounting();
  ASSERT_EQ(Warm, 6);

  // The same call while another thread holds a call of the provide
  // inside its host import.
  std::thread Holder([&] { EXPECT_EQ(Gate(1), 2); });
  {
    std::unique_lock<std::mutex> L(Mu);
    CV.wait(L, [&] { return Held; });
  }
  alloc_pin::startCounting();
  int64_t Concurrent = Gate(5);
  uint64_t ConcurrentAllocs = alloc_pin::stopCounting();
  {
    std::lock_guard<std::mutex> L(Mu);
    Release = true;
  }
  CV.notify_all();
  Holder.join();

  EXPECT_EQ(Concurrent, 6);
  EXPECT_LE(ConcurrentAllocs, WarmAllocs)
      << "a concurrent call allocated " << ConcurrentAllocs
      << " times, a warm call " << WarmAllocs;
}

} // namespace
