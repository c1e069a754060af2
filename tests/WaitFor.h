//===- tests/WaitFor.h - Poll a condition with a deadline -----*- C++ -*-===//
///
/// \file
/// WAIT_FOR(Pred) polls \p Pred every 2 ms for up to 10 s and fails the
/// test (ASSERT, so the enclosing function returns) if it never held.
/// Tests of live pools use it to wait for a state another thread
/// reaches, instead of a fixed sleep that a loaded or sanitized run may
/// outlast.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_TESTS_WAITFOR_H
#define DSU_TESTS_WAITFOR_H

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#define WAIT_FOR(Pred)                                                     \
  do {                                                                     \
    int Spin_ = 0;                                                         \
    while (!(Pred) && Spin_++ != 5000)                                     \
      std::this_thread::sleep_for(std::chrono::milliseconds(2));           \
    ASSERT_TRUE(Pred) << "timed out waiting for: " #Pred;                  \
  } while (0)

#endif // DSU_TESTS_WAITFOR_H
