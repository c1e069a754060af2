//===- tests/syscall/SyscallCount.h - Per-thread syscall tally --*- C++ -*-===//
///
/// \file
/// The counters behind dsu_syscall_tests.  The binary is linked with
/// -Wl,--wrap for each counted function (counting_syscalls.cpp), so the
/// counts cover every call the reactor makes, whatever its result.
/// Only calls made on the thread under measurement count.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_TESTS_SYSCALL_SYSCALLCOUNT_H
#define DSU_TESTS_SYSCALL_SYSCALLCOUNT_H

#include <cstdint>

namespace syscall_pin {

struct Counts {
  uint64_t Accept4 = 0;
  uint64_t Read = 0;
  uint64_t Writev = 0;
  uint64_t Close = 0;
  uint64_t EpollCtl = 0;
  uint64_t EpollWait = 0;
  uint64_t Setsockopt = 0;
};

/// Zeroes this thread's counts and starts counting.
void startCounting();

/// Stops counting and returns the counts since startCounting().
Counts stopCounting();

} // namespace syscall_pin

#endif // DSU_TESTS_SYSCALL_SYSCALLCOUNT_H
