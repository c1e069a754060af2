//===- tests/syscall/counting_syscalls.cpp - Counting wrappers --*- C++ -*-===//
///
/// \file
/// The linker's --wrap targets for dsu_syscall_tests: every call that
/// dsu_core (a static library) and the tests make to accept4, read,
/// writev, close, epoll_ctl, epoll_wait or setsockopt lands here first
/// and is counted, on a thread between its syscall_pin::startCounting()
/// and stopCounting(), before it goes on to the real function.  fsync
/// lands here too, and fails for directories while failDirFsync() is
/// armed on the calling thread.
///
//===----------------------------------------------------------------------===//

#include "SyscallCount.h"

#include <cerrno>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>

namespace {

thread_local bool Counting = false;
thread_local syscall_pin::Counts Tally;
thread_local bool FailDirFsync = false;

void note(uint64_t syscall_pin::Counts::*Field) {
  if (Counting)
    ++(Tally.*Field);
}

} // namespace

namespace syscall_pin {

void startCounting() {
  Tally = Counts();
  Counting = true;
}

Counts stopCounting() {
  Counting = false;
  return Tally;
}

void failDirFsync(bool Armed) { FailDirFsync = Armed; }

} // namespace syscall_pin

extern "C" {

int __real_accept4(int Fd, sockaddr *Addr, socklen_t *Len, int Flags);
ssize_t __real_read(int Fd, void *Buf, size_t N);
ssize_t __real_writev(int Fd, const iovec *Iov, int NIov);
int __real_close(int Fd);
int __real_epoll_ctl(int EpFd, int Op, int Fd, epoll_event *Ev);
int __real_epoll_wait(int EpFd, epoll_event *Evs, int Max, int TimeoutMs);
int __real_setsockopt(int Fd, int Level, int Name, const void *Val,
                      socklen_t Len);
int __real_fsync(int Fd);

int __wrap_accept4(int Fd, sockaddr *Addr, socklen_t *Len, int Flags) {
  note(&syscall_pin::Counts::Accept4);
  return __real_accept4(Fd, Addr, Len, Flags);
}

ssize_t __wrap_read(int Fd, void *Buf, size_t N) {
  note(&syscall_pin::Counts::Read);
  return __real_read(Fd, Buf, N);
}

ssize_t __wrap_writev(int Fd, const iovec *Iov, int NIov) {
  note(&syscall_pin::Counts::Writev);
  return __real_writev(Fd, Iov, NIov);
}

int __wrap_close(int Fd) {
  note(&syscall_pin::Counts::Close);
  return __real_close(Fd);
}

int __wrap_epoll_ctl(int EpFd, int Op, int Fd, epoll_event *Ev) {
  note(&syscall_pin::Counts::EpollCtl);
  return __real_epoll_ctl(EpFd, Op, Fd, Ev);
}

int __wrap_epoll_wait(int EpFd, epoll_event *Evs, int Max, int TimeoutMs) {
  note(&syscall_pin::Counts::EpollWait);
  return __real_epoll_wait(EpFd, Evs, Max, TimeoutMs);
}

int __wrap_setsockopt(int Fd, int Level, int Name, const void *Val,
                      socklen_t Len) {
  note(&syscall_pin::Counts::Setsockopt);
  return __real_setsockopt(Fd, Level, Name, Val, Len);
}

int __wrap_fsync(int Fd) {
  struct stat St;
  if (FailDirFsync && ::fstat(Fd, &St) == 0 && S_ISDIR(St.st_mode)) {
    errno = EIO;
    return -1;
  }
  return __real_fsync(Fd);
}

} // extern "C"
