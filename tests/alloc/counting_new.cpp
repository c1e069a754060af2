//===- tests/alloc/counting_new.cpp - Counting operator new ----*- C++ -*-===//
///
/// \file
/// Replaces the global operator new and delete for dsu_alloc_tests and
/// counts the operator new calls a thread makes between its
/// alloc_pin::startCounting() and stopCounting().  Memory comes from
/// malloc, so each delete frees.
///
//===----------------------------------------------------------------------===//

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

thread_local bool Counting = false;
thread_local uint64_t Allocations = 0;

void *countedAlloc(std::size_t N) noexcept {
  if (Counting)
    ++Allocations;
  return std::malloc(N ? N : 1);
}

} // namespace

namespace alloc_pin {

void startCounting() {
  Allocations = 0;
  Counting = true;
}

uint64_t stopCounting() {
  Counting = false;
  return Allocations;
}

} // namespace alloc_pin

void *operator new(std::size_t N) {
  if (void *P = countedAlloc(N))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { ::operator delete(P); }
void operator delete(void *P, std::size_t) noexcept { ::operator delete(P); }
void operator delete[](void *P, std::size_t) noexcept {
  ::operator delete(P);
}
void operator delete(void *P, const std::nothrow_t &) noexcept {
  ::operator delete(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  ::operator delete(P);
}
