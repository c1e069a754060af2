//===- support/Logging.cpp ------------------------------------*- C++ -*-===//

#include "support/Logging.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace dsu;

namespace {

LogLevel initialLevel() {
  if (const char *Env = std::getenv("DSU_LOG_LEVEL")) {
    int V = std::atoi(Env);
    if (V >= LL_Error && V <= LL_Debug)
      return static_cast<LogLevel>(V);
  }
  return LL_Warning;
}

std::atomic<int> GLevel{initialLevel()};

const char *levelName(LogLevel L) {
  switch (L) {
  case LL_Error:
    return "error";
  case LL_Warning:
    return "warn";
  case LL_Info:
    return "info";
  case LL_Debug:
    return "debug";
  }
  return "?";
}

} // namespace

void dsu::setLogLevel(LogLevel Level) { GLevel.store(Level); }

LogLevel dsu::logLevel() { return static_cast<LogLevel>(GLevel.load()); }

void dsu::logMessage(LogLevel Level, const char *Fmt, ...) {
  if (Level > GLevel.load(std::memory_order_relaxed))
    return;
  // One line, one write: the prefix, the message and the newline are
  // formatted into one buffer, so lines from concurrent threads never
  // interleave on the unbuffered stderr.
  char Stack[512];
  int Prefix = std::snprintf(Stack, sizeof(Stack), "[dsu:%s] ",
                             levelName(Level));
  va_list Args;
  va_start(Args, Fmt);
  va_list Again;
  va_copy(Again, Args);
  int Len = std::vsnprintf(Stack + Prefix, sizeof(Stack) - Prefix, Fmt, Args);
  va_end(Args);
  if (Len < 0) {
    va_end(Again);
    return;
  }
  size_t Total = static_cast<size_t>(Prefix) + static_cast<size_t>(Len) + 1;
  std::string Heap;
  char *Line = Stack;
  if (Total > sizeof(Stack)) {
    Heap.assign(Stack, static_cast<size_t>(Prefix));
    Heap.resize(Total);
    std::vsnprintf(&Heap[static_cast<size_t>(Prefix)],
                   static_cast<size_t>(Len) + 1, Fmt, Again);
    Line = &Heap[0];
  }
  va_end(Again);
  Line[Total - 1] = '\n';
  std::fwrite(Line, 1, Total, stderr);
}
