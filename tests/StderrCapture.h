//===- tests/StderrCapture.h - Capture fd 2 into a string -----*- C++ -*-===//
///
/// \file
/// Redirects file descriptor 2 into an unlinked temporary file for the
/// object's lifetime, so a test can read back exactly what the logger
/// wrote.  A file, not a pipe: a pipe fills at 64 KiB and would block
/// writers that nobody drains.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_TESTS_STDERRCAPTURE_H
#define DSU_TESTS_STDERRCAPTURE_H

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

namespace dsu {
namespace testing_support {

class StderrCapture {
public:
  StderrCapture() : File(std::tmpfile()) {
    std::fflush(stderr);
    Saved = ::dup(2);
    ::dup2(::fileno(File), 2);
  }

  ~StderrCapture() {
    restore();
    std::fclose(File);
  }

  /// Puts the original stderr back and returns everything captured.
  std::string finish() {
    restore();
    std::string Out;
    std::rewind(File);
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), File)) != 0)
      Out.append(Buf, N);
    return Out;
  }

  /// The captured text split at newlines (the last, unterminated piece
  /// included when non-empty).
  static std::vector<std::string> lines(const std::string &Text) {
    std::vector<std::string> Lines;
    size_t Start = 0;
    for (size_t I = 0; I != Text.size(); ++I)
      if (Text[I] == '\n') {
        Lines.push_back(Text.substr(Start, I - Start));
        Start = I + 1;
      }
    if (Start != Text.size())
      Lines.push_back(Text.substr(Start));
    return Lines;
  }

private:
  void restore() {
    if (Saved < 0)
      return;
    std::fflush(stderr);
    ::dup2(Saved, 2);
    ::close(Saved);
    Saved = -1;
  }

  std::FILE *File;
  int Saved = -1;
};

} // namespace testing_support
} // namespace dsu

#endif // DSU_TESTS_STDERRCAPTURE_H
