//===- tools/dsu-vtal.cpp - VTAL assembler/verifier CLI -------*- C++ -*-===//
///
/// \file
/// Offline tooling for VTAL patch code:
///
///   dsu-vtal verify <file.vtal>       assemble + verify, report verdict
///   dsu-vtal encode <file.vtal> <out> assemble + verify + emit bytecode
///   dsu-vtal dump <file.vtalbc>       decode bytecode + print assembly
///   dsu-vtal run <file.vtal> <fn> [int args...]   interpret a function
///
/// Mirrors the paper's workflow where patch code is checked before it
/// ever reaches a production process.
///
//===----------------------------------------------------------------------===//

#include "support/MemoryBuffer.h"
#include "vtal/Assembler.h"
#include "vtal/Bytecode.h"
#include "vtal/Interp.h"
#include "vtal/Verifier.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace dsu;
using namespace dsu::vtal;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s verify <file.vtal>\n"
               "       %s encode <file.vtal> <out.vtalbc>\n"
               "       %s dump <file.vtalbc>\n"
               "       %s run <file.vtal> <fn> [int args...]\n",
               Prog, Prog, Prog, Prog);
  return 2;
}

Module loadAsm(const char *Path) {
  Expected<std::string> Text = readFile(Path);
  if (!Text) {
    std::fprintf(stderr, "error: %s\n", Text.error().str().c_str());
    std::exit(1);
  }
  Expected<Module> M = assemble(*Text);
  if (!M) {
    std::fprintf(stderr, "error: %s\n", M.error().str().c_str());
    std::exit(1);
  }
  return std::move(*M);
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 3)
    return usage(argv[0]);
  const char *Cmd = argv[1];

  if (std::strcmp(Cmd, "verify") == 0) {
    Module M = loadAsm(argv[2]);
    VerifyStats Stats;
    if (Error E = verifyModule(M, &Stats)) {
      std::fprintf(stderr, "REJECTED: %s\n", E.str().c_str());
      return 1;
    }
    std::printf("verified: module '%s', %zu function(s), %zu "
                "instruction(s) checked\n",
                M.Name.c_str(), Stats.FunctionsChecked,
                Stats.InstructionsChecked);
    return 0;
  }

  if (std::strcmp(Cmd, "encode") == 0) {
    if (argc < 4)
      return usage(argv[0]);
    Module M = loadAsm(argv[2]);
    if (Error E = verifyModule(M)) {
      std::fprintf(stderr, "REJECTED: %s\n", E.str().c_str());
      return 1;
    }
    std::string Bytes = encodeModule(M);
    if (Error E = writeFile(argv[3], Bytes)) {
      std::fprintf(stderr, "error: %s\n", E.str().c_str());
      return 1;
    }
    std::printf("wrote %zu bytes (%zu stripped) to %s\n", Bytes.size(),
                strippedSize(M), argv[3]);
    return 0;
  }

  if (std::strcmp(Cmd, "dump") == 0) {
    Expected<std::string> Bytes = readFile(argv[2]);
    if (!Bytes) {
      std::fprintf(stderr, "error: %s\n", Bytes.error().str().c_str());
      return 1;
    }
    Expected<Module> M = decodeModule(*Bytes);
    if (!M) {
      std::fprintf(stderr, "error: %s\n", M.error().str().c_str());
      return 1;
    }
    std::printf("%s", M->str().c_str());
    return 0;
  }

  if (std::strcmp(Cmd, "run") == 0) {
    if (argc < 4)
      return usage(argv[0]);
    Module M = loadAsm(argv[2]);
    if (Error E = verifyModule(M)) {
      std::fprintf(stderr, "REJECTED: %s\n", E.str().c_str());
      return 1;
    }
    Interpreter I(M);
    std::vector<Value> Args;
    for (int A = 4; A < argc; ++A)
      Args.push_back(Value::makeInt(std::atoll(argv[A])));
    Expected<Value> R = I.call(argv[3], Args);
    if (!R) {
      std::fprintf(stderr, "trap: %s\n", R.error().str().c_str());
      return 1;
    }
    std::printf("%s (fuel used: %llu)\n", R->str().c_str(),
                static_cast<unsigned long long>(I.lastFuelUsed()));
    return 0;
  }

  return usage(argv[0]);
}
