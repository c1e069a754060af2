//===- tools/dsu-patchlint.cpp - Offline patch-safety linter --*- C++ -*-===//
///
/// \file
/// Runs a patch artifact through the whole-patch update-safety analyzer
/// without a running server: the same passes the staging pipeline runs
/// between manifest parse and the journal Intent, plus the bytecode
/// verifier, against a freshly initialized program image.
///
///   dsu-patchlint [--json] [--env flashed|none] [--fuel N] <file.dsup>...
///
///   --json          machine-readable output (one object; "lint" array
///                   with per-file finding lists) — what the CI lint job
///                   consumes
///   --env flashed   lint against the FlashEd program image (types,
///                   exports, updateable slots, state cells) — the
///                   default, since shipped patches target it
///   --env none      lint against an empty runtime: only self-contained
///                   patches (no imports, no live-slot provides) load
///   --fuel N        fuel budget for the exhaustion pass (default: the
///                   interpreter's 64M budget)
///
/// Exit status: 0 when every file loads, verifies and has no
/// error-severity finding; 1 when any file fails to load/verify or
/// carries an error finding; 2 on usage errors.  Warnings and infos are
/// reported but do not fail the lint.
///
//===----------------------------------------------------------------------===//

#include "analysis/PatchAnalyzer.h"
#include "core/Runtime.h"
#include "flashed/App.h"
#include "patch/PatchLoader.h"
#include "support/MemoryBuffer.h"
#include "support/StringUtil.h"
#include "support/Timer.h"
#include "vtal/Verifier.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace dsu;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--env flashed|none] [--fuel N] "
               "<file.dsup>...\n",
               Argv0);
  return 2;
}

/// Where a finding anchors, e.g. " handle:pc2" — empty for patch-level.
std::string anchor(const analysis::Finding &F) {
  if (F.Fn.empty())
    return "";
  std::string A = " " + F.Fn;
  if (F.HasPC)
    A += formatString(":pc%u", F.PC);
  return A;
}

struct FileResult {
  std::string File;
  std::string PatchId;
  Error LoadErr; ///< load or verify failure (analysis never ran)
  analysis::AnalysisReport Report;
};

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  bool EnvFlashed = true;
  uint64_t Fuel = 0; // 0 = the analyzer's default (the interpreter's)
  std::vector<std::string> Files;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(argv[I], "--env") == 0 && I + 1 < argc) {
      std::string E = argv[++I];
      if (E == "flashed")
        EnvFlashed = true;
      else if (E == "none")
        EnvFlashed = false;
      else {
        std::fprintf(stderr, "error: unknown --env '%s'\n", E.c_str());
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[I], "--fuel") == 0 && I + 1 < argc)
      Fuel = std::strtoull(argv[++I], nullptr, 10);
    else if (argv[I][0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[I]);
      return usage(argv[0]);
    } else
      Files.push_back(argv[I]);
  }
  if (Files.empty())
    return usage(argv[0]);

  // The lint environment: the program image the patches would be
  // staged into.  FlashedApp::init defines the named types, host
  // exports, updateable pipeline slots and the cache state cell —
  // exactly what the in-server analyzer sees on a fresh boot.
  Runtime RT;
  flashed::FlashedApp App(RT);
  if (EnvFlashed) {
    if (Error E = App.init(flashed::DocStore())) {
      std::fprintf(stderr, "error: flashed env init: %s\n",
                   E.str().c_str());
      return 1;
    }
  }

  std::vector<FileResult> Results;
  size_t ErrorsTotal = 0;
  bool AnyFailed = false;
  for (const std::string &File : Files) {
    FileResult FR;
    FR.File = File;
    Expected<std::string> Text = readFile(File.c_str());
    if (!Text) {
      FR.LoadErr = Text.takeError();
    } else {
      Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(), *Text,
                                        File);
      if (!P) {
        FR.LoadErr = P.takeError();
      } else {
        FR.PatchId = P->Id;
        // The verifier runs first, as it does at stage time; its
        // diagnostics now carry the offending instruction's text.
        if (P->VtalMod)
          FR.LoadErr = vtal::verifyModule(*P->VtalMod);
        if (!FR.LoadErr) {
          Timer T;
          analysis::AnalyzerEnv Env{RT.types(), RT.transformers(),
                                    RT.exports(), RT.updateables(),
                                    RT.state()};
          FR.Report = analysis::analyzePatch(*P, Env, Fuel);
          FR.Report.AnalysisMs = T.elapsedMs();
        }
      }
    }
    if (FR.LoadErr || FR.Report.errorCount())
      AnyFailed = true;
    ErrorsTotal += FR.Report.errorCount();
    Results.push_back(std::move(FR));
  }

  if (Json) {
    std::string J = "{\n  \"lint\": [";
    bool FirstFile = true;
    for (const FileResult &FR : Results) {
      J += FirstFile ? "\n" : ",\n";
      FirstFile = false;
      J += "    {\"file\": \"";
      jsonEscapeTo(J, FR.File);
      J += "\", \"patch\": \"";
      jsonEscapeTo(J, FR.PatchId);
      J += "\"";
      if (FR.LoadErr) {
        J += ", \"ok\": false, \"load_error\": \"";
        jsonEscapeTo(J, FR.LoadErr.str());
        J += "\"}";
        continue;
      }
      const analysis::AnalysisReport &R = FR.Report;
      J += formatString(", \"ok\": %s, \"errors\": %zu, "
                        "\"warnings\": %zu, \"analysis_ms\": %.3f, "
                        "\"code_only_predicted\": %s, \"findings\": [",
                        R.errorCount() ? "false" : "true", R.errorCount(),
                        R.warningCount(), R.AnalysisMs,
                        R.CodeOnlyPredicted ? "true" : "false");
      bool FirstF = true;
      for (const analysis::Finding &F : R.Findings) {
        J += FirstF ? "" : ", ";
        FirstF = false;
        J += "{\"severity\": \"";
        J += analysis::severityName(F.Sev);
        J += "\", \"code\": \"";
        jsonEscapeTo(J, F.Code);
        J += "\", \"message\": \"";
        jsonEscapeTo(J, F.Message);
        J += '"';
        if (!F.Fn.empty()) {
          J += ", \"fn\": \"";
          jsonEscapeTo(J, F.Fn);
          J += '"';
        }
        if (F.HasPC)
          J += formatString(", \"pc\": %u", F.PC);
        J += '}';
      }
      J += "]}";
    }
    J += formatString("\n  ],\n  \"errors_total\": %zu,\n  \"ok\": %s\n}\n",
                      ErrorsTotal, AnyFailed ? "false" : "true");
    std::printf("%s", J.c_str());
    return AnyFailed ? 1 : 0;
  }

  for (const FileResult &FR : Results) {
    if (FR.LoadErr) {
      std::printf("%s: error: %s\n", FR.File.c_str(),
                  FR.LoadErr.str().c_str());
      continue;
    }
    const analysis::AnalysisReport &R = FR.Report;
    for (const analysis::Finding &F : R.Findings)
      std::printf("%s: %s[%s]%s: %s\n", FR.File.c_str(),
                  analysis::severityName(F.Sev), F.Code.c_str(),
                  anchor(F).c_str(), F.Message.c_str());
    std::printf("%s: patch %s: %zu error(s), %zu warning(s), %zu "
                "finding(s) total, %s commit predicted (%.2f ms)\n",
                FR.File.c_str(), FR.PatchId.c_str(), R.errorCount(),
                R.warningCount(), R.Findings.size(),
                R.CodeOnlyPredicted ? "code-only" : "state-migrating",
                R.AnalysisMs);
  }
  return AnyFailed ? 1 : 0;
}
