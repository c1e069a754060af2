//===- patches/p1_parsefix.cpp - Native patch P1 --------------*- C++ -*-===//
///
/// \file
/// The native (dlopen) form of FlashEd patch P1: parse_target learns to
/// strip query strings and fragments.  This is the exact artifact shape
/// the PLDI 2001 system ships — new code for one function plus a
/// manifest, dynamically loaded and relinked into the running server.
///
/// Self-contained on purpose: a dynamic patch carries its own code, not
/// a copy of the program (which is why the artifact stays small — the
/// code-size experiment E5 reports this file's size).  Every export uses
/// C linkage and the dsu uniform invoker ABI (see src/patch/NativeAbi.h).
///
//===----------------------------------------------------------------------===//

#include "patch/NativeAbi.h"

#include <string>

namespace {

const char *Manifest = R"dsu(
(patch
  (id "P1-parse-query-fix-native")
  (description "bugfix: strip query strings in parse_target (dlopen build)")
  (provides
    (fn (name "flashed.parse_target")
        (type "fn(string) -> string")
        (native-symbol "dsu_p1_parse_target"))))
)dsu";

/// Returns "METHOD TARGET" from the request head, or "!NNN reason".
/// This is the v2 algorithm: identical to v1 except that the target is
/// truncated at the first '?' or '#'.
std::string parseTargetV2(const std::string &Raw) {
  size_t LineEnd = Raw.find('\n');
  std::string Line =
      LineEnd == std::string::npos ? Raw : Raw.substr(0, LineEnd);
  if (!Line.empty() && Line.back() == '\r')
    Line.pop_back();

  size_t Sp1 = Line.find(' ');
  if (Sp1 == std::string::npos || Sp1 == 0)
    return "!400 malformed request";
  std::string Method = Line.substr(0, Sp1);
  if (Method != "GET" && Method != "HEAD")
    return "!405 method not allowed";

  size_t Sp2 = Line.find(' ', Sp1 + 1);
  std::string Target =
      Sp2 == std::string::npos ? Line.substr(Sp1 + 1)
                               : Line.substr(Sp1 + 1, Sp2 - Sp1 - 1);
  if (Target.empty())
    return "!400 malformed request";

  // The fix: drop query strings and fragments.
  size_t Q = Target.find_first_of("?#");
  if (Q != std::string::npos)
    Target.resize(Q);
  return Method + " " + Target;
}

} // namespace

extern "C" const char *dsu_patch_manifest() { return Manifest; }

/// Uniform ABI: fn(string) -> string becomes
/// std::string(void *reserved, std::string).
extern "C" dsu::SharedStr dsu_p1_parse_target(void *, dsu::SharedStr Raw) {
  return parseTargetV2(Raw);
}
