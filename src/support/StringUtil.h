//===- support/StringUtil.h - Small string helpers ------------*- C++ -*-===//
///
/// \file
/// String helpers used across the project: splitting, trimming, prefix and
/// suffix tests, printf-style formatting into std::string, and escaping
/// for s-expression atoms and JSON string literals.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_SUPPORT_STRINGUTIL_H
#define DSU_SUPPORT_STRINGUTIL_H

#include <string>
#include <string_view>
#include <vector>

namespace dsu {

/// Splits \p S on \p Sep.  Empty pieces are kept, so "a,,b" yields three
/// elements; callers that want to skip blanks filter afterwards.
std::vector<std::string> splitString(std::string_view S, char Sep);

/// Returns \p S without leading/trailing ASCII whitespace.
std::string_view trim(std::string_view S);

bool startsWith(std::string_view S, std::string_view Prefix);
bool endsWith(std::string_view S, std::string_view Suffix);

/// printf into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses a non-negative decimal integer; returns false on any non-digit
/// byte or overflow past 2^63-1.
bool parseUInt(std::string_view S, uint64_t &Out);

/// Escapes a string for embedding in a quoted s-expression atom.
std::string escapeString(std::string_view S);

/// Reverses escapeString; returns false on a malformed escape.
bool unescapeString(std::string_view S, std::string &Out);

/// Appends \p S to \p Out escaped for the inside of a JSON string
/// literal: '"' and '\\' are backslash-escaped, '\n' '\r' '\t' use their
/// short forms, and every other byte below 0x20 becomes \u00XX.
void jsonEscapeTo(std::string &Out, std::string_view S);

} // namespace dsu

#endif // DSU_SUPPORT_STRINGUTIL_H
