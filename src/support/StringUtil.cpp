//===- support/StringUtil.cpp ---------------------------------*- C++ -*-===//

#include "support/StringUtil.h"

#include <cctype>
#include <cstdarg>
#include <cstdint>
#include <cstdio>

using namespace dsu;

std::vector<std::string> dsu::splitString(std::string_view S, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Parts.emplace_back(S.substr(Start));
      return Parts;
    }
    Parts.emplace_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string_view dsu::trim(std::string_view S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

bool dsu::startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

bool dsu::endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}

std::string dsu::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out(static_cast<size_t>(Len), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Copy);
  va_end(Copy);
  return Out;
}

bool dsu::parseUInt(std::string_view S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (V > (UINT64_MAX / 2 - Digit) / 10)
      return false;
    V = V * 10 + Digit;
  }
  Out = V;
  return true;
}

std::string dsu::escapeString(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

bool dsu::unescapeString(std::string_view S, std::string &Out) {
  Out.clear();
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\') {
      Out += S[I];
      continue;
    }
    if (++I == S.size())
      return false;
    switch (S[I]) {
    case '"':
      Out += '"';
      break;
    case '\\':
      Out += '\\';
      break;
    case 'n':
      Out += '\n';
      break;
    case 't':
      Out += '\t';
      break;
    default:
      return false;
    }
  }
  return true;
}

void dsu::jsonEscapeTo(std::string &Out, std::string_view S) {
  static constexpr char Hex[] = "0123456789abcdef";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        Out += "\\u00";
        Out += Hex[C >> 4];
        Out += Hex[C & 0xf];
      } else {
        Out += C;
      }
    }
  }
}
