//===- support/Json.cpp ---------------------------------------*- C++ -*-===//

#include "support/Json.h"

#include "support/StringUtil.h"

#include <cmath>

using namespace dsu;

JsonWriter &JsonWriter::value(std::string_view V) {
  raw("\"");
  jsonEscapeTo(Out, V);
  Out += '"';
  return *this;
}

JsonWriter &JsonWriter::value(double V, int Decimals) {
  return std::isfinite(V) ? raw(formatString("%.*f", Decimals, V))
                          : raw("null");
}

void dsu::jsonEscapeTo(std::string &Out, std::string_view S) {
  static constexpr char Hex[] = "0123456789abcdef";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (C == '\n' || C == '\r' || C == '\t') {
      Out += '\\';
      Out += C == '\n' ? 'n' : C == '\r' ? 'r' : 't';
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += "\\u00";
      Out += Hex[C >> 4];
      Out += Hex[C & 0xf];
    } else {
      Out += C;
    }
  }
}
