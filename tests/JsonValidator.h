//===- tests/JsonValidator.h - Strict JSON validator for tests -*- C++ -*-===//
///
/// A strict RFC 8259 recursive-descent validator for the tests that
/// check what the admin plane and dsu-patchlint --json emit.  Besides
/// accepting or rejecting, it records every object's keys in document
/// order under the object's path ("" is the root, "log[]" an element of
/// the root's "log" array, "journal" a nested object), and whether every
/// separator inside the document is the one style: ": " after a key,
/// ", " between members and elements, and no other whitespace.

#ifndef DSU_TESTS_JSONVALIDATOR_H
#define DSU_TESTS_JSONVALIDATOR_H

#include <cctype>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dsu {
namespace testjson {

using Keys = std::vector<std::string>;

struct JsonValidator {
  std::map<std::string, std::vector<Keys>> Shapes; ///< path -> objects
  bool Canonical = true;
  size_t ErrorAt = 0; ///< byte offset of the first syntax error

  bool parse(std::string_view Text) {
    S = Text;
    P = 0;
    Shapes.clear();
    ws(); // whitespace around the document is not a separator
    Canonical = true;
    bool Ok = value("");
    bool C = Canonical;
    ws();
    Canonical = C;
    Ok = Ok && P == S.size();
    ErrorAt = Ok ? 0 : P;
    return Ok;
  }

private:
  std::string_view S;
  size_t P = 0;

  bool eat(char C) { return P < S.size() && S[P] == C && ++P; }
  /// Skips whitespace; the one style allows exactly \p Canon here.
  void ws(std::string_view Canon = "") {
    size_t B = P;
    while (P < S.size() &&
           (S[P] == ' ' || S[P] == '\t' || S[P] == '\n' || S[P] == '\r'))
      ++P;
    Canonical = Canonical && S.substr(B, P - B) == Canon;
  }
  bool digits() {
    size_t B = P;
    while (P < S.size() && std::isdigit(static_cast<unsigned char>(S[P])))
      ++P;
    return P != B;
  }
  bool number() {
    eat('-');
    if (!eat('0') && !digits())
      return false;
    if (eat('.') && !digits())
      return false;
    if (eat('e') || eat('E')) {
      eat('+') || eat('-');
      return digits();
    }
    return true;
  }
  bool string(std::string *Out) {
    if (!eat('"'))
      return false;
    for (; P < S.size() && S[P] != '"'; ++P) {
      unsigned char C = static_cast<unsigned char>(S[P]);
      if (C < 0x20)
        return false;
      if (C == '\\') {
        if (++P == S.size())
          return false;
        if (S[P] == 'u') {
          for (int I = 0; I != 4; ++I)
            if (++P == S.size() ||
                !std::isxdigit(static_cast<unsigned char>(S[P])))
              return false;
        } else if (std::string_view("\"\\/bfnrt").find(S[P]) ==
                   std::string_view::npos) {
          return false;
        }
      }
      if (Out)
        *Out += S[P];
    }
    return eat('"');
  }
  bool literal(std::string_view L) {
    if (S.substr(P, L.size()) != L)
      return false;
    P += L.size();
    return true;
  }
  bool value(const std::string &Path) {
    if (eat('{')) {
      std::vector<Keys> &Here = Shapes[Path];
      size_t Index = Here.size();
      Here.emplace_back();
      ws();
      if (eat('}'))
        return true;
      for (;;) {
        std::string Key;
        if (!string(&Key))
          return false;
        Here[Index].push_back(Key);
        ws();
        if (!eat(':'))
          return false;
        ws(" ");
        if (!value(Path.empty() ? Key : Path + "." + Key))
          return false;
        ws();
        if (!eat(','))
          return eat('}');
        ws(" ");
      }
    }
    if (eat('[')) {
      ws();
      if (eat(']'))
        return true;
      for (;;) {
        if (!value(Path + "[]"))
          return false;
        ws();
        if (!eat(','))
          return eat(']');
        ws(" ");
      }
    }
    if (P < S.size() && S[P] == '"')
      return string(nullptr);
    return literal("true") || literal("false") || literal("null") ||
           number();
  }
};

} // namespace testjson
} // namespace dsu

#endif // DSU_TESTS_JSONVALIDATOR_H
