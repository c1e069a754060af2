//===- support/Json.h - The one JSON writer -------------------*- C++ -*-===//
///
/// \file
/// The one owner of JSON syntax: a writer that appends to a std::string
/// in the single style every consumer reads — `"k": v` members, `", "`
/// between members and elements, no other whitespace (dsu-updatectl's
/// flat field readers rely on it).  Calls chain:
///
///   JsonWriter(Out).beginObject().key("ms").value(Ms, 3).endObject();
///
/// The writer only tracks whether the next item needs a separator; the
/// caller closes what it opens.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_SUPPORT_JSON_H
#define DSU_SUPPORT_JSON_H

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace dsu {

class JsonWriter {
public:
  explicit JsonWriter(std::string &Out) : Out(Out) {}

  JsonWriter &beginObject() { return open("{"); }
  JsonWriter &endObject() { return close('}'); }
  JsonWriter &beginArray() { return open("["); }
  JsonWriter &endArray() { return close(']'); }

  /// A member key; the next call writes its value.
  JsonWriter &key(std::string_view K) {
    value(K);
    Out += ": ";
    NeedComma = false;
    return *this;
  }

  JsonWriter &value(bool V) { return raw(V ? "true" : "false"); }
  /// A string, escaped by jsonEscapeTo().
  JsonWriter &value(std::string_view V);
  JsonWriter &value(const char *V) { return value(std::string_view(V)); }
  /// Fixed point with \p Decimals digits after the point; `null` when
  /// \p V is not finite.
  JsonWriter &value(double V, int Decimals);
  JsonWriter &value(double V) = delete; // say how many decimals
  /// Any integer (uint64_t, int64_t or narrower), in decimal.
  template <typename T>
  std::enable_if_t<std::is_integral_v<T>, JsonWriter &> value(T V) {
    char Buf[24];
    char *End = std::to_chars(Buf, Buf + sizeof(Buf), V).ptr;
    return raw(std::string_view(Buf, static_cast<size_t>(End - Buf)));
  }

private:
  /// Writes one item, after ", " unless it is the first in its
  /// container or a member's value.
  JsonWriter &raw(std::string_view Text) {
    if (NeedComma)
      Out += ", ";
    Out += Text;
    NeedComma = true;
    return *this;
  }
  /// Like raw(), but what follows needs no separator.
  JsonWriter &open(std::string_view Text) {
    raw(Text);
    NeedComma = false;
    return *this;
  }
  JsonWriter &close(char C) {
    Out += C;
    NeedComma = true;
    return *this;
  }

  std::string &Out;
  bool NeedComma = false;
};

/// Appends \p S to \p Out escaped for the inside of a JSON string
/// literal: '"' and '\\' are backslash-escaped, '\n' '\r' '\t' use their
/// short forms, and every other byte below 0x20 becomes \u00XX.
void jsonEscapeTo(std::string &Out, std::string_view S);

} // namespace dsu

#endif // DSU_SUPPORT_JSON_H
