//===- vtal/Value.h - VTAL runtime values ---------------------*- C++ -*-===//
///
/// \file
/// The runtime value of the VTAL machine: a compact tagged union.  The
/// scalar kinds (int, float, bool) share one 8-byte payload word; strings
/// live behind a refcounted immutable handle so that stack pushes, Dup and
/// Load never copy string bytes.  VTAL has no string mutation opcodes, so
/// sharing the payload is observationally identical to copying it.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_VTAL_VALUE_H
#define DSU_VTAL_VALUE_H

#include "support/SharedStr.h"
#include "vtal/Module.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>

namespace dsu {
namespace vtal {

/// A runtime value of the VTAL machine.
class Value {
public:
  Value() : Kind(ValKind::VK_Unit), I(0) {}

  static Value makeInt(int64_t V) {
    Value X;
    X.Kind = ValKind::VK_Int;
    X.I = V;
    return X;
  }
  static Value makeFloat(double V) {
    Value X;
    X.Kind = ValKind::VK_Float;
    X.F = V;
    return X;
  }
  static Value makeBool(bool V) {
    Value X;
    X.Kind = ValKind::VK_Bool;
    X.B = V;
    return X;
  }
  /// Wraps the shared bytes of \p V without copying them; a std::string
  /// or a literal converts to SharedStr (one move or copy).
  static Value makeStr(SharedStr V) {
    Value X;
    X.Kind = ValKind::VK_Str;
    X.S = std::move(V).shared();
    return X;
  }
  static Value makeUnit() { return Value(); }

  /// The interned empty string — shared by every zero-initialized string
  /// local, so frame setup never allocates.
  static const Value &emptyStr();

  ValKind kind() const { return Kind; }
  int64_t asInt() const {
    assert(Kind == ValKind::VK_Int && "not an int");
    return I;
  }
  double asFloat() const {
    assert(Kind == ValKind::VK_Float && "not a float");
    return F;
  }
  bool asBool() const {
    assert(Kind == ValKind::VK_Bool && "not a bool");
    return B;
  }
  const std::string &asStr() const {
    assert(Kind == ValKind::VK_Str && S && "not a string");
    return *S;
  }
  /// The string's shared bytes, without copying them.
  SharedStr asShared() const {
    assert(Kind == ValKind::VK_Str && S && "not a string");
    return SharedStr(S);
  }

  /// Debug rendering, e.g. "int(42)".
  std::string str() const;

private:
  ValKind Kind;
  union {
    int64_t I;
    double F;
    bool B;
  };
  std::shared_ptr<const std::string> S;
};

} // namespace vtal
} // namespace dsu

#endif // DSU_VTAL_VALUE_H
