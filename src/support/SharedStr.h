//===- support/SharedStr.h - The dsu string at the call boundary -*- C++ -*-=//
///
/// \file
/// SharedStr is the one C++ form of the dsu type `string` wherever it
/// crosses the updateable boundary: handle arguments and results, the
/// uniform native ABI, and the VTAL marshalling trampolines.  It is an
/// immutable, never-null, reference-counted string.  Passing one along
/// copies a pointer, not bytes: a document held in a cache or document
/// store (a shared_ptr<const std::string>) is wrapped as is, and the
/// same bytes come back out through shared().
///
/// Building one from a std::string or a literal moves or copies the
/// bytes once into a new shared buffer; the default value is the empty
/// string, never a null pointer.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_SUPPORT_SHAREDSTR_H
#define DSU_SUPPORT_SHAREDSTR_H

#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace dsu {

class SharedStr {
  template <typename T>
  using IfStringLike = std::enable_if_t<
      !std::is_same_v<T, SharedStr> &&
      std::is_convertible_v<const T &, std::string_view>>;

public:
  using Ptr = std::shared_ptr<const std::string>;

  /// The empty string.
  SharedStr() : P(emptyPtr()) {}
  /// Wraps \p Body without copying it; a null pointer reads as "".
  SharedStr(Ptr Body) : P(Body ? std::move(Body) : emptyPtr()) {}
  SharedStr(std::string S)
      : P(std::make_shared<const std::string>(std::move(S))) {}
  SharedStr(const char *S) : SharedStr(std::string(S)) {}
  explicit SharedStr(std::string_view S) : SharedStr(std::string(S)) {}

  size_t size() const { return P->size(); }
  bool empty() const { return P->empty(); }
  const char *data() const { return P->data(); }
  const char *c_str() const { return P->c_str(); }
  const std::string &str() const { return *P; }
  /// The shared bytes themselves (never null).
  const Ptr &shared() const & { return P; }
  Ptr shared() && { return std::move(P); }

  operator std::string_view() const { return *P; }
  operator const std::string &() const { return *P; }

  friend bool operator==(const SharedStr &A, const SharedStr &B) {
    return A.P == B.P || *A.P == *B.P;
  }
  friend bool operator!=(const SharedStr &A, const SharedStr &B) {
    return !(A == B);
  }
  // Exact-match overloads against any string-like type, so comparing
  // with a literal or a std::string picks neither conversion.
  template <typename T, typename = IfStringLike<T>>
  friend bool operator==(const SharedStr &A, const T &B) {
    return std::string_view(*A.P) == std::string_view(B);
  }
  template <typename T, typename = IfStringLike<T>>
  friend bool operator==(const T &A, const SharedStr &B) {
    return B == A;
  }
  template <typename T, typename = IfStringLike<T>>
  friend bool operator!=(const SharedStr &A, const T &B) {
    return !(A == B);
  }
  template <typename T, typename = IfStringLike<T>>
  friend bool operator!=(const T &A, const SharedStr &B) {
    return !(B == A);
  }

  friend std::ostream &operator<<(std::ostream &OS, const SharedStr &S) {
    return OS << *S.P;
  }

private:
  static const Ptr &emptyPtr() {
    static const Ptr E = std::make_shared<const std::string>();
    return E;
  }

  Ptr P;
};

} // namespace dsu

#endif // DSU_SUPPORT_SHAREDSTR_H
