//===- support/Hashing.h - Stable fingerprints ----------------*- C++ -*-===//
///
/// \file
/// 64-bit FNV-1a based fingerprints.  Type descriptors and code bodies are
/// fingerprinted so the dynamic linker can compare them cheaply across a
/// patch boundary, exactly where the PLDI 2001 system compares TAL type
/// annotations at link time.  Fingerprints are stable across processes so
/// they can be embedded in patch files.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_SUPPORT_HASHING_H
#define DSU_SUPPORT_HASHING_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace dsu {

/// A 64-bit stable content fingerprint.
class Fingerprint {
public:
  static constexpr uint64_t FNVOffset = 1469598103934665603ull;
  static constexpr uint64_t FNVPrime = 1099511628211ull;

  Fingerprint() = default;
  explicit Fingerprint(uint64_t Raw) : State(Raw) {}

  /// Mixes \p Size bytes at \p Data into the fingerprint.
  Fingerprint &addBytes(const void *Data, size_t Size) {
    const auto *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != Size; ++I) {
      State ^= P[I];
      State *= FNVPrime;
    }
    return *this;
  }

  Fingerprint &addString(std::string_view S) {
    addBytes(S.data(), S.size());
    // Mix in the length so that ("ab","c") != ("a","bc").
    return addU64(S.size());
  }

  Fingerprint &addU64(uint64_t V) {
    unsigned char Buf[8];
    std::memcpy(Buf, &V, 8);
    return addBytes(Buf, 8);
  }

  uint64_t value() const { return State; }

  friend bool operator==(Fingerprint A, Fingerprint B) {
    return A.State == B.State;
  }
  friend bool operator!=(Fingerprint A, Fingerprint B) { return !(A == B); }

  /// Renders as 16 lowercase hex digits.
  std::string hex() const;

private:
  uint64_t State = FNVOffset;
};

/// Convenience: fingerprint of a single string.
inline uint64_t fingerprintString(std::string_view S) {
  return Fingerprint().addString(S).value();
}

} // namespace dsu

#endif // DSU_SUPPORT_HASHING_H
