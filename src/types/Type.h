//===- types/Type.h - Structural type descriptors -------------*- C++ -*-===//
///
/// \file
/// The type language used for type-safe dynamic updating.
///
/// The PLDI 2001 system attaches TAL types to every symbol a patch imports
/// or exports and checks them at dynamic-link time; named (nominal) type
/// definitions are versioned, and changing a definition requires a state
/// transformer.  This module provides the same machinery for the C++
/// reproduction: a small structural type language with versioned named
/// types, hash-consed in a TypeContext so equality is pointer equality.
///
/// Grammar (concrete syntax accepted by TypeParser and produced by
/// Type::str()):
/// \code
///   type := int | bool | float | string | unit
///         | ptr<type> | array<type>
///         | { field : type , ... }          (struct)
///         | fn(type, ...) -> type           (function)
///         | %name@version                   (named nominal type)
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DSU_TYPES_TYPE_H
#define DSU_TYPES_TYPE_H

#include "support/Error.h"
#include "support/Hashing.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dsu {

class TypeContext;

/// A name together with a definition version; the unit of nominal typing.
/// The PLDI 2001 patch model bumps the version when a type's representation
/// changes, and demands a transformer %name@V -> %name@(V+1).
struct VersionedName {
  std::string Name;
  uint32_t Version = 1;

  friend bool operator==(const VersionedName &A, const VersionedName &B) {
    return A.Version == B.Version && A.Name == B.Name;
  }
  friend bool operator<(const VersionedName &A, const VersionedName &B) {
    if (A.Name != B.Name)
      return A.Name < B.Name;
    return A.Version < B.Version;
  }

  /// Renders "%name@version".
  std::string str() const;
};

/// An immutable, interned type descriptor.  Instances are created only by
/// TypeContext; equality of descriptors within one context is pointer
/// equality.
class Type {
public:
  enum KindTy {
    TK_Int,
    TK_Bool,
    TK_Float,
    TK_String,
    TK_Unit,
    TK_Ptr,
    TK_Array,
    TK_Struct,
    TK_Fn,
    TK_Named,
  };

  /// One member of a struct type.
  struct Field {
    std::string Name;
    const Type *Ty;
  };

  KindTy kind() const { return Kind; }
  bool isFunction() const { return Kind == TK_Fn; }

  /// Element type of a ptr or array.
  const Type *element() const {
    assert((Kind == TK_Ptr || Kind == TK_Array) && "no element type");
    return Elem;
  }

  const std::vector<Field> &fields() const {
    assert(Kind == TK_Struct && "not a struct type");
    return Fields;
  }

  /// Returns the struct field named \p Name, or nullptr.
  const Field *findField(std::string_view Name) const;

  const std::vector<const Type *> &params() const {
    assert(Kind == TK_Fn && "not a function type");
    return Params;
  }
  const Type *result() const {
    assert(Kind == TK_Fn && "not a function type");
    return Ret;
  }

  const VersionedName &name() const {
    assert(Kind == TK_Named && "not a named type");
    return NamedName;
  }

  /// Canonical textual form; parseable by TypeParser.
  const std::string &str() const { return Canonical; }

  /// Stable 64-bit fingerprint of the canonical form.  Named types
  /// fingerprint nominally (name and version only), mirroring how the
  /// paper's link-time check treats abstract type names.
  uint64_t fingerprint() const { return Print; }

private:
  friend class TypeContext;
  Type() = default;
  Type(const Type &) = delete;
  Type &operator=(const Type &) = delete;

  KindTy Kind = TK_Unit;
  const Type *Elem = nullptr;
  std::vector<Field> Fields;
  std::vector<const Type *> Params;
  const Type *Ret = nullptr;
  VersionedName NamedName;
  std::string Canonical;
  uint64_t Print = 0;
};

/// Owns and hash-conses Type nodes, and records definitions for named
/// types.  All types flowing through one dsu::Runtime share one context.
///
/// Thread-safe: interning and definition lookups take an internal mutex,
/// so update transactions may be staged (which parses and defines patch
/// types) on any thread while the update thread links and commits.  Type
/// nodes themselves are immutable once interned, so holding a const
/// Type* never requires the lock.
class TypeContext {
public:
  TypeContext();
  TypeContext(const TypeContext &) = delete;
  TypeContext &operator=(const TypeContext &) = delete;

  const Type *intType() const { return IntTy; }
  const Type *boolType() const { return BoolTy; }
  const Type *floatType() const { return FloatTy; }
  const Type *stringType() const { return StringTy; }
  const Type *unitType() const { return UnitTy; }

  const Type *ptrType(const Type *Elem);
  const Type *arrayType(const Type *Elem);
  const Type *structType(std::vector<Type::Field> Fields);
  const Type *fnType(std::vector<const Type *> Params, const Type *Ret);
  const Type *namedType(const VersionedName &Name);
  const Type *namedType(std::string Name, uint32_t Version) {
    return namedType(VersionedName{std::move(Name), Version});
  }

  /// Binds the representation \p Def to the nominal name \p Name.
  /// Rebinding the same name@version to a different representation fails:
  /// definitions are immutable, new representations need a version bump.
  Error defineNamed(const VersionedName &Name, const Type *Def);

  /// Returns the representation bound to \p Name, or nullptr.
  const Type *lookupDefinition(const VersionedName &Name) const;

  /// Highest version defined for \p Name, or 0 when undefined.
  uint32_t latestVersion(const std::string &Name) const;

  /// Number of distinct interned types (monitoring/testing hook).
  size_t numInternedTypes() const;

private:
  const Type *intern(std::unique_ptr<Type> T);
  const Type *makePrim(Type::KindTy K, const char *Spelling);

  mutable std::mutex Lock;
  std::map<std::string, std::unique_ptr<Type>> Interned;
  std::map<VersionedName, const Type *> Definitions;

  const Type *IntTy, *BoolTy, *FloatTy, *StringTy, *UnitTy;
};

} // namespace dsu

#endif // DSU_TYPES_TYPE_H
