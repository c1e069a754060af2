//===- vtal/Module.h - VTAL module representation -------------*- C++ -*-===//
///
/// \file
/// In-memory representation of a VTAL module: functions with typed
/// signatures and named locals, plus typed imports.  A module is the unit
/// of patch code shipment — the analogue of a TAL object file in the
/// PLDI 2001 system.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_VTAL_MODULE_H
#define DSU_VTAL_MODULE_H

#include "support/Error.h"
#include "support/Hashing.h"
#include "vtal/Opcode.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dsu {

class Type;
class TypeContext;

namespace vtal {

/// Scalar value kinds of the VTAL machine.
enum class ValKind : uint8_t {
  VK_Int,
  VK_Float,
  VK_Bool,
  VK_Str,
  VK_Unit, ///< only valid as a function result
};

/// Returns "int", "float", "bool", "string" or "unit".
const char *valKindName(ValKind K);

/// Maps a VTAL scalar kind to the corresponding dsu type descriptor.
const Type *valKindToType(TypeContext &Ctx, ValKind K);

/// A function signature over scalar kinds.
struct Signature {
  std::vector<ValKind> Params;
  ValKind Result = ValKind::VK_Unit;

  /// Renders "(int, float) -> bool".
  std::string str() const;

  /// Lifts to a dsu function type for link-time checking.
  const Type *toType(TypeContext &Ctx) const;

  friend bool operator==(const Signature &A, const Signature &B) {
    return A.Result == B.Result && A.Params == B.Params;
  }
};

/// One decoded instruction.  Operand fields are used according to
/// opcodeOperand(Op); unused fields stay at their defaults.
struct Instruction {
  Opcode Op = Opcode::Ret;
  int64_t IntOp = 0;     ///< OK_Int / OK_Bool (0 or 1)
  double FloatOp = 0.0;  ///< OK_Float
  std::string StrOp;     ///< OK_Str / OK_Func; local/label *name* in asm
  uint32_t Index = 0;    ///< OK_Local: local slot; OK_Label: target pc

  /// Renders one line of assembly (names resolved to indices are shown
  /// numerically; the assembler's symbolic forms are not round-tripped).
  std::string str() const;
};

/// A named local variable slot.
struct LocalVar {
  std::string Name;
  ValKind Kind;
};

/// A VTAL function: parameters become locals [0, Params.size()).
struct Function {
  std::string Name;
  Signature Sig;
  std::vector<LocalVar> Locals; ///< includes parameters first
  std::vector<Instruction> Code;

  unsigned numParams() const {
    return static_cast<unsigned>(Sig.Params.size());
  }

  /// Finds a local slot by name; returns UINT32_MAX when absent.
  uint32_t findLocal(std::string_view Name) const;
};

/// A typed import: the module calls this name, the linker must supply a
/// definition whose signature matches.
struct Import {
  std::string Name;
  Signature Sig;
};

/// A VTAL module.
struct Module {
  std::string Name;
  std::vector<Import> Imports;
  std::vector<Function> Functions;

  const Function *findFunction(std::string_view FnName) const;
  const Import *findImport(std::string_view ImpName) const;

  /// Index of the named function in Functions; UINT32_MAX when absent.
  uint32_t functionIndex(std::string_view FnName) const;

  /// Ordinal of the named import in Imports; UINT32_MAX when absent.
  uint32_t importIndex(std::string_view ImpName) const;

  /// Stable fingerprint over the full encoded module (code identity).
  uint64_t fingerprint() const;

  /// Total instruction count across all functions.
  size_t totalInstructions() const;

  /// Renders the whole module as (non-symbolic) assembly text.
  std::string str() const;
};

} // namespace vtal
} // namespace dsu

#endif // DSU_VTAL_MODULE_H
