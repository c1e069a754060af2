//===- vtal/Module.cpp ----------------------------------------*- C++ -*-===//

#include "vtal/Module.h"

#include "support/StringUtil.h"
#include "types/Type.h"
#include "vtal/Bytecode.h"

using namespace dsu;
using namespace dsu::vtal;

const char *dsu::vtal::valKindName(ValKind K) {
  switch (K) {
  case ValKind::VK_Int:
    return "int";
  case ValKind::VK_Float:
    return "float";
  case ValKind::VK_Bool:
    return "bool";
  case ValKind::VK_Str:
    return "string";
  case ValKind::VK_Unit:
    return "unit";
  }
  return "?";
}

const Type *dsu::vtal::valKindToType(TypeContext &Ctx, ValKind K) {
  switch (K) {
  case ValKind::VK_Int:
    return Ctx.intType();
  case ValKind::VK_Float:
    return Ctx.floatType();
  case ValKind::VK_Bool:
    return Ctx.boolType();
  case ValKind::VK_Str:
    return Ctx.stringType();
  case ValKind::VK_Unit:
    return Ctx.unitType();
  }
  return Ctx.unitType();
}

std::string Signature::str() const {
  std::string S = "(";
  for (size_t I = 0; I != Params.size(); ++I) {
    if (I)
      S += ", ";
    S += valKindName(Params[I]);
  }
  S += ") -> ";
  S += valKindName(Result);
  return S;
}

const Type *Signature::toType(TypeContext &Ctx) const {
  std::vector<const Type *> P;
  P.reserve(Params.size());
  for (ValKind K : Params)
    P.push_back(valKindToType(Ctx, K));
  return Ctx.fnType(std::move(P), valKindToType(Ctx, Result));
}

std::string Instruction::str() const {
  std::string S = opcodeName(Op);
  switch (opcodeOperand(Op)) {
  case OperandKind::OK_None:
    break;
  case OperandKind::OK_Int:
    S += formatString(" %lld", static_cast<long long>(IntOp));
    break;
  case OperandKind::OK_Float:
    S += formatString(" %g", FloatOp);
    break;
  case OperandKind::OK_Bool:
    S += IntOp ? " true" : " false";
    break;
  case OperandKind::OK_Str:
    S += " \"" + escapeString(StrOp) + "\"";
    break;
  case OperandKind::OK_Local:
    S += formatString(" $%u", Index);
    break;
  case OperandKind::OK_Label:
    S += formatString(" @%u", Index);
    break;
  case OperandKind::OK_Func:
    S += " " + StrOp;
    break;
  case OperandKind::OK_FuncIdx:
    S += formatString(" #%u", Index);
    break;
  }
  return S;
}

uint32_t Function::findLocal(std::string_view LocalName) const {
  for (uint32_t I = 0; I != Locals.size(); ++I)
    if (Locals[I].Name == LocalName)
      return I;
  return UINT32_MAX;
}

const Function *Module::findFunction(std::string_view FnName) const {
  for (const Function &F : Functions)
    if (F.Name == FnName)
      return &F;
  return nullptr;
}

const Import *Module::findImport(std::string_view ImpName) const {
  for (const Import &I : Imports)
    if (I.Name == ImpName)
      return &I;
  return nullptr;
}

uint32_t Module::functionIndex(std::string_view FnName) const {
  for (uint32_t I = 0; I != Functions.size(); ++I)
    if (Functions[I].Name == FnName)
      return I;
  return UINT32_MAX;
}

uint32_t Module::importIndex(std::string_view ImpName) const {
  for (uint32_t I = 0; I != Imports.size(); ++I)
    if (Imports[I].Name == ImpName)
      return I;
  return UINT32_MAX;
}

uint64_t Module::fingerprint() const {
  return fingerprintString(encodeModule(*this));
}

size_t Module::totalInstructions() const {
  size_t N = 0;
  for (const Function &F : Functions)
    N += F.Code.size();
  return N;
}

std::string Module::str() const {
  std::string S = "module " + Name + "\n";
  for (const Import &I : Imports)
    S += "import " + I.Name + " : " + I.Sig.str() + "\n";
  for (const Function &F : Functions) {
    S += "func " + F.Name + " (";
    for (unsigned I = 0; I != F.numParams(); ++I) {
      if (I)
        S += ", ";
      S += F.Locals[I].Name + ": " +
           std::string(valKindName(F.Locals[I].Kind));
    }
    S += ") -> ";
    S += valKindName(F.Sig.Result);
    S += " {\n";
    if (F.Locals.size() > F.numParams()) {
      S += "  locals (";
      for (size_t I = F.numParams(); I != F.Locals.size(); ++I) {
        if (I != F.numParams())
          S += ", ";
        S += F.Locals[I].Name + ": " +
             std::string(valKindName(F.Locals[I].Kind));
      }
      S += ")\n";
    }
    for (size_t PC = 0; PC != F.Code.size(); ++PC)
      S += formatString("  %4zu: %s\n", PC, F.Code[PC].str().c_str());
    S += "}\n";
  }
  return S;
}
