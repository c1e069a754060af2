//===- patch/AbiBridge.cpp ------------------------------------*- C++ -*-===//

#include "patch/AbiBridge.h"

#include "runtime/Updateable.h"
#include "support/Logging.h"

#include <map>
#include <type_traits>

using namespace dsu;
using vtal::Value;

Expected<Binding> dsu::makeUniformBinding(const Type *FnTy, void *Addr,
                                          uint32_t Version,
                                          std::string Origin) {
  if (!FnTy || !FnTy->isFunction())
    return Error::make(ErrorCode::EC_Invalid,
                       "uniform binding requires a function type");
  if (!Addr)
    return Error::make(ErrorCode::EC_Link,
                       "uniform binding requires a code address");
  Binding B;
  // The exported symbol already has the (void *reserved, args...) shape,
  // so it *is* the invoker; Ctx is passed as the reserved argument.
  B.Ctx = Addr;
  B.Invoker = Addr;
  B.Version = Version;
  B.Origin = std::move(Origin);
  return B;
}

namespace {

template <typename T> Value toValue(T V);
template <> Value toValue<int64_t>(int64_t V) {
  return Value::makeInt(V);
}
template <> Value toValue<double>(double V) {
  return Value::makeFloat(V);
}
template <> Value toValue<bool>(bool V) { return Value::makeBool(V); }
template <> Value toValue<SharedStr>(SharedStr V) {
  return Value::makeStr(std::move(V));
}

template <typename T> T fromValue(const Value &V);
template <> int64_t fromValue<int64_t>(const Value &V) { return V.asInt(); }
template <> double fromValue<double>(const Value &V) { return V.asFloat(); }
template <> bool fromValue<bool>(const Value &V) { return V.asBool(); }
template <> SharedStr fromValue<SharedStr>(const Value &V) {
  return V.asShared();
}

/// Builds a typed closure binding around a Value-level callable.  A trap
/// in verified patch code (division by zero, fuel exhaustion) is counted
/// in Binding::Traps and surfaces as the result type's zero value; it
/// cannot corrupt the caller.  The trap runs on a serving thread, so
/// only the first trap of a binding and each one that brings its count
/// to a power of two is logged: a patch that traps on every request
/// writes about log2(traps) lines, not one per request.
template <typename R, typename... Args>
Binding makeValueBindingTyped(vtal::HostFn Impl, uint32_t Version,
                              std::string Origin) {
  auto Traps = std::make_shared<std::atomic<uint64_t>>(0);
  Binding B = makeClosureBinding<R, Args...>(
      [Impl = std::move(Impl), Traps](Args... As) -> R {
        std::vector<Value> Vs;
        Vs.reserve(sizeof...(Args));
        (Vs.push_back(toValue<std::decay_t<Args>>(std::move(As))), ...);
        Expected<Value> Res = Impl(Vs);
        if (!Res) {
          uint64_t N = Traps->fetch_add(1, std::memory_order_relaxed) + 1;
          if ((N & (N - 1)) == 0)
            DSU_LOG_ERROR("patch code trapped (trap %llu of this binding): "
                          "%s",
                          static_cast<unsigned long long>(N),
                          Res.error().str().c_str());
          if constexpr (std::is_void_v<R>)
            return;
          else
            return R{};
        }
        if constexpr (std::is_void_v<R>)
          return;
        else
          return fromValue<R>(*Res);
      },
      Version, std::move(Origin));
  B.Traps = std::move(Traps);
  return B;
}

using Factory =
    std::function<Binding(vtal::HostFn, uint32_t, std::string)>;
using FactoryTable = std::map<std::string, Factory>;

template <typename R, typename... Args>
void registerSig(FactoryTable &T, TypeContext &Ctx) {
  T[fnTypeOf<R, Args...>(Ctx)->str()] = [](vtal::HostFn F, uint32_t V,
                                           std::string O) {
    return makeValueBindingTyped<R, Args...>(std::move(F), V, std::move(O));
  };
}

/// Applies \p F once per supported scalar parameter type.
template <typename Fn> void forEachScalar(Fn F) {
  F(static_cast<int64_t *>(nullptr));
  F(static_cast<double *>(nullptr));
  F(static_cast<bool *>(nullptr));
  F(static_cast<SharedStr *>(nullptr));
}

/// Registers all signatures with result \p R up to arity 2.
template <typename R> void registerForResult(FactoryTable &T,
                                             TypeContext &Ctx) {
  registerSig<R>(T, Ctx);
  forEachScalar([&](auto *A) {
    using TA = std::remove_pointer_t<decltype(A)>;
    registerSig<R, TA>(T, Ctx);
    forEachScalar([&](auto *B) {
      using TB = std::remove_pointer_t<decltype(B)>;
      registerSig<R, TA, TB>(T, Ctx);
    });
  });
}

const FactoryTable &factoryTable() {
  static const FactoryTable Table = [] {
    FactoryTable T;
    TypeContext Ctx; // canonical strings are context-independent
    registerForResult<void>(T, Ctx);
    registerForResult<int64_t>(T, Ctx);
    registerForResult<double>(T, Ctx);
    registerForResult<bool>(T, Ctx);
    registerForResult<SharedStr>(T, Ctx);
    // A hand-picked set of arity-3 shapes used by FlashEd-style request
    // pipelines; extend here if patch code needs more.
    registerSig<SharedStr, SharedStr, SharedStr, int64_t>(T, Ctx);
    registerSig<SharedStr, SharedStr, SharedStr, SharedStr>(T, Ctx);
    registerSig<SharedStr, SharedStr, int64_t, int64_t>(T, Ctx);
    registerSig<int64_t, int64_t, int64_t, int64_t>(T, Ctx);
    registerSig<void, SharedStr, SharedStr, int64_t>(T, Ctx);
    return T;
  }();
  return Table;
}

} // namespace

bool dsu::isBridgeableFnType(const Type *FnTy) {
  return FnTy && FnTy->isFunction() &&
         factoryTable().count(FnTy->str()) != 0;
}

Expected<Binding> dsu::makeValueBinding(TypeContext &Ctx, const Type *FnTy,
                                        vtal::HostFn Impl, uint32_t Version,
                                        std::string Origin) {
  (void)Ctx;
  if (!FnTy || !FnTy->isFunction())
    return Error::make(ErrorCode::EC_Invalid,
                       "value binding requires a function type");
  auto It = factoryTable().find(FnTy->str());
  if (It == factoryTable().end())
    return Error::make(ErrorCode::EC_Unsupported,
                       "no marshalling trampoline for signature '%s'",
                       FnTy->str().c_str());
  return It->second(std::move(Impl), Version, std::move(Origin));
}
