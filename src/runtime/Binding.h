//===- runtime/Binding.h - Immutable code bindings ------------*- C++ -*-===//
///
/// \file
/// A Binding is one immutable version of an updateable function's
/// implementation: a context pointer plus a uniform invoker, with an
/// optional keep-alive handle (the dlopen'd shared object or interpreter
/// instance that owns the code).
///
/// Updateable slots swing an atomic Binding pointer from one version to
/// the next.  A slot keeps the current binding and the rollback target;
/// an older one is freed, with its keep-alive, only once the epoch
/// domain has graced it, so in-flight calls through an old binding stay
/// valid — the PLDI 2001 rule that old code remains resident and
/// reachable until it is quiescent, with a bound on how much of it.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_RUNTIME_BINDING_H
#define DSU_RUNTIME_BINDING_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace dsu {

/// One immutable implementation of an updateable function.
struct Binding {
  /// Opaque context passed as the first argument of Invoker.  For a plain
  /// function pointer binding this is the function itself.
  void *Ctx = nullptr;

  /// Type-erased invoker; the typed Updateable<Sig> handle casts this to
  /// R(*)(void *, Args...).
  void *Invoker = nullptr;

  /// Version number of this implementation (1 = original).
  uint32_t Version = 1;

  /// Where the code came from (diagnostics / update log).
  std::string Origin;

  /// Keeps the code's owner alive: a LoadedLibrary for dlopen'd patches,
  /// an interpreter instance for VTAL patches, a closure box for lambdas.
  /// Released when the binding leaves its slot's rollback window and is
  /// graced (runtime/UpdateableRegistry.h), or when the last copy
  /// sharing it (a rollback copy, the patch's own) goes.
  std::shared_ptr<void> KeepAlive;

  /// Runtime traps observed in this implementation (division by zero,
  /// fuel exhaustion, call-depth overflow in VTAL patch code).  Shared —
  /// bindings are copied through the prepare and rollback paths and all
  /// copies must report one counter; null for native bindings, which
  /// cannot trap.  A rollout's canary health gate reads this: traps
  /// surface to callers as zero values rather than HTTP errors, so the
  /// error-rate gate alone would miss them.
  std::shared_ptr<std::atomic<uint64_t>> Traps;

  /// The id of the state-migrating patch whose commit installed this
  /// binding ("" for code-only installs).  The binding before it was
  /// written for the state's old representation, so the registry
  /// refuses to roll back past it.
  std::string MigratedBy;

  /// Trap count (0 when this binding cannot trap).
  uint64_t trapCount() const {
    return Traps ? Traps->load(std::memory_order_relaxed) : 0;
  }
};

namespace detail {

/// Trampoline adapting a raw function pointer to the uniform
/// (ctx, args...) invoker shape.  The compiler turns this into a tail
/// call, so the steady-state cost of updateability is one atomic pointer
/// load plus one extra indirect jump (measured by bench_indirection, E1).
template <typename R, typename... Args> struct RawFnTrampoline {
  static R invoke(void *Ctx, Args... As) {
    auto Fn = reinterpret_cast<R (*)(Args...)>(Ctx);
    return Fn(static_cast<Args &&>(As)...);
  }
};

/// Heap box adapting an arbitrary callable.
template <typename R, typename... Args> struct ClosureBox {
  std::function<R(Args...)> Fn;

  static R invoke(void *Ctx, Args... As) {
    auto *Box = static_cast<ClosureBox *>(Ctx);
    return Box->Fn(static_cast<Args &&>(As)...);
  }
};

} // namespace detail

/// Builds a binding over a raw function pointer (native code: the program
/// itself or a symbol resolved from a dlopen'd patch object).
template <typename R, typename... Args>
Binding makeRawBinding(R (*Fn)(Args...), uint32_t Version = 1,
                       std::string Origin = "native") {
  Binding B;
  B.Ctx = reinterpret_cast<void *>(Fn);
  B.Invoker =
      reinterpret_cast<void *>(&detail::RawFnTrampoline<R, Args...>::invoke);
  B.Version = Version;
  B.Origin = std::move(Origin);
  return B;
}

/// Builds a binding over an arbitrary callable (used for VTAL-backed
/// implementations, where the callable closes over an Interpreter).
template <typename R, typename... Args, typename Callable>
Binding makeClosureBinding(Callable &&Fn, uint32_t Version = 1,
                           std::string Origin = "closure") {
  auto Box = std::make_shared<detail::ClosureBox<R, Args...>>();
  Box->Fn = std::forward<Callable>(Fn);
  Binding B;
  B.Ctx = Box.get();
  B.Invoker =
      reinterpret_cast<void *>(&detail::ClosureBox<R, Args...>::invoke);
  B.Version = Version;
  B.Origin = std::move(Origin);
  B.KeepAlive = std::move(Box);
  return B;
}

} // namespace dsu

#endif // DSU_RUNTIME_BINDING_H
