//===- runtime/Updateable.h - Typed updateable handles --------*- C++ -*-===//
///
/// \file
/// Updateable<Sig> is the typed call-side view of an updateable slot: the
/// reproduction of the indirected call the PLDI 2001 compiler emits for
/// references to updateable functions.  Invoking the handle costs one
/// atomic acquire load plus one indirect call (bench_indirection, E1),
/// and an epoch::Guard: free on a reactor worker, a pin elsewhere, so
/// the binding cannot be freed while the call runs.
///
/// CTypeOf<T> maps the C++ scalar types used in updateable signatures to
/// dsu type descriptors so definitions can be typechecked end to end:
///   int64_t -> int, double -> float, bool -> bool,
///   SharedStr -> string, void -> unit.
/// SharedStr is the one C++ form of `string` in both argument and result
/// position, so a string crosses a stage as a pointer copy.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_RUNTIME_UPDATEABLE_H
#define DSU_RUNTIME_UPDATEABLE_H

#include "runtime/UpdateableRegistry.h"
#include "support/SharedStr.h"
#include "types/Type.h"

#include <cstdint>
#include <string>

namespace dsu {

/// Maps supported C++ types to dsu type descriptors.  Only scalar shapes
/// cross the updateable boundary directly; aggregate state crosses via
/// the typed state registry (state/StateCell.h).
template <typename T> struct CTypeOf;

template <> struct CTypeOf<int64_t> {
  static const Type *get(TypeContext &Ctx) { return Ctx.intType(); }
};
template <> struct CTypeOf<double> {
  static const Type *get(TypeContext &Ctx) { return Ctx.floatType(); }
};
template <> struct CTypeOf<bool> {
  static const Type *get(TypeContext &Ctx) { return Ctx.boolType(); }
};
template <> struct CTypeOf<SharedStr> {
  static const Type *get(TypeContext &Ctx) { return Ctx.stringType(); }
};
template <> struct CTypeOf<void> {
  static const Type *get(TypeContext &Ctx) { return Ctx.unitType(); }
};

/// Builds the dsu function type for a C++ signature R(Args...).
template <typename R, typename... Args>
const Type *fnTypeOf(TypeContext &Ctx) {
  return Ctx.fnType({CTypeOf<Args>::get(Ctx)...}, CTypeOf<R>::get(Ctx));
}

template <typename Sig> class Updateable;

/// Typed handle over an UpdateableSlot.
template <typename R, typename... Args> class Updateable<R(Args...)> {
  // Only mapped types: a handle must call a binding through the same
  // C++ ABI the binding was built for.
  static_assert(((sizeof(CTypeOf<R>) != 0) && ... &&
                 (sizeof(CTypeOf<Args>) != 0)),
                "updateable signature uses a type with no dsu mapping");

public:
  Updateable() = default;
  explicit Updateable(UpdateableSlot *Slot) : Slot(Slot) {}

  bool valid() const { return Slot != nullptr; }
  UpdateableSlot *slot() const { return Slot; }
  uint32_t version() const { return Slot->currentVersion(); }

  /// The indirected call.  An ActivationTracker frame marks this thread
  /// as executing updateable code for the duration (the paper's
  /// activeness information for update timing).  The epoch guard keeps
  /// the binding alive on a thread that is not a reactor worker: a
  /// superseded binding is freed once every participant has passed a
  /// later epoch, and an unpinned thread is not a participant.
  R operator()(Args... As) const {
    assert(Slot && "calling an unbound updateable handle");
    epoch::Guard G;
    ActivationTracker::Frame F;
    const Binding *B = Slot->current();
    auto Invoke = reinterpret_cast<R (*)(void *, Args...)>(B->Invoker);
    return Invoke(B->Ctx, static_cast<Args &&>(As)...);
  }

  /// Untracked variant used only by the indirection microbenchmark to
  /// separate the cost of the indirection itself from the cost of
  /// activation tracking.
  R callUntracked(Args... As) const {
    epoch::Guard G;
    const Binding *B = Slot->current();
    auto Invoke = reinterpret_cast<R (*)(void *, Args...)>(B->Invoker);
    return Invoke(B->Ctx, static_cast<Args &&>(As)...);
  }

private:
  UpdateableSlot *Slot = nullptr;
};

/// Defines an updateable function in \p Reg with signature derived from
/// the C++ function pointer and returns the typed handle.
template <typename R, typename... Args>
Expected<Updateable<R(Args...)>>
defineUpdateable(UpdateableRegistry &Reg, TypeContext &Ctx,
                 const std::string &Name, R (*Initial)(Args...),
                 std::string Origin = "program") {
  const Type *FnTy = fnTypeOf<R, Args...>(Ctx);
  Expected<UpdateableSlot *> Slot =
      Reg.define(Name, FnTy, makeRawBinding(Initial, 1, std::move(Origin)));
  if (!Slot)
    return Slot.takeError();
  return Updateable<R(Args...)>(*Slot);
}

/// Binds an existing slot as a typed handle, checking that the slot's
/// recorded type matches the C++ signature.
template <typename Sig>
Expected<Updateable<Sig>> bindUpdateable(UpdateableRegistry &Reg,
                                         TypeContext &Ctx,
                                         const std::string &Name);

template <typename R, typename... Args>
Expected<Updateable<R(Args...)>>
bindUpdateableImpl(UpdateableRegistry &Reg, TypeContext &Ctx,
                   const std::string &Name) {
  UpdateableSlot *Slot = Reg.lookup(Name);
  if (!Slot)
    return Error::make(ErrorCode::EC_Link, "no updateable named '%s'",
                       Name.c_str());
  const Type *Want = fnTypeOf<R, Args...>(Ctx);
  if (!typesEqual(Slot->type(), Want))
    return Error::make(ErrorCode::EC_TypeMismatch,
                       "updateable '%s' has type '%s', handle wants '%s'",
                       Name.c_str(), Slot->type()->str().c_str(),
                       Want->str().c_str());
  return Updateable<R(Args...)>(Slot);
}

template <typename Sig> struct UpdateableBinder;

template <typename R, typename... Args>
struct UpdateableBinder<R(Args...)> {
  static Expected<Updateable<R(Args...)>>
  bind(UpdateableRegistry &Reg, TypeContext &Ctx, const std::string &Name) {
    return bindUpdateableImpl<R, Args...>(Reg, Ctx, Name);
  }
};

template <typename Sig>
Expected<Updateable<Sig>> bindUpdateable(UpdateableRegistry &Reg,
                                         TypeContext &Ctx,
                                         const std::string &Name) {
  return UpdateableBinder<Sig>::bind(Reg, Ctx, Name);
}

} // namespace dsu

#endif // DSU_RUNTIME_UPDATEABLE_H
