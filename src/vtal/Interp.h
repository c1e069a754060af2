//===- vtal/Interp.h - VTAL interpreter -----------------------*- C++ -*-===//
///
/// \file
/// Executes verified VTAL modules.  The interpreter is the reproduction's
/// execution substrate for patch code shipped as VTAL (patch code shipped
/// as a native shared object runs directly; see link/NativeLoader.h).
///
/// An Interpreter instance binds one module plus host functions for its
/// imports.  Binding runs the load-time link pass (vtal/Resolve.h), so
/// steady-state execution dispatches calls by index, binds imports by
/// ordinal, and runs on an explicit frame stack over one reusable value
/// arena — no name lookups and no per-call heap allocation in the inner
/// loop.  Execution is fuel-limited so that a buggy patch cannot hang the
/// updating process at an update point.
///
/// Thread safety: the frame stack, the value arena, the host-argument
/// buffers and the last call's fuel live in per-thread execution scratch,
/// not in the Interpreter.  Set an interpreter up first (bindImport,
/// setProfile, setNativeImage); after that it is immutable, and any
/// number of threads may call it at once.  A call re-entered on one
/// thread — a host import calling this or another interpreter — stacks
/// its frames above the outer activation's on that thread's scratch.
///
/// The interpreter is also the deoptimization target of the native tier
/// (vtal/native/): an attached NativeImage makes callIndex() dispatch
/// compiled functions to machine code, and resumeAt()/callRaw() let a
/// native frame fall back into interpretation at any safe point with
/// bit-identical fuel, traps and results.  The interpreter remains the
/// semantic ground truth; native code is an accelerator, never an oracle.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_VTAL_INTERP_H
#define DSU_VTAL_INTERP_H

#include "support/Error.h"
#include "vtal/Module.h"
#include "vtal/Resolve.h"
#include "vtal/Value.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace dsu {

namespace trace {
class ModuleProfile;
} // namespace trace

namespace vtal {

namespace native {
class NativeImage;
} // namespace native

/// A host-provided implementation of a module import.
using HostFn = std::function<Expected<Value>(const std::vector<Value> &)>;

/// The fuel one interpreted call gets when its caller names no budget
/// (64 Mi instructions, callees included).  The patch analyzer checks
/// statically known trip counts against the same bound.
constexpr uint64_t DefaultFuel = 64ull << 20;

/// Interprets one module.  The module must outlive the interpreter and
/// should have passed verifyModule() — the interpreter still traps
/// dynamically (division by zero, fuel exhaustion, call depth) and
/// refuses to run modules whose calls do not link, but relies on
/// verification for kind correctness of straight-line code.
class Interpreter {
public:
  /// \p Fuel bounds the total instruction count of one call() including
  /// callees; 0 means DefaultFuel.  Construction runs the link pass; a
  /// module that fails to link is rejected (with the link error) on
  /// every subsequent call().
  explicit Interpreter(const Module &M, uint64_t Fuel = 0);

  /// Supplies the implementation of import \p Name.  Signature conformance
  /// of values is checked at each call.
  Error bindImport(const std::string &Name, HostFn Fn);

  /// Calls function \p FnName with \p Args.
  Expected<Value> call(const std::string &FnName,
                       const std::vector<Value> &Args) const;

  /// Index of \p FnName for callIndex(); fails when absent.  Lets
  /// long-lived call sites (patch provides, transformers) resolve the
  /// entry point once at load time.
  Expected<uint32_t> functionIndex(const std::string &FnName) const;

  /// Calls function \p FnIndex (from functionIndex()) with \p Args,
  /// skipping the by-name entry lookup.
  Expected<Value> callIndex(uint32_t FnIndex,
                            const std::vector<Value> &Args) const;

  /// Instructions executed by the most recent call() that returned on
  /// the calling thread, whichever interpreter ran it.
  uint64_t lastFuelUsed() const;

  /// Attaches the hot-function profiler (trace/Profile.h).  When set,
  /// the dispatch loop attributes per-function call counts, self-fuel
  /// and traps to \p P at call boundaries (function entry, CallFn, Ret)
  /// — the per-instruction inner loop pays nothing beyond one pointer
  /// test per boundary.  \p P must be indexed like this module's
  /// function table and must outlive the interpreter.
  void setProfile(trace::ModuleProfile *P) { Prof = P; }
  trace::ModuleProfile *profile() const { return Prof; }

  /// The resolved execution form (empty when the module failed to link).
  /// The native tier compiles from this exact form.
  const ResolvedModule &resolved() const { return RM; }

  // --- deoptimization entry points (used by vtal/native/, and by tests
  // --- that exercise the resume protocol directly) ------------------------

  /// Resumes interpretation of \p FnIndex at \p PC from a raw native
  /// frame: \p FrameSlots holds NumLocals locals followed by \p StackDepth
  /// operand-stack slots, each an 8-byte raw value (int64 bits, double
  /// bits, bool 0/1, unit 0) whose kinds are the function's local kinds
  /// and \p StackKinds respectively.  \p DepthBias is the number of
  /// native frames beneath this one, counted into the call-depth limit so
  /// a mixed native/interpreted stack traps at the same depth as a fully
  /// interpreted one.  Fuel is consumed from \p Fuel in place.
  Expected<Value> resumeAt(uint32_t FnIndex, uint32_t PC,
                           const uint64_t *FrameSlots,
                           const ValKind *StackKinds, uint32_t StackDepth,
                           uint64_t &Fuel, uint32_t DepthBias) const;

  /// Calls \p FnIndex with raw argument slots (same encoding as
  /// resumeAt), interpreted, sharing \p Fuel and biased by \p DepthBias —
  /// the native tier's bridge for calls into functions that are not
  /// compiled.  The function must not take string parameters.
  Expected<Value> callRaw(uint32_t FnIndex, const uint64_t *RawArgs,
                          uint64_t &Fuel, uint32_t DepthBias) const;

  /// Invokes host import \p Ordinal with raw argument slots and stores
  /// the raw result — the native tier's bridge for CallHost.  Performs
  /// the same bind/result-kind checks (and produces the same error
  /// messages) as the interpreter's own CallHost.  The import signature
  /// must be string-free.
  Error callHostRaw(uint32_t Ordinal, const uint64_t *RawArgs,
                    uint64_t &RawResult) const;

#ifndef DSU_VTAL_NO_NATIVE
  /// Attaches (or replaces, or clears) the compiled image callIndex()
  /// dispatches through.  The image must have been compiled from this
  /// module's resolved form; images are immutable.
  void setNativeImage(std::shared_ptr<const native::NativeImage> I) {
    Img = std::move(I);
  }
#endif

private:
  Expected<Value> run(uint32_t FnIndex, const std::vector<Value> &Args,
                      uint64_t &Fuel) const;

  /// The dispatch loop.  Executes the innermost pushed frame (the caller
  /// must have pushed exactly one frame plus its arena contents on this
  /// thread's scratch) until that activation returns or traps.
  /// \p DepthBias widens the call-depth check by the native frames
  /// beneath this activation; \p CountEntry controls whether the
  /// profiler counts this as a fresh activation (deopt resumes do not —
  /// the original entry was already counted).
  Expected<Value> exec(uint64_t &Fuel, uint32_t DepthBias,
                       bool CountEntry) const;

#ifndef DSU_VTAL_NO_NATIVE
  /// Runs \p FnIndex through its compiled entry in Img (which must exist).
  /// Defined in native/NativeGen.cpp.
  Expected<Value> runNative(uint32_t FnIndex, const std::vector<Value> &Args,
                            uint64_t &Fuel) const;
#endif

  const Module &M;
  uint64_t FuelLimit;

  /// Execution form; valid only when LinkErr is a success value.
  ResolvedModule RM;
  Error LinkErr;

  /// Host bindings, dense by import ordinal.
  std::vector<HostFn> Imports;

  /// Optional execution profile; null = unprofiled (the default).
  trace::ModuleProfile *Prof = nullptr;

#ifndef DSU_VTAL_NO_NATIVE
  /// Optional compiled image; null = fully interpreted (the default).
  std::shared_ptr<const native::NativeImage> Img;
#endif
};

} // namespace vtal
} // namespace dsu

#endif // DSU_VTAL_INTERP_H
