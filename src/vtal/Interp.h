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
/// setProfile); after that it is immutable, and any number of threads
/// may call it at once.  A call re-entered on one thread — a host import
/// calling this or another interpreter — stacks its frames above the
/// outer activation's on that thread's scratch.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_VTAL_INTERP_H
#define DSU_VTAL_INTERP_H

#include "support/Error.h"
#include "vtal/Module.h"
#include "vtal/Resolve.h"
#include "vtal/Value.h"

#include <functional>
#include <string>
#include <vector>

namespace dsu {

namespace trace {
class ModuleProfile;
} // namespace trace

namespace vtal {

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

private:
  Expected<Value> run(uint32_t FnIndex, const std::vector<Value> &Args,
                      uint64_t &Fuel) const;

  /// The dispatch loop.  Executes the innermost pushed frame (the caller
  /// must have pushed exactly one frame plus its arena contents on this
  /// thread's scratch) until that activation returns or traps.
  Expected<Value> exec(uint64_t &Fuel) const;

  const Module &M;
  uint64_t FuelLimit;

  /// Execution form; valid only when LinkErr is a success value.
  ResolvedModule RM;
  Error LinkErr;

  /// Host bindings, dense by import ordinal.
  std::vector<HostFn> Imports;

  /// Optional execution profile; null = unprofiled (the default).
  trace::ModuleProfile *Prof = nullptr;
};

} // namespace vtal
} // namespace dsu

#endif // DSU_VTAL_INTERP_H
