//===- vtal/native/NativeImage.h - VTAL native tier public API --*- C++ -*-===//
///
/// \file
/// The native tier's public surface: the ABI contract between jitted code
/// and the runtime (NativeCtx), the per-module compiled image
/// (NativeImage), the deopt-site metadata that makes every native frame
/// resumable in the interpreter, and global counters (NativeStats).
///
/// ## Tier rule
///
/// There is one: a VTAL module instance compiles every function that
/// representable() accepts, once, when the patch loads, and its image
/// never changes after that.  Everything else runs interpreted.  The only
/// switch is the build-time -DDSU_VTAL_NATIVE=OFF.
///
/// ## ABI
///
/// Every compiled function has the signature
///
///     uint64_t entry(NativeCtx *Ctx, const uint64_t *Args);
///
/// Args points at NumParams raw 8-byte slots (int64 bits, double bits, or
/// bool 0/1 — string-typed functions are never compiled).  The return
/// value is the raw result in the same encoding, meaningless when
/// Ctx->TrapPending is set on return.  NativeCtx carries the live fuel
/// counter and call depth that jitted code updates in place; the fixed
/// field offsets below are part of the ABI and asserted in NativeGen.cpp.
///
/// ## Fuel parity
///
/// Native code pays fuel in *segments*: at each segment head it first
/// checks `Fuel >= SegCost` and only then subtracts, where a segment is a
/// maximal straight run of instructions that cannot deopt midway (every
/// Div/Rem/CallFn/CallHost and every branch target starts a new segment).
/// All deopt triggers — fuel shortfall, division by zero, INT64_MIN/-1,
/// call-depth overflow, unsupported instruction — fire *before* the
/// segment's fuel is paid, so at every deopt site the fuel handed to the
/// interpreter is exactly what the interpreter itself would hold at that
/// pc.  The interpreter then re-executes from the site and produces the
/// identical trap message (or runs out of fuel at the identical
/// instruction), which is what makes the differential harness's
/// bit-for-bit fuel assertion possible.  DESIGN.md §17 gives the full
/// argument.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_VTAL_NATIVE_NATIVEIMAGE_H
#define DSU_VTAL_NATIVE_NATIVEIMAGE_H

#include "support/Error.h"
#include "vtal/Module.h"
#include "vtal/native/CodeArena.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace dsu {
namespace vtal {

class Interpreter;
struct ResolvedFunction;
struct ResolvedModule;

namespace native {

class NativeImage;

/// Per-activation state shared between jitted code and the runtime.
/// Field offsets of Fuel/Depth/TrapPending are baked into emitted code.
struct NativeCtx {
  uint64_t Fuel = 0;          ///< live fuel counter (offset 0, qword)
  uint32_t Depth = 0;         ///< native frames on the machine stack (offset 8)
  uint32_t TrapPending = 0;   ///< set by helpers when Err holds a trap (offset 12)
  const Interpreter *Interp = nullptr; ///< owning interpreter (deopt target)
  const NativeImage *Image = nullptr;  ///< image the code belongs to
  Error Err;                           ///< the trap, when TrapPending != 0
};

using NativeEntryFn = uint64_t (*)(NativeCtx *, const uint64_t *);

/// Where a native frame can fall back into the interpreter: a (function,
/// pc) pair plus the value kinds of the operand stack at that pc.  The
/// frame's raw slots (locals then stack, contiguous) are materialized
/// into interpreter Values using the function's local kinds + StackKinds.
struct DeoptSite {
  uint32_t FnIndex = 0;
  uint32_t PC = 0;
  std::vector<ValKind> StackKinds;
};

/// Why the native tier bailed out of a function activation.
enum class DeoptReason : uint8_t {
  Fuel = 0,        ///< segment fuel check failed
  DivTrap,         ///< divide-by-zero or INT64_MIN/-1 about to trap
  Depth,           ///< call-depth limit about to be exceeded
  Unsupported,     ///< instruction the baseline compiler doesn't emit
  NumReasons,
};

/// Global native-tier counters surfaced at /admin/metrics.  This lives in
/// its own TU (NativeStats.cpp) that is compiled even when the tier is
/// off, so the metric names never disappear from the scrape.
struct NativeStats {
  std::atomic<uint64_t> FunctionsCompiled{0}; ///< dsu_vtal_native_functions_total
  std::atomic<uint64_t> Deopts{0};            ///< dsu_vtal_deopts_total
  std::atomic<uint64_t> DeoptsByReason[static_cast<size_t>(
      DeoptReason::NumReasons)] = {};
  std::atomic<uint64_t> CodeBytesLive{0};     ///< dsu_vtal_native_code_bytes
  std::atomic<uint64_t> ArenasRetired{0};     ///< arenas handed to the epoch domain
  std::atomic<uint64_t> NativeEntries{0};     ///< activations started in native code
  std::atomic<uint64_t> BridgeCalls{0};       ///< native->interpreter bridge calls

  static NativeStats &instance();
};

/// The compiled form of one resolved module: one sealed W^X arena holding
/// every compiled function, plus the deopt-site tables.  Immutable after
/// compile(), so every thread running the module instance shares it.
/// The destructor does NOT unmap the arena — it retires it through the
/// epoch domain, because a thread that resolved an entry through a
/// binding of a superseded patch may still be executing its code.
class NativeImage {
public:
  struct FnInfo {
    uint32_t EntryOffset = UINT32_MAX; ///< UINT32_MAX = not compiled
    uint32_t CodeBytes = 0;
    ValKind Result = ValKind::VK_Unit;
  };

  /// Compiles every representable function of \p RM; the rest stay
  /// interpreted.  Fails only on OS-level errors (mmap/mprotect).
  static Expected<std::shared_ptr<const NativeImage>>
  compile(const ResolvedModule &RM);

  /// Most parameters a compiled function takes (runNative's raw
  /// argument buffer).
  static constexpr uint32_t MaxParams = 64;

  /// Why the baseline compiler leaves \p F interpreted ("it returns a
  /// string", ...), or null when \p F is representable: it has a body,
  /// all params/locals/result are int/float/bool/unit (no strings in a
  /// frame slot, so every deopt site can materialize) and it takes at
  /// most 64 params.  The one statement of the rule; representable() and
  /// the analyzer's native-unsupported finding both read it.  Built
  /// even with -DDSU_VTAL_NATIVE=OFF (NativeStats.cpp).
  static const char *unsupportedReason(const ResolvedFunction &F);

  /// unsupportedReason() == null for each function of \p RM.
  static std::vector<bool> representable(const ResolvedModule &RM);

  ~NativeImage();
  NativeImage(const NativeImage &) = delete;
  NativeImage &operator=(const NativeImage &) = delete;

  /// Entry point of function \p FnIndex, or null if it is not compiled
  /// into this image.
  NativeEntryFn entry(uint32_t FnIndex) const {
    if (FnIndex >= Fns.size() || Fns[FnIndex].EntryOffset == UINT32_MAX)
      return nullptr;
    return reinterpret_cast<NativeEntryFn>(
        const_cast<uint8_t *>(Arena.base()) + Fns[FnIndex].EntryOffset);
  }
  bool compiled(uint32_t FnIndex) const {
    return FnIndex < Fns.size() && Fns[FnIndex].EntryOffset != UINT32_MAX;
  }
  ValKind resultKind(uint32_t FnIndex) const { return Fns[FnIndex].Result; }
  const DeoptSite &site(uint32_t SiteId) const { return Sites[SiteId]; }
  uint32_t compiledCount() const { return NumCompiled; }
  size_t codeBytes() const { return CodeSize; }

private:
  NativeImage() = default;

  CodeArena Arena;
  std::vector<FnInfo> Fns;     ///< indexed by resolved function index
  std::vector<DeoptSite> Sites;
  uint32_t NumCompiled = 0;
  size_t CodeSize = 0;         ///< bytes of emitted code (not page-rounded)

  friend class NativeGen;
};

} // namespace native
} // namespace vtal
} // namespace dsu

#endif // DSU_VTAL_NATIVE_NATIVEIMAGE_H
