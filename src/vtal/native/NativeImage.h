//===- vtal/native/NativeImage.h - Retired native-tier counters -*- C++ -*-===//
///
/// \file
/// What is left of the VTAL native tier, which was deleted because no
/// served request ever entered it (DESIGN.md §17).  perfbench's traced
/// ledger still reads these two counters for its
/// `vtal.native_entries_per_req` and `vtal.deopts_per_req` metrics, so
/// they stay until a benchmark change drops both metrics and this header.
/// Nothing increments them: every VTAL call is interpreted.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_VTAL_RETIRED_NATIVE_STATS_H
#define DSU_VTAL_RETIRED_NATIVE_STATS_H

#include <atomic>
#include <cstdint>

namespace dsu {
namespace vtal {
namespace native {

struct NativeStats {
  std::atomic<uint64_t> NativeEntries{0};
  std::atomic<uint64_t> Deopts{0};

  static NativeStats &instance() {
    static NativeStats S;
    return S;
  }
};

} // namespace native
} // namespace vtal
} // namespace dsu

#endif // DSU_VTAL_RETIRED_NATIVE_STATS_H
