//===- vtal/native/NativeStats.cpp - native tier counters and rule ------===//
///
/// Compiled unconditionally (even with -DDSU_VTAL_NATIVE=OFF) so the
/// `dsu_vtal_native_*` metric names stay present — and zero — when the
/// tier is absent, keeping dashboards and alert rules stable across
/// build configurations.  The representability rule lives here for the
/// same reason: the analyzer's native-unsupported findings on a patch
/// do not depend on how the server was built.
///
//===----------------------------------------------------------------------===//

#include "vtal/native/NativeImage.h"

#include "vtal/Resolve.h"

namespace dsu {
namespace vtal {
namespace native {

NativeStats &NativeStats::instance() {
  static NativeStats S;
  return S;
}

const char *NativeImage::unsupportedReason(const ResolvedFunction &F) {
  // Every local (params included) and the result must have a raw 8-byte
  // encoding, because every deopt site materializes the whole frame from
  // raw slots; strings live only in interpreted frames.
  static_assert(MaxParams == 64, "the message below names the limit");
  if (F.Code.empty())
    return "it has no body";
  if (F.Result == ValKind::VK_Str)
    return "it returns a string";
  if (F.NumParams > MaxParams)
    return "it takes more than 64 parameters";
  for (ValKind K : F.LocalKinds)
    if (K == ValKind::VK_Str)
      return "it has string-typed parameters or locals";
  return nullptr;
}

std::vector<bool> NativeImage::representable(const ResolvedModule &RM) {
  std::vector<bool> R(RM.Functions.size());
  for (size_t I = 0; I != RM.Functions.size(); ++I)
    R[I] = !unsupportedReason(RM.Functions[I]);
  return R;
}

} // namespace native
} // namespace vtal
} // namespace dsu
