//===- analysis/Finding.h - Patch-analyzer findings -----------*- C++ -*-===//
///
/// \file
/// The finding vocabulary of the whole-patch update-safety analyzer.
///
/// A Finding is one defect (or observation) the static analysis produced
/// about a patch, classified by severity:
///
///   Error:   the patch will be refused dynamically, or is guaranteed to
///            misbehave once committed (must-trap, fuel exhaustion,
///            missing transformer for live state).  Staging refuses the
///            update with EC_Analysis before any journal Intent is
///            written.
///   Warning: suspicious but not provably fatal (unreachable code, a
///            code-only misprediction).  Recorded on the UpdateRecord
///            and surfaced by `dsu-updatectl log` / GET /admin/lint.
///   Info:    an observation operators may care about (an identical
///            shadowing provide, a no-op type redefinition).
///
/// Finding codes are stable kebab-case strings — the machine-readable
/// contract of `dsu-patchlint --json` and the lint test corpus.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_ANALYSIS_FINDING_H
#define DSU_ANALYSIS_FINDING_H

#include <cstdint>
#include <string>
#include <vector>

namespace dsu {

class JsonWriter;

namespace analysis {

enum class Severity : uint8_t {
  Info,
  Warning,
  Error,
};

/// Returns "info", "warning" or "error".
const char *severityName(Severity S);

/// One analyzer finding.
struct Finding {
  Severity Sev = Severity::Info;
  /// Stable kebab-case code ("missing-transformer", "must-trap", ...).
  std::string Code;
  /// Human-readable explanation with names and versions spelled out.
  std::string Message;
  /// The VTAL function the finding anchors to; empty for patch-level
  /// findings (type diffs, link audits).
  std::string Fn;
  /// Instruction pc within Fn; valid only when HasPC.
  uint32_t PC = 0;
  bool HasPC = false;
};

/// Writes \p F as one JSON object: severity, code and message, then fn
/// and pc when the finding anchors to an instruction.  The element form
/// of GET /admin/lint's "findings" and of `dsu-patchlint --json`.
void writeFindingJson(JsonWriter &W, const Finding &F);

/// The whole-patch analysis result.
struct AnalysisReport {
  std::vector<Finding> Findings;

  /// Statically predicted commit classification: true when the patch
  /// should commit code-only (rolling, no barrier).  Runtime::stageInto
  /// cross-checks this against the actual UpdateTransaction::CodeOnly
  /// classification and reports a mismatch as a finding.
  bool CodeOnlyPredicted = false;

  /// Wall time the analysis passes took (filled by the caller's timer).
  double AnalysisMs = 0;

  size_t errorCount() const {
    size_t N = 0;
    for (const Finding &F : Findings)
      N += F.Sev == Severity::Error;
    return N;
  }
  size_t warningCount() const {
    size_t N = 0;
    for (const Finding &F : Findings)
      N += F.Sev == Severity::Warning;
    return N;
  }
  const Finding *firstError() const {
    for (const Finding &F : Findings)
      if (F.Sev == Severity::Error)
        return &F;
    return nullptr;
  }
};

} // namespace analysis
} // namespace dsu

#endif // DSU_ANALYSIS_FINDING_H
