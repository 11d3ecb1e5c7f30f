// Full-flow report writer: the Safety Requirements Specification (SRS)
// style summary the norm asks for — design statistics, zone inventory,
// metrics, ranking, sensitivity and the SIL verdict, as one text document.
#pragma once

#include <iosfwd>

#include "core/flow.hpp"
#include "obs/json.hpp"

namespace socfmea::core {

struct FlowReportOptions {
  bool includeSensitivity = true;
};

/// Writes the complete analysis report for a flow.
void writeFlowReport(std::ostream& out, const FmeaFlow& flow,
                     const FlowReportOptions& opt = {});

/// One-line verdict, e.g. "frmem_v2: SFF 99.38% DC 98.1% -> SIL3 (HFT 0)".
[[nodiscard]] std::string verdictLine(const FmeaFlow& flow);

/// Machine-readable counterpart of writeFlowReport: design statistics, the
/// zone inventory, the full FMEA sheet (metrics, per-zone rates, ranking),
/// the sensitivity spans and the SIL verdict as one JSON document.  The
/// document is deterministic for a given flow, so CI can diff it against a
/// checked-in golden report.
[[nodiscard]] obs::Json flowReportJson(const FmeaFlow& flow,
                                       const FlowReportOptions& opt = {});

}  // namespace socfmea::core
