// Safety Requirements Specification (SRS) generator.  IEC 61508 "specifies
// as well which kind of documentation and design flow should be followed,
// such as the release of a Safety Requirements Specification (SRS) including
// a detailed FMEA of the system or sub-system" (paper, Section 2).  This
// writer renders the complete analysis — design inventory, sensible zones,
// the FMEA rows, metrics by both SIL routes, sensitivity, and (optionally)
// the fault-injection validation evidence — as one Markdown document.
#pragma once

#include <iosfwd>
#include <string>

#include "core/flow.hpp"
#include "core/validation.hpp"

namespace socfmea::core {

struct SrsOptions {
  std::string author = "socfmea";
  bool includeSensitivity = true;
};

/// Writes the SRS for an analyzed flow, titled with the design name and
/// arguing for SIL3.  When `validation` is non-null, the fault-injection
/// evidence section (steps a-d) is included.
void writeSrs(std::ostream& out, const FmeaFlow& flow, const SrsOptions& opt,
              const ValidationFlowReport* validation = nullptr);

/// Convenience: renders to a string.
[[nodiscard]] std::string srsToString(
    const FmeaFlow& flow, const SrsOptions& opt,
    const ValidationFlowReport* validation = nullptr);

}  // namespace socfmea::core
