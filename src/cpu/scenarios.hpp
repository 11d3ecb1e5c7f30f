// The software-mitigation scenario suite: one registry entry per
// (design, workload, mitigation, expected alarms) combination, each runnable
// end-to-end — FMEA analysis through core::FmeaFlow, then an injection
// campaign over the architectural-state zones — producing per-scenario
// DC / SFF / SIL verdicts.  Every scenario runs the SAME source kernel
// (transformed by its mitigation pass where applicable) on a synthesized-ROM
// design with minimal observation (OUT port + alarms), so the hardware
// mechanisms (lockstep comparator) and the software ones (TMR / DWC / CFCSS)
// are measured against an identical workload and fault space and their SFF
// figures compare directly against the unprotected baseline.
//
// Why the DC of the software mitigations is *measured*, not table-derived:
// the IEC 61508 Annex A tables rate a technique's maximum achievable DC, but
// a compiler-inserted mitigation only covers the state the transformed
// program actually exercises in its vulnerable windows (a DWC compare
// guards r0/r1 between store and next load; CFCSS only sees inter-block
// edges).  The analytic claims entered in the scenario flow configs are
// deliberately modest and the injection campaign is the evidence.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/flow_config.hpp"
#include "cpu/mitigations.hpp"
#include "fmea/sheet.hpp"
#include "inject/manager.hpp"
#include "obs/json.hpp"

namespace socfmea::cpu::scenarios {

struct Scenario {
  std::string name;
  std::string description;
  CpuOptions design;  ///< includes the transformed program (synthesized ROM)
  SwMitigation mitigation = SwMitigation::None;
  std::vector<std::uint8_t> sourceProgram;  ///< the shared kernel
  std::vector<std::string> expectedAlarms;  ///< alarm outputs that may fire
  /// Verdict-class floor: measured SFF must beat the unprotected baseline
  /// by at least this much (0 for the baseline itself and for
  /// measurement-only scenarios).
  double minSffGain = 0.0;
  std::uint64_t cycles = 0;  ///< gate-level cycle budget (from the ISS)
};

struct RunOptions {
  std::uint64_t seed = 8;
  std::size_t perBit = 2;           ///< zoneFailureFaults density
  std::uint64_t detectionWindow = 24;
  inject::CampaignOptions campaign;  ///< engine / threads / laneWords knobs
};

struct ScenarioResult {
  std::string name;
  // FMEA analysis verdicts (sheet-derived).
  double analysisSff = 0.0;
  double analysisDc = 0.0;
  fmea::Sil sil = fmea::Sil::NotAllowed;
  // Injection campaign measurements.  A struct around the one result keeps
  // the `campaign.merged` spelling the perfbench harness reads.
  struct Campaign {
    inject::CampaignResult merged;
  } campaign;
  inject::OutcomeTally tally;
  double measuredSff = 0.0;
  double measuredDdf = 0.0;
  double measuredSafe = 0.0;
  std::size_t faults = 0;

  [[nodiscard]] obs::Json toJson() const;
};

/// The registry: unprotected, lockstep, lockstep-skewed, tmr, dwc, cfcss,
/// combined.  Scenario 0 is always the unprotected baseline.
[[nodiscard]] const std::vector<Scenario>& all();
[[nodiscard]] const Scenario* find(std::string_view name);

/// The shared source kernel every scenario transforms (a counted loop, a
/// conditional tail and a deterministic OUT stream).
[[nodiscard]] std::vector<std::uint8_t> kernelProgram();

/// Full flow for one scenario: build design, FMEA analysis, profile-guided
/// zone-failure fault list, injection campaign.
[[nodiscard]] ScenarioResult runScenario(const Scenario& s,
                                         const RunOptions& opt = {});

/// The CI verdict class: alarms wired as expected and the measured SFF beats
/// the unprotected baseline by the scenario's declared floor.
[[nodiscard]] bool verdictOk(const Scenario& s, const ScenarioResult& r,
                             const ScenarioResult& baseline);

}  // namespace socfmea::cpu::scenarios
