// The FMEA validation flow (paper, Section 5, steps a-d):
//   (a) exhaustive fault injection of sensible-zone failures, cross-checked
//       against the FMEA (S/D/DDF comparison, effects table, coverage
//       completeness);
//   (b) workload-efficiency measurement: toggle coverage of the gate-level
//       netlist must exceed 99 % (the paper's threshold);
//   (c) selective local HW fault injection on the critical areas (top-ranked
//       zones), plus the fault simulator's permanent-fault coverage measured
//       against the DDF claimed in the sheet;
//   (d) selective wide/global HW fault injection (bridges on shared cones,
//       stuck critical nets), confirming the multiple-failure predictions of
//       the correlation analysis.
#pragma once

#include "core/flow.hpp"
#include "faultsim/serial.hpp"
#include "faultsim/toggle.hpp"
#include "inject/analyzer.hpp"
#include "obs/json.hpp"

namespace socfmea::core {

struct ValidationOptions {
  std::uint64_t seed = 7;
  /// Step (a): SEU injections per flip-flop of each target zone.
  std::size_t zoneFailuresPerBit = 2;
  /// Step (c): number of critical zones treated as "critical areas".
  std::size_t criticalZones = 10;
  /// Step (c): local faults sampled per critical zone.
  std::size_t localFaultsPerZone = 12;
  /// Step (d): wide bridging faults + global critical-net faults sampled.
  std::size_t wideFaults = 48;
  /// Engine / threads knobs of the campaigns of steps (a), (c) and (d) and
  /// of step (c)'s fault simulation.  Step (d) always runs without early
  /// abort.
  inject::CampaignOptions campaign;
};

struct ValidationFlowReport {
  // step (a)
  inject::CampaignResult zoneCampaign;
  inject::ValidationReport zoneValidation;
  double campaignCompleteness = 0.0;
  bool stepAPass = false;
  // step (b)
  faultsim::ToggleCoverage toggle;
  bool stepBPass = false;
  // step (c)
  inject::CampaignResult localCampaign;
  double localMeasuredSff = 0.0;
  double faultSimCoverage = 0.0;   ///< permanent-fault DC from the fault sim
  double sheetPermanentDdf = 0.0;  ///< λDD/λD over permanent rows
  bool stepCPass = false;
  // step (d)
  inject::CampaignResult wideCampaign;
  std::size_t multiZoneFailures = 0;  ///< injections deviating >1 zone
  bool stepDPass = false;

  [[nodiscard]] bool pass() const {
    return stepAPass && stepBPass && stepCPass && stepDPass;
  }

  /// Structured export: one section per validation step (a-d), each with its
  /// campaign metrics, the step-specific measurements and the pass flag.
  [[nodiscard]] obs::Json toJson() const;
};

/// Runs the full validation flow on a design analyzed by `flow` over `stim`,
/// the workload's trace over the design's primary inputs.  Records the
/// golden run once (faultsim::GoldenRun); the profile, the toggle pass and
/// every campaign of steps (a)-(d) read it.
[[nodiscard]] ValidationFlowReport runValidationFlow(
    const FmeaFlow& flow, const faultsim::StimulusTrace& stim,
    const ValidationOptions& opt = {});

void printValidationFlow(std::ostream& out, const ValidationFlowReport& rep);

}  // namespace socfmea::core
