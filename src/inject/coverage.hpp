// Coverage Collection (paper, Figure 4 / Section 5): "it is measured how
// many times a fault injection (SENS) is triggered by an injection, how many
// changes occurred on the observation point (OBSE), how many mismatches
// occurred between faulty and golden DUT, how many times the diagnostic
// (DIAG) changed and so forth.  Only when all the coverage items are covered
// at 100% we can consider complete the fault injection experiment."
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "inject/env_builder.hpp"
#include "obs/json.hpp"

namespace socfmea::inject {

/// What one injection produced, as seen by the monitors.
struct InjectionObservation {
  bool sens = false;              ///< the target zone deviated
  std::uint64_t sensCycle = 0;
  std::vector<zones::ZoneId> zonesDeviated;  ///< all deviating target zones
  bool obs = false;               ///< a functional observation point deviated
  std::uint64_t firstObsCycle = 0;
  std::vector<zones::ObsId> obsDeviated;     ///< which points deviated (union)
  bool diag = false;              ///< an alarm rose that the golden run lacked
  std::uint64_t diagCycle = 0;

  [[nodiscard]] bool operator==(const InjectionObservation&) const = default;
};

class CoverageCollector {
 public:
  explicit CoverageCollector(const InjectionEnvironment& env);

  /// Accounts one injection's observation.
  void account(const InjectionObservation& obs);

  // --- coverage items --------------------------------------------------------

  /// SENS items: each target zone must be perturbed by at least one
  /// injection.
  [[nodiscard]] double sensCoverage() const;
  /// OBSE items: each functional observation point must deviate at least
  /// once over the campaign.
  [[nodiscard]] double obseCoverage() const;
  /// DIAG item: the diagnostic must have fired at least once.
  [[nodiscard]] double diagCoverage() const;
  /// All items together — the campaign-completeness figure.
  [[nodiscard]] double completeness() const;
  [[nodiscard]] bool complete() const { return completeness() >= 1.0; }

  [[nodiscard]] std::uint64_t injections() const noexcept { return injections_; }
  [[nodiscard]] std::uint64_t mismatches() const noexcept { return mismatches_; }
  [[nodiscard]] std::uint64_t sensEvents() const noexcept { return sensEvents_; }
  [[nodiscard]] std::uint64_t diagEvents() const noexcept { return diagEvents_; }

  /// Target zones never perturbed (holes to close with more faults).
  [[nodiscard]] std::vector<zones::ZoneId> unsensedZones() const;
  /// Observation points never deviated.
  [[nodiscard]] std::vector<zones::ObsId> silentObsPoints() const;

  void print(std::ostream& out, const zones::ZoneDatabase& db) const;

  /// Structured export of the event counters and all coverage figures.
  [[nodiscard]] obs::Json toJson() const;

 private:
  const InjectionEnvironment* env_;
  std::vector<std::uint64_t> sensCount_;  // per target zone (env order)
  std::vector<std::uint64_t> obsCount_;   // per observation point id
  std::uint64_t injections_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t sensEvents_ = 0;
  std::uint64_t diagEvents_ = 0;
};

}  // namespace socfmea::inject
