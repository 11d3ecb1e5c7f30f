// Criticality attribution — the measurement half of the closed-loop
// architecture search.  A campaign's records are folded into per-site and
// per-zone dangerous-undetected contributions under two weightings:
//
//   * Count  — every DangerousUndetected record contributes 1.  By
//     construction the per-site (and per-zone) counts sum to the campaign
//     tally's DU total, the invariant the property tests pin.
//   * Lambda — FIT-weighted: each sheet row keeps its analytic claim-derived
//     λDU unless the campaign *refutes* the claim — on transient rows with
//     enough matching samples whose measured DU fraction exceeds the
//     analytic residual, the measured (smoothed) fraction replaces it.
//     Summed over rows this yields the hybrid λDU and the hybrid SFF the
//     search loop optimises.  Validation is one-sided on purpose: a few
//     dozen clean samples cannot statistically support a >99 % coverage
//     claim, so clean measurements leave the Annex-A claim standing (the
//     norm's own position — DC ceilings come from the technique tables,
//     injection tests that they are not overstated), while a dirty
//     measurement pulls the row down to the evidence.  Permanent rows stay
//     analytic: their claims (boot-time march/self-tests, periodic scrub)
//     act outside the mission window the campaign simulates, so an
//     in-mission campaign cannot pass judgement on them.
//
// Refuting fractions are smoothed with a Krichevsky–Trofimov prior
// ((du + ½) / (activated + 1)) so small dirty samples are not
// over-penalised, and the substituted value never drops below the analytic
// λDU (one-sidedness is strict).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fmea/sheet.hpp"
#include "inject/manager.hpp"
#include "netlist/netlist.hpp"
#include "zones/zone.hpp"

namespace socfmea::search {

/// One fault site (FF / net / memory instance) with its share of the
/// campaign's dangerous-undetected outcomes.
struct SiteCriticality {
  std::string site;                 ///< instance name of the fault site
  zones::ZoneId zone = zones::kNoZone;
  std::string zoneName;
  std::size_t injected = 0;
  std::size_t activated = 0;
  std::size_t dangerousUndetected = 0;
  std::size_t dangerousDetected = 0;
  double duShare = 0.0;             ///< Count weighting: du / campaign du
};

/// One sensible zone with both weightings.
struct ZoneCriticality {
  zones::ZoneId zone = zones::kNoZone;
  std::string name;
  std::size_t injected = 0;
  std::size_t activated = 0;
  std::array<std::size_t, 5> outcomes{};  ///< indexed by inject::Outcome
  double duFraction = 0.0;   ///< measured du / activated (0 when unactivated)
  double duShare = 0.0;      ///< Count weighting: du / campaign du
  double lambdaDu = 0.0;     ///< Lambda weighting: hybrid λDU of the zone
  double lambdaShare = 0.0;  ///< lambdaDu / design hybrid λDU
};

/// True when `kind` can populate the sheet row (same persistence class and,
/// for memory rows, the matching IEC failure-mode key).  Shared with the
/// attribution property tests.
[[nodiscard]] bool faultKindMatchesRow(fault::FaultKind kind,
                                       const fmea::FmeaRow& row);

/// Per-net / per-zone criticality of one campaign, plus the hybrid SFF.
class CriticalityMap {
 public:
  /// Folds `result` into the attribution.  `sheet` (computed) enables the
  /// Lambda weighting and the hybrid SFF; without it only the Count
  /// weighting is available and hybridSff() falls back to the measured SFF.
  [[nodiscard]] static CriticalityMap fromCampaign(
      const netlist::Netlist& nl, const zones::ZoneDatabase& db,
      const inject::CampaignResult& result,
      const fmea::FmeaSheet* sheet = nullptr);

  /// Zones by descending criticality (lambdaShare when a sheet was given,
  /// duShare otherwise).
  [[nodiscard]] const std::vector<ZoneCriticality>& zones() const noexcept {
    return zones_;
  }
  /// Sites by descending duShare.
  [[nodiscard]] const std::vector<SiteCriticality>& sites() const noexcept {
    return sites_;
  }

  [[nodiscard]] std::size_t totalDu() const noexcept { return totalDu_; }

  /// Hybrid SFF: 1 − Σ λDU' / Σ λ with measured substitution on refuted
  /// rows.  Equal to the analytic SFF when nothing was refuted, and to the
  /// measured SFF when built without a sheet.  Never above the analytic
  /// SFF (validation is one-sided).
  [[nodiscard]] double hybridSff() const noexcept { return hybridSff_; }
  [[nodiscard]] double analyticSff() const noexcept { return analyticSff_; }
  [[nodiscard]] double measuredSff() const noexcept { return measuredSff_; }

  /// `search.criticality.*` block: totals, hybrid metrics, ranked zones and
  /// (up to `maxSites`) ranked sites.
  [[nodiscard]] obs::Json toJson(std::size_t maxSites = 16) const;

  /// Exports `search.criticality.*` gauges into the global telemetry
  /// registry.
  void exportTelemetry() const;

 private:
  std::vector<ZoneCriticality> zones_;
  std::vector<SiteCriticality> sites_;
  std::size_t totalDu_ = 0;
  std::size_t totalActivated_ = 0;
  double hybridSff_ = 0.0;
  double analyticSff_ = 0.0;
  double measuredSff_ = 0.0;
  double hybridLambdaDu_ = 0.0;
  /// Transient rows with enough pooled samples to test their claims.
  std::size_t rowsMeasured_ = 0;
  std::size_t rowsAnalytic_ = 0;
  /// Measured rows whose analytic λDU the campaign refuted (and replaced).
  std::size_t rowsRefuted_ = 0;
};

}  // namespace socfmea::search
