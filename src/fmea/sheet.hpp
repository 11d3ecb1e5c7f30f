// The FMEA "spreadsheet" (paper, Sections 3-4): one row per sensible zone
// per failure mode, carrying
//   * the failure rate λ attributed to the row (from the FIT model, the
//     zone's cone statistics and the failure-mode weight),
//   * S and D factors (architectural and applicational) estimating the safe
//     and dangerous fraction of the failures,
//   * the frequency class F and the lifetime ζ of the zone (vulnerable
//     window for transients),
//   * the Detected Dangerous Failure fraction (DDF) claims, one per
//     diagnostic technique, distinguished HW/SW and capped at the maximum
//     DC the norm grants the technique.
//
// compute() derives λS, λDD, λDU per row; the sheet then reports DC, SFF,
// the SIL grant, and the criticality ranking of zones.
//
// Row model:
//   S_comb   = 1 - (1 - S_arch)(1 - S_app)
//   exposure = 1                         (permanent faults wait for use)
//            = F · ζfrac                 (transient faults must hit the
//                                         vulnerable window)
//   λD  = λ · (1 - S_comb) · exposure;  λS = λ - λD
//   DDF = 1 - Π(1 - dc_i),  dc_i capped at the technique's max DC and
//                           zeroed when the technique cannot detect the
//                           row's persistence class
//   λDD = λD · DDF;  λDU = λD - λDD
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "fmea/failure_modes.hpp"
#include "fmea/fit_model.hpp"
#include "fmea/iec61508.hpp"
#include "fmea/techniques.hpp"
#include "zones/zone.hpp"

namespace socfmea::fmea {

/// Usage-frequency class of a zone ("the frequency class F of the given
/// sensible zone, used to estimate its usage frequencies").
enum class FreqClass : std::uint8_t { VeryLow, Low, Medium, High, Continuous };

[[nodiscard]] std::string_view freqClassName(FreqClass f) noexcept;
/// Fraction of mission time the zone's content matters.
[[nodiscard]] double freqFactor(FreqClass f) noexcept;

/// One DDF claim against a catalogued technique.
struct DiagnosticClaim {
  std::string technique;  ///< key into techniqueCatalogue()
  double claimedDc = 0.0; ///< user/architecture estimate, capped at the max
};

/// Safe-fraction factors; "usually only architectural S/D factors are
/// considered".
struct SdFactors {
  double architectural = 0.0;
  double applicational = 0.0;
  [[nodiscard]] double combined() const noexcept {
    return 1.0 - (1.0 - architectural) * (1.0 - applicational);
  }
};

struct FmeaRow {
  zones::ZoneId zone = zones::kNoZone;
  std::string zoneName;
  zones::ZoneKind zoneKind = zones::ZoneKind::Register;
  ComponentClass component = ComponentClass::Logic;
  std::string failureMode;
  Persistence persistence = Persistence::Permanent;

  double lambda = 0.0;  ///< FIT attributed to this row
  SdFactors safe;
  FreqClass freq = FreqClass::Continuous;
  double lifetimeFraction = 1.0;  ///< ζ as a fraction of the usage period
  std::vector<DiagnosticClaim> claims;

  // computed by FmeaSheet::compute():
  double lambdaS = 0.0;
  double lambdaDD = 0.0;
  double lambdaDU = 0.0;
  double ddf = 0.0;     ///< effective detected-dangerous fraction
  double ddfHw = 0.0;   ///< portion of ddf from hardware techniques
  double ddfSw = 0.0;   ///< portion from software techniques

  [[nodiscard]] double lambdaD() const noexcept { return lambdaDD + lambdaDU; }
};

struct SheetConfig {
  ElementType elementType = ElementType::TypeB;  ///< a SoC is type B
  unsigned hft = 0;
};

class FmeaSheet {
 public:
  explicit FmeaSheet(SheetConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] const SheetConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::vector<FmeaRow>& rows() const noexcept { return rows_; }
  [[nodiscard]] std::vector<FmeaRow>& rows() noexcept { return rows_; }

  void addRow(FmeaRow row) { rows_.push_back(std::move(row)); }

  /// Auto-populates rows from an extracted zone database: one row per zone
  /// per applicable failure mode, λ split by the mode weights, default
  /// component class from the zone kind.
  void populateFromZones(const zones::ZoneDatabase& db, const FitModel& fit);

  /// Overrides the component class (and re-derives failure-mode rows) for
  /// zones whose name contains `zonePattern`.  Returns zones affected.
  std::size_t reclassifyZones(const zones::ZoneDatabase& db,
                              const FitModel& fit, std::string_view zonePattern,
                              ComponentClass component);

  // --- bulk editing (rows selected by substring patterns; "" = all) ---------

  std::size_t addClaim(std::string_view zonePattern,
                       std::string_view modePattern, DiagnosticClaim claim);
  std::size_t setSafeFactors(std::string_view zonePattern, SdFactors sd);
  std::size_t setFrequency(std::string_view zonePattern, FreqClass f,
                           double lifetimeFraction);

  // --- computation -----------------------------------------------------------

  /// Derives λS/λDD/λDU and the DDF split for every row.
  void compute();

  [[nodiscard]] Lambdas totals() const;
  [[nodiscard]] double sff() const { return safeFailureFraction(totals()); }
  [[nodiscard]] double dc() const { return diagnosticCoverage(totals()); }
  [[nodiscard]] Sil sil() const {
    return silFromSff(sff(), cfg_.hft, cfg_.elementType);
  }
  /// Probability of dangerous failure per hour (continuous mode, HFT 0).
  [[nodiscard]] double pfh() const { return pfhFromLambda(totals()); }
  /// SIL by the probabilistic route (61508-1 table 3); the claimable SIL is
  /// the minimum of this and the architectural sil().
  [[nodiscard]] Sil silByPfh() const { return silFromPfh(pfh()); }

  /// Per-zone aggregated rates.
  [[nodiscard]] Lambdas zoneTotals(zones::ZoneId z) const;

  /// Criticality ranking: zones by descending λDU ("a ranking of sensible
  /// zones in terms of their criticality").
  struct RankEntry {
    zones::ZoneId zone;
    std::string name;
    double lambdaDU;
    double share;  ///< of the design's total λDU
  };
  [[nodiscard]] std::vector<RankEntry> ranking(std::size_t topN = 0) const;

  /// Structured export: config, totals (λS/λDD/λDU with DC/SFF), the SIL
  /// grant by both routes, the per-zone rate table, the criticality
  /// ranking, and — when `maxRows` != 0 — up to `maxRows` full rows.
  /// Everything in it is deterministic, so CI can diff it against a golden
  /// report (defined in report.cpp).
  [[nodiscard]] obs::Json toJson(std::size_t maxRows = 0) const;

 private:
  SheetConfig cfg_;
  std::vector<FmeaRow> rows_;
};

}  // namespace socfmea::fmea
