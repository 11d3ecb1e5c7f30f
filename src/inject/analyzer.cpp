#include "inject/analyzer.hpp"

#include "inject/env_builder.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace socfmea::inject {

double ZoneMeasurement::measuredS() const {
  if (activated == 0) return 1.0;
  return static_cast<double>(masked + safeDetected) /
         static_cast<double>(activated);
}

double ZoneMeasurement::measuredDdf() const {
  const std::size_t detected = safeDetected + dangerousDetected;
  const std::size_t d = detected + undetected;
  if (d == 0) return 1.0;
  return static_cast<double>(detected) / static_cast<double>(d);
}

std::vector<ZoneMeasurement> ResultAnalyzer::aggregate(
    const CampaignResult& campaign) const {
  std::map<zones::ZoneId, ZoneMeasurement> byZone;
  for (const InjectionRecord& r : campaign.records) {
    if (r.zone == zones::kNoZone) continue;
    // Per-zone statistics are meaningful for *local* faults only; a wide
    // fault converges into several zones and its outcome cannot be
    // attributed to one of them (step (d) of the validation flow covers
    // wide/global sites separately).
    if (ownerZones(*db_, r.fault).size() > 1) continue;
    ZoneMeasurement& m = byZone[r.zone];
    m.zone = r.zone;
    m.name = db_->zone(r.zone).name;
    ++m.injections;
    if (r.outcome == Outcome::NoEffect) continue;
    ++m.activated;
    switch (r.outcome) {
      case Outcome::SafeMasked:
        ++m.masked;
        break;
      case Outcome::SafeDetected:
        ++m.safeDetected;
        break;
      case Outcome::DangerousDetected:
        ++m.dangerousDetected;
        break;
      case Outcome::DangerousUndetected:
        ++m.undetected;
        break;
      default:
        break;
    }
  }
  std::vector<ZoneMeasurement> out;
  out.reserve(byZone.size());
  for (auto& [id, m] : byZone) out.push_back(std::move(m));
  return out;
}

std::vector<EffectsEntry> ResultAnalyzer::effectsTable(
    const CampaignResult& campaign) const {
  std::map<zones::ZoneId, EffectsEntry> byZone;
  for (const InjectionRecord& r : campaign.records) {
    if (r.zone == zones::kNoZone || r.obs.obsDeviated.empty()) continue;
    // Only local faults are attributable to one zone (wide-site effects are
    // checked against the union of owners in validate()).
    if (ownerZones(*db_, r.fault).size() > 1) continue;
    EffectsEntry& e = byZone[r.zone];
    e.zone = r.zone;
    for (zones::ObsId p : r.obs.obsDeviated) {
      if (std::find(e.observedAt.begin(), e.observedAt.end(), p) ==
          e.observedAt.end()) {
        e.observedAt.push_back(p);
      }
    }
  }
  std::vector<EffectsEntry> out;
  out.reserve(byZone.size());
  for (auto& [id, e] : byZone) {
    std::sort(e.observedAt.begin(), e.observedAt.end());
    out.push_back(std::move(e));
  }
  return out;
}

ValidationReport ResultAnalyzer::validate(const fmea::FmeaSheet& sheet,
                                          const CampaignResult& campaign,
                                          double tolerance,
                                          std::size_t minSamples) const {
  ValidationReport rep;
  rep.tolerance = tolerance;

  // --- per-zone S / DDF comparison -------------------------------------------
  for (const ZoneMeasurement& m : aggregate(campaign)) {
    if (m.activated < minSamples) continue;
    const fmea::Lambdas est = sheet.zoneTotals(m.zone);
    if (est.total() <= 0.0) continue;
    ZoneComparison c;
    c.zone = m.zone;
    c.name = m.name;
    // The Randomiser injects into the zone's *live* cycles by design, so the
    // measurement cannot see temporal masking; the comparable estimate is
    // the conditional (architectural) S factor, λ-weighted over the zone's
    // rows — not λS/λ, which also folds in the exposure term.
    {
      double wS = 0.0;
      double w = 0.0;
      for (const fmea::FmeaRow& r : sheet.rows()) {
        if (r.zone != m.zone) continue;
        wS += r.lambda * r.safe.combined();
        w += r.lambda;
      }
      c.estimatedS = w <= 0.0 ? 0.0 : wS / w;
    }
    c.measuredS = m.measuredS();
    c.estimatedDdf =
        est.dangerous() <= 0.0 ? 1.0 : est.dangerousDetected / est.dangerous();
    c.measuredDdf = m.measuredDdf();
    c.samples = m.activated;
    // One-sided checks: the FMEA must not OVERCLAIM.  A measured DDF above
    // the (norm-capped) claim, or more masking than estimated, is simply a
    // conservative sheet and passes; the failure is claiming detection or
    // safety the silicon doesn't deliver.
    const double dS = std::max(0.0, c.estimatedS - c.measuredS);
    const double dD = std::max(0.0, c.estimatedDdf - c.measuredDdf);
    rep.maxDeltaS = std::max(rep.maxDeltaS, dS);
    rep.maxDeltaDdf = std::max(rep.maxDeltaDdf, dD);
    // The S estimate mixes architectural and temporal masking whose
    // experimental split is workload-conditioned, so it gets twice the band
    // (the paper's "in line with the estimated values").
    //
    // The DDF comparison is a statistical refutation, not a point check:
    // measuredDdf is a Bernoulli estimate over the zone's non-masked
    // injections (often < 10 at step-(a) sample budgets), so the claim only
    // fails when it lies outside the measurement's one-sided ~99 %
    // confidence band (z = 2.5, continuity-corrected).  Gross overclaims
    // are still rejected at any sample count, and the band tightens as
    // 1/sqrt(n) when a campaign raises the per-bit injection budget.
    const std::size_t ddfSamples =
        m.safeDetected + m.dangerousDetected + m.undetected;
    double ddfBand = 0.0;
    if (ddfSamples > 0) {
      const double p = c.measuredDdf;
      const double n = static_cast<double>(ddfSamples);
      ddfBand = 2.5 * std::sqrt(p * (1.0 - p) / n) + 0.5 / n;
    }
    c.pass = dS <= 2.0 * tolerance && dD <= tolerance + ddfBand;
    rep.zones.push_back(std::move(c));
  }
  rep.pass = std::all_of(rep.zones.begin(), rep.zones.end(),
                         [](const ZoneComparison& c) { return c.pass; });

  // --- effects-table consistency ----------------------------------------------
  // A wide fault fails several zones at once; an observation point is
  // "explained" when ANY failed zone (or any zone whose converging cone
  // contains the fault site) structurally reaches it.  Anything else is a
  // genuinely missing FMEA line.
  for (const InjectionRecord& r : campaign.records) {
    if (r.obs.obsDeviated.empty()) continue;
    std::vector<zones::ZoneId> sources = r.obs.zonesDeviated;
    for (zones::ZoneId z : ownerZones(*db_, r.fault)) sources.push_back(z);
    for (zones::ObsId p : r.obs.obsDeviated) {
      const bool explained = std::any_of(
          sources.begin(), sources.end(), [&](zones::ZoneId z) {
            const auto& predicted = effects_->effectsOf(z);
            return p < predicted.size() &&
                   predicted[p] != zones::EffectClass::None;
          });
      if (!explained) {
        const zones::ZoneId z =
            r.zone != zones::kNoZone
                ? r.zone
                : (sources.empty() ? 0 : sources.front());
        const ValidationReport::EffectViolation v{z, p};
        const bool dup = std::any_of(
            rep.effectViolations.begin(), rep.effectViolations.end(),
            [&](const auto& e) { return e.zone == v.zone && e.obs == v.obs; });
        if (!dup) rep.effectViolations.push_back(v);
      }
    }
  }
  rep.effectsConsistent = rep.effectViolations.empty();
  return rep;
}

void printValidation(std::ostream& out, const ValidationReport& rep,
                     std::size_t maxZones) {
  out << "FMEA validation (tolerance " << rep.tolerance * 100.0 << " pt): "
      << (rep.pass ? "PASS" : "FAIL") << ", effects "
      << (rep.effectsConsistent ? "consistent" : "INCONSISTENT") << "\n";
  out << "  max |dS| " << rep.maxDeltaS * 100.0 << " pt, max |dDDF| "
      << rep.maxDeltaDdf * 100.0 << " pt\n";
  std::size_t shown = 0;
  for (const ZoneComparison& c : rep.zones) {
    if (shown++ >= maxZones) {
      out << "  ... (" << rep.zones.size() - maxZones << " more zones)\n";
      break;
    }
    out << "  " << c.name << ": S est " << c.estimatedS * 100.0 << "% meas "
        << c.measuredS * 100.0 << "%, DDF est " << c.estimatedDdf * 100.0
        << "% meas " << c.measuredDdf * 100.0 << "% (" << c.samples
        << " samples) " << (c.pass ? "ok" : "DEVIATES") << "\n";
  }
  for (const auto& v : rep.effectViolations) {
    out << "  new FMEA line needed: zone #" << v.zone
        << " observed at point #" << v.obs << " (predicted unreachable)\n";
  }
}

void printEffectsTable(std::ostream& out, const zones::ZoneDatabase& db,
                       const zones::EffectsModel& effects,
                       const std::vector<EffectsEntry>& table,
                       std::size_t maxZones) {
  out << "effects table (" << table.size() << " zones with measured effects):\n";
  std::size_t shown = 0;
  for (const EffectsEntry& e : table) {
    if (shown++ >= maxZones) {
      out << "  ... (" << table.size() - maxZones << " more zones)\n";
      break;
    }
    out << "  " << db.zone(e.zone).name << " ->";
    const auto& predicted = effects.effectsOf(e.zone);
    for (zones::ObsId p : e.observedAt) {
      const char* cls = "?";
      if (p < predicted.size()) {
        switch (predicted[p]) {
          case zones::EffectClass::Main: cls = "main"; break;
          case zones::EffectClass::Secondary: cls = "secondary"; break;
          case zones::EffectClass::None: cls = "UNPREDICTED"; break;
        }
      }
      out << " " << effects.point(p).name << "[" << cls << "]";
    }
    out << "\n";
  }
}

}  // namespace socfmea::inject
