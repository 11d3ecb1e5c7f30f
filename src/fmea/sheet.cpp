#include "fmea/sheet.hpp"

#include <algorithm>
#include <map>

namespace socfmea::fmea {

std::string_view freqClassName(FreqClass f) noexcept {
  switch (f) {
    case FreqClass::VeryLow: return "very-low";
    case FreqClass::Low: return "low";
    case FreqClass::Medium: return "medium";
    case FreqClass::High: return "high";
    case FreqClass::Continuous: return "continuous";
  }
  return "?";
}

double freqFactor(FreqClass f) noexcept {
  switch (f) {
    case FreqClass::VeryLow: return 0.02;
    case FreqClass::Low: return 0.10;
    case FreqClass::Medium: return 0.35;
    case FreqClass::High: return 0.70;
    case FreqClass::Continuous: return 1.00;
  }
  return 1.0;
}

namespace {

bool matches(const std::string& name, std::string_view pattern) {
  return pattern.empty() || name.find(pattern) != std::string::npos;
}

void emitRowsForZone(std::vector<FmeaRow>& rows, const zones::SensibleZone& z,
                     ComponentClass component, const ZoneFit& fit) {
  for (const FailureMode& fm : failureModesFor(component)) {
    FmeaRow row;
    row.zone = z.id;
    row.zoneName = z.name;
    row.zoneKind = z.kind;
    row.component = component;
    row.failureMode = std::string(fm.key);
    if (fm.persistence == Persistence::Transient) {
      row.persistence = Persistence::Transient;
      row.lambda = fit.transient * fm.weight;
    } else {
      // Permanent and Both modes draw on the permanent budget.
      row.persistence = Persistence::Permanent;
      row.lambda = fit.permanent * fm.weight;
    }
    if (row.lambda <= 0.0) continue;  // zone contributes nothing to this mode
    rows.push_back(std::move(row));
  }
}

}  // namespace

void FmeaSheet::populateFromZones(const zones::ZoneDatabase& db,
                                  const FitModel& fit) {
  for (const zones::SensibleZone& z : db.zones()) {
    const ComponentClass component = defaultComponentClass(z.kind);
    emitRowsForZone(rows_, z, component, zoneFit(fit, z, db.design()));
  }
}

std::size_t FmeaSheet::reclassifyZones(const zones::ZoneDatabase& db,
                                       const FitModel& fit,
                                       std::string_view zonePattern,
                                       ComponentClass component) {
  // Drop existing rows of matching zones, then re-emit with the new class.
  std::vector<zones::ZoneId> affected;
  for (const zones::SensibleZone& z : db.zones()) {
    if (matches(z.name, zonePattern)) affected.push_back(z.id);
  }
  if (affected.empty()) return 0;
  std::erase_if(rows_, [&](const FmeaRow& r) {
    return std::find(affected.begin(), affected.end(), r.zone) !=
           affected.end();
  });
  for (zones::ZoneId id : affected) {
    const zones::SensibleZone& z = db.zone(id);
    emitRowsForZone(rows_, z, component, zoneFit(fit, z, db.design()));
  }
  return affected.size();
}

std::size_t FmeaSheet::addClaim(std::string_view zonePattern,
                                std::string_view modePattern,
                                DiagnosticClaim claim) {
  std::size_t n = 0;
  for (FmeaRow& r : rows_) {
    if (!matches(r.zoneName, zonePattern) ||
        !matches(r.failureMode, modePattern)) {
      continue;
    }
    r.claims.push_back(claim);
    ++n;
  }
  return n;
}

std::size_t FmeaSheet::setSafeFactors(std::string_view zonePattern,
                                      SdFactors sd) {
  std::size_t n = 0;
  for (FmeaRow& r : rows_) {
    if (!matches(r.zoneName, zonePattern)) continue;
    r.safe = sd;
    ++n;
  }
  return n;
}

std::size_t FmeaSheet::setFrequency(std::string_view zonePattern, FreqClass f,
                                    double lifetimeFraction) {
  std::size_t n = 0;
  for (FmeaRow& r : rows_) {
    if (!matches(r.zoneName, zonePattern)) continue;
    r.freq = f;
    r.lifetimeFraction = lifetimeFraction;
    ++n;
  }
  return n;
}

void FmeaSheet::compute() {
  for (FmeaRow& r : rows_) {
    const double sComb = std::clamp(r.safe.combined(), 0.0, 1.0);
    const double exposure =
        r.persistence == Persistence::Transient
            ? freqFactor(r.freq) * std::clamp(r.lifetimeFraction, 0.0, 1.0)
            : 1.0;
    const double lambdaD = r.lambda * (1.0 - sComb) * exposure;
    r.lambdaS = r.lambda - lambdaD;

    // Effective DDF: independent-detection composition over claims, each
    // capped at the norm's maximum for the technique and gated on the
    // technique's ability to see this persistence class.
    double missAll = 1.0;
    double missHw = 1.0;
    for (const DiagnosticClaim& c : r.claims) {
      const auto tech = findTechnique(c.technique);
      if (!tech) continue;
      const bool applicable = r.persistence == Persistence::Transient
                                  ? tech->covers.transient
                                  : tech->covers.permanent;
      if (!applicable) continue;
      const double dc =
          std::clamp(c.claimedDc, 0.0, dcLevelValue(tech->maxDc));
      missAll *= (1.0 - dc);
      if (tech->impl == TechniqueImpl::Hardware) missHw *= (1.0 - dc);
    }
    r.ddf = 1.0 - missAll;
    r.ddfHw = 1.0 - missHw;
    r.ddfSw = r.ddf - r.ddfHw;  // incremental detection added by SW techniques

    r.lambdaDD = lambdaD * r.ddf;
    r.lambdaDU = lambdaD - r.lambdaDD;
  }
}

Lambdas FmeaSheet::totals() const {
  Lambdas t;
  for (const FmeaRow& r : rows_) {
    t.safe += r.lambdaS;
    t.dangerousDetected += r.lambdaDD;
    t.dangerousUndetected += r.lambdaDU;
  }
  return t;
}

Lambdas FmeaSheet::zoneTotals(zones::ZoneId z) const {
  Lambdas t;
  for (const FmeaRow& r : rows_) {
    if (r.zone != z) continue;
    t.safe += r.lambdaS;
    t.dangerousDetected += r.lambdaDD;
    t.dangerousUndetected += r.lambdaDU;
  }
  return t;
}

std::vector<FmeaSheet::RankEntry> FmeaSheet::ranking(std::size_t topN) const {
  std::map<zones::ZoneId, RankEntry> byZone;
  double totalDu = 0.0;
  for (const FmeaRow& r : rows_) {
    auto& e = byZone[r.zone];
    e.zone = r.zone;
    e.name = r.zoneName;
    e.lambdaDU += r.lambdaDU;
    totalDu += r.lambdaDU;
  }
  std::vector<RankEntry> out;
  out.reserve(byZone.size());
  for (auto& [id, e] : byZone) {
    e.share = totalDu <= 0.0 ? 0.0 : e.lambdaDU / totalDu;
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(), [](const RankEntry& a, const RankEntry& b) {
    return a.lambdaDU > b.lambdaDU;
  });
  if (topN != 0 && out.size() > topN) out.resize(topN);
  return out;
}

}  // namespace socfmea::fmea
