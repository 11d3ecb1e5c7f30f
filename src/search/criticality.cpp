#include "search/criticality.hpp"

#include <algorithm>
#include <unordered_map>

#include "obs/telemetry.hpp"

namespace socfmea::search {

using inject::Outcome;

namespace {

/// KT-prior pseudo-count added to the DU numerator (and twice to the
/// denominator) of every refuting measured fraction.
constexpr double kPriorDu = 0.5;
/// Rows with fewer activated matching samples keep their analytic λDU
/// unconditionally (too little evidence to refute anything).
constexpr std::size_t kMinSamples = 4;

/// Stable instance name of a fault's site.
std::string siteName(const netlist::Netlist& nl, const fault::Fault& f) {
  const auto netName = [&](netlist::NetId n) -> std::string {
    if (n == netlist::kNoNet || n >= nl.netCount()) return "?";
    const std::string& name = nl.net(n).name;
    return name.empty() ? "$n" + std::to_string(n) : name;
  };
  switch (f.kind) {
    case fault::FaultKind::SeuFlip:
    case fault::FaultKind::DelayStale:
      return f.cell != netlist::kNoCell && f.cell < nl.cellCount()
                 ? nl.cell(f.cell).name
                 : "?";
    case fault::FaultKind::StuckAt0:
    case fault::FaultKind::StuckAt1:
    case fault::FaultKind::SetPulse:
      if (f.cell != netlist::kNoCell && f.cell < nl.cellCount()) {
        return nl.cell(f.cell).name;
      }
      return netName(f.net);
    case fault::FaultKind::BridgeAnd:
    case fault::FaultKind::BridgeOr:
      return netName(f.net) + "~" + netName(f.net2);
    case fault::FaultKind::MemStuckBit:
    case fault::FaultKind::MemAddrNone:
    case fault::FaultKind::MemAddrWrong:
    case fault::FaultKind::MemAddrMulti:
    case fault::FaultKind::MemCoupling:
    case fault::FaultKind::MemSoftError:
      return f.mem < nl.memoryCount() ? nl.memory(f.mem).name : "?";
    case fault::FaultKind::MultiSeu:
      if (!f.cells.empty() && f.cells.front() < nl.cellCount()) {
        return nl.cell(f.cells.front()).name + "+" +
               std::to_string(f.cells.size() - 1);
      }
      return "?";
  }
  return "?";
}

double rowExposure(const fmea::FmeaRow& r) {
  return r.persistence == fmea::Persistence::Transient
             ? fmea::freqFactor(r.freq) *
                   std::clamp(r.lifetimeFraction, 0.0, 1.0)
             : 1.0;
}

}  // namespace

bool faultKindMatchesRow(fault::FaultKind kind, const fmea::FmeaRow& row) {
  const bool memRow = row.component == fmea::ComponentClass::VariableMemory ||
                      row.component == fmea::ComponentClass::InvariableMemory;
  switch (kind) {
    // State-flip transients populate the transient rows of non-memory
    // classes (logic-seu, cpu-seu, bus-transient, clk-transient, ...).
    case fault::FaultKind::SeuFlip:
    case fault::FaultKind::MultiSeu:
    case fault::FaultKind::SetPulse:
      return !memRow && row.persistence == fmea::Persistence::Transient;
    case fault::FaultKind::StuckAt0:
    case fault::FaultKind::StuckAt1:
      return !memRow && row.persistence == fmea::Persistence::Permanent &&
             row.failureMode.find("bridge") == std::string::npos &&
             row.failureMode.find("delay") == std::string::npos;
    case fault::FaultKind::BridgeAnd:
    case fault::FaultKind::BridgeOr:
      return !memRow && row.persistence == fmea::Persistence::Permanent &&
             (row.failureMode.find("bridge") != std::string::npos ||
              row.failureMode.find("crosstalk") != std::string::npos);
    case fault::FaultKind::DelayStale:
      return !memRow && row.persistence == fmea::Persistence::Permanent &&
             row.failureMode.find("delay") != std::string::npos;
    // The IEC memory fault models map one-to-one onto the variable-memory
    // failure-mode catalogue (the addressing models cover both the DC
    // address row and the no/wrong/multiple-addressing row).
    case fault::FaultKind::MemStuckBit:
      return row.failureMode == "mem-dc-data";
    case fault::FaultKind::MemAddrNone:
    case fault::FaultKind::MemAddrWrong:
    case fault::FaultKind::MemAddrMulti:
      return row.failureMode == "mem-addressing" ||
             row.failureMode == "mem-dc-addr";
    case fault::FaultKind::MemCoupling:
      return row.failureMode == "mem-crossover";
    case fault::FaultKind::MemSoftError:
      return memRow && row.persistence == fmea::Persistence::Transient;
  }
  return false;
}

CriticalityMap CriticalityMap::fromCampaign(
    const netlist::Netlist& nl, const zones::ZoneDatabase& db,
    const inject::CampaignResult& result, const fmea::FmeaSheet* sheet) {
  CriticalityMap m;

  // ---- Count weighting: fold every record into its site and zone ----------
  std::unordered_map<std::string, std::size_t> siteIndex;
  std::unordered_map<zones::ZoneId, std::size_t> zoneIndex;
  // Per (zone, kind) activation/DU samples for the Lambda weighting below.
  struct KindSample {
    std::size_t activated = 0;
    std::size_t du = 0;
  };
  std::unordered_map<std::uint64_t, KindSample> samples;
  const auto sampleKey = [](zones::ZoneId z, fault::FaultKind k) {
    return (static_cast<std::uint64_t>(z) << 8) |
           static_cast<std::uint64_t>(k);
  };

  for (const inject::InjectionRecord& rec : result.records) {
    const std::string site = siteName(nl, rec.fault);
    auto [sit, sNew] = siteIndex.try_emplace(site, m.sites_.size());
    if (sNew) {
      SiteCriticality s;
      s.site = site;
      s.zone = rec.zone;
      if (rec.zone != zones::kNoZone && rec.zone < db.size()) {
        s.zoneName = db.zone(rec.zone).name;
      }
      m.sites_.push_back(std::move(s));
    }
    SiteCriticality& s = m.sites_[sit->second];
    auto [zit, zNew] = zoneIndex.try_emplace(rec.zone, m.zones_.size());
    if (zNew) {
      ZoneCriticality z;
      z.zone = rec.zone;
      z.name = rec.zone != zones::kNoZone && rec.zone < db.size()
                   ? db.zone(rec.zone).name
                   : "(none)";
      m.zones_.push_back(std::move(z));
    }
    ZoneCriticality& z = m.zones_[zit->second];

    ++s.injected;
    ++z.injected;
    ++z.outcomes[static_cast<std::size_t>(rec.outcome)];
    const bool activated = rec.outcome != Outcome::NoEffect;
    if (activated) {
      ++s.activated;
      ++z.activated;
      ++m.totalActivated_;
      KindSample& ks = samples[sampleKey(rec.zone, rec.fault.kind)];
      ++ks.activated;
      if (rec.outcome == Outcome::DangerousUndetected) ++ks.du;
    }
    if (rec.outcome == Outcome::DangerousUndetected) {
      ++s.dangerousUndetected;
      ++m.totalDu_;
    }
    if (rec.outcome == Outcome::DangerousDetected) ++s.dangerousDetected;
  }
  for (SiteCriticality& s : m.sites_) {
    s.duShare = m.totalDu_ == 0
                    ? 0.0
                    : static_cast<double>(s.dangerousUndetected) /
                          static_cast<double>(m.totalDu_);
  }
  for (ZoneCriticality& z : m.zones_) {
    const std::size_t du =
        z.outcomes[static_cast<std::size_t>(Outcome::DangerousUndetected)];
    z.duShare = m.totalDu_ == 0 ? 0.0
                                : static_cast<double>(du) /
                                      static_cast<double>(m.totalDu_);
    z.duFraction = z.activated == 0 ? 0.0
                                    : static_cast<double>(du) /
                                          static_cast<double>(z.activated);
  }
  m.measuredSff_ = inject::CampaignResult::measuredSff(result.tally());

  // ---- Lambda weighting: hybrid λDU over the sheet rows --------------------
  if (sheet != nullptr) {
    double totalLambda = 0.0;
    double analyticDu = 0.0;
    double hybridDu = 0.0;
    std::unordered_map<zones::ZoneId, double> zoneHybridDu;
    for (const fmea::FmeaRow& r : sheet->rows()) {
      totalLambda += r.lambda;
      analyticDu += r.lambdaDU;
      // Pool every sampled fault kind that can populate this row.
      KindSample pooled;
      for (int k = 0; k <= static_cast<int>(fault::FaultKind::MultiSeu); ++k) {
        const auto kind = static_cast<fault::FaultKind>(k);
        if (!faultKindMatchesRow(kind, r)) continue;
        const auto it = samples.find(sampleKey(r.zone, kind));
        if (it == samples.end()) continue;
        pooled.activated += it->second.activated;
        pooled.du += it->second.du;
      }
      double rowDu = r.lambdaDU;
      // Only transient rows are judged: the campaign simulates the mission
      // window, so it can test online diagnostics but not boot-time or
      // periodic-test claims that act outside it.
      const bool testable =
          r.persistence == fmea::Persistence::Transient &&
          pooled.activated >= kMinSamples;
      if (testable) {
        ++m.rowsMeasured_;
        const double exposure = rowExposure(r);
        const double lambdaEff = r.lambda * exposure;
        const double analyticFrac =
            lambdaEff > 0.0 ? r.lambdaDU / lambdaEff : 0.0;
        const double point = static_cast<double>(pooled.du) /
                             static_cast<double>(pooled.activated);
        if (point > analyticFrac) {
          // The claim is overstated; substitute the smoothed measurement,
          // never dropping below the analytic value (one-sided).
          const double frac =
              (static_cast<double>(pooled.du) + kPriorDu) /
              (static_cast<double>(pooled.activated) + 2.0 * kPriorDu);
          rowDu = std::max(r.lambdaDU, lambdaEff * frac);
          ++m.rowsRefuted_;
        }
      } else {
        ++m.rowsAnalytic_;
      }
      hybridDu += rowDu;
      zoneHybridDu[r.zone] += rowDu;
    }
    m.hybridLambdaDu_ = hybridDu;
    m.analyticSff_ = totalLambda > 0.0 ? 1.0 - analyticDu / totalLambda : 0.0;
    m.hybridSff_ = totalLambda > 0.0 ? 1.0 - hybridDu / totalLambda : 0.0;
    for (ZoneCriticality& z : m.zones_) {
      const auto it = zoneHybridDu.find(z.zone);
      z.lambdaDu = it != zoneHybridDu.end() ? it->second : 0.0;
      z.lambdaShare = hybridDu > 0.0 ? z.lambdaDu / hybridDu : 0.0;
    }
    // Zones present only in the sheet (never injected) still rank.
    for (const auto& [zone, du] : zoneHybridDu) {
      if (zoneIndex.contains(zone)) continue;
      ZoneCriticality z;
      z.zone = zone;
      z.name = zone != zones::kNoZone && zone < db.size() ? db.zone(zone).name
                                                          : "(none)";
      z.lambdaDu = du;
      z.lambdaShare = hybridDu > 0.0 ? du / hybridDu : 0.0;
      m.zones_.push_back(std::move(z));
    }
  } else {
    m.hybridSff_ = m.measuredSff_;
    m.analyticSff_ = m.measuredSff_;
  }

  const bool byLambda = sheet != nullptr;
  std::sort(m.zones_.begin(), m.zones_.end(),
            [byLambda](const ZoneCriticality& a, const ZoneCriticality& b) {
              const double ka = byLambda ? a.lambdaDu : a.duShare;
              const double kb = byLambda ? b.lambdaDu : b.duShare;
              if (ka != kb) return ka > kb;
              return a.name < b.name;
            });
  std::sort(m.sites_.begin(), m.sites_.end(),
            [](const SiteCriticality& a, const SiteCriticality& b) {
              if (a.dangerousUndetected != b.dangerousUndetected) {
                return a.dangerousUndetected > b.dangerousUndetected;
              }
              return a.site < b.site;
            });
  return m;
}

obs::Json CriticalityMap::toJson(std::size_t maxSites) const {
  obs::Json j = obs::Json::object();
  j["du_total"] = static_cast<long long>(totalDu_);
  j["activated_total"] = static_cast<long long>(totalActivated_);
  j["hybrid_sff"] = hybridSff_;
  j["analytic_sff"] = analyticSff_;
  j["measured_sff"] = measuredSff_;
  j["hybrid_lambda_du"] = hybridLambdaDu_;
  j["rows_measured"] = static_cast<long long>(rowsMeasured_);
  j["rows_analytic"] = static_cast<long long>(rowsAnalytic_);
  j["rows_refuted"] = static_cast<long long>(rowsRefuted_);

  obs::Json zs = obs::Json::array();
  for (const ZoneCriticality& z : zones_) {
    obs::Json zj = obs::Json::object();
    zj["zone"] = z.name;
    zj["injected"] = static_cast<long long>(z.injected);
    zj["activated"] = static_cast<long long>(z.activated);
    zj["du"] = static_cast<long long>(
        z.outcomes[static_cast<std::size_t>(Outcome::DangerousUndetected)]);
    zj["du_fraction"] = z.duFraction;
    zj["du_share"] = z.duShare;
    zj["lambda_du"] = z.lambdaDu;
    zj["lambda_share"] = z.lambdaShare;
    zs.push_back(std::move(zj));
  }
  j["zones"] = std::move(zs);

  obs::Json ss = obs::Json::array();
  for (std::size_t i = 0; i < sites_.size() && i < maxSites; ++i) {
    const SiteCriticality& s = sites_[i];
    obs::Json sj = obs::Json::object();
    sj["site"] = s.site;
    sj["zone"] = s.zoneName;
    sj["injected"] = static_cast<long long>(s.injected);
    sj["activated"] = static_cast<long long>(s.activated);
    sj["du"] = static_cast<long long>(s.dangerousUndetected);
    sj["dd"] = static_cast<long long>(s.dangerousDetected);
    sj["du_share"] = s.duShare;
    ss.push_back(std::move(sj));
  }
  j["sites"] = std::move(ss);
  return j;
}

void CriticalityMap::exportTelemetry() const {
  obs::Registry& reg = obs::Registry::global();
  reg.set("search.criticality.du_total", static_cast<double>(totalDu_));
  reg.set("search.criticality.activated_total",
          static_cast<double>(totalActivated_));
  reg.set("search.criticality.hybrid_sff", hybridSff_);
  reg.set("search.criticality.analytic_sff", analyticSff_);
  reg.set("search.criticality.measured_sff", measuredSff_);
  reg.set("search.criticality.rows_measured",
          static_cast<double>(rowsMeasured_));
  reg.set("search.criticality.rows_refuted",
          static_cast<double>(rowsRefuted_));
  reg.set("search.criticality.zones", static_cast<double>(zones_.size()));
  reg.set("search.criticality.sites", static_cast<double>(sites_.size()));
  if (!zones_.empty()) {
    reg.set("search.criticality.top_zone_share", zones_.front().lambdaShare);
  }
}

}  // namespace socfmea::search
