#include "core/validation.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "inject/env_builder.hpp"

namespace socfmea::core {

namespace {

/// Step (b): required toggle fraction (the paper's default 99 %).
constexpr double kToggleThreshold = 0.99;
/// Tolerance for measured-vs-estimated comparisons (percentage points).
constexpr double kTolerance = 0.20;
constexpr std::uint64_t kDetectionWindow = 24;

// Permanent-row DDF of the sheet over the given zones (the critical areas
// whose cones the selective injection targets): λDD/λD restricted to
// permanent failure modes.
double permanentDdf(const fmea::FmeaSheet& sheet,
                    const std::vector<zones::ZoneId>& scope) {
  double dd = 0.0;
  double d = 0.0;
  for (const fmea::FmeaRow& r : sheet.rows()) {
    if (r.persistence != fmea::Persistence::Permanent) continue;
    if (!scope.empty() &&
        std::find(scope.begin(), scope.end(), r.zone) == scope.end()) {
      continue;
    }
    dd += r.lambdaDD;
    d += r.lambdaD();
  }
  return d <= 0.0 ? 1.0 : dd / d;
}

// Alarm output cells of the design (observation set for the fault-simulator
// DC measurement).
std::vector<netlist::CellId> alarmOutputs(const netlist::Netlist& nl,
                                          const zones::EffectsModel& effects) {
  std::vector<netlist::CellId> out;
  for (const zones::ObservationPoint& p : effects.points()) {
    if (p.kind != zones::ObsKind::Alarm) continue;
    if (const auto cell = nl.findCell(p.name)) out.push_back(*cell);
  }
  return out;
}

}  // namespace

ValidationFlowReport runValidationFlow(const FmeaFlow& flow,
                                       const faultsim::StimulusTrace& stim,
                                       const ValidationOptions& opt) {
  ValidationFlowReport rep;
  const netlist::Netlist& nl = flow.design();
  const zones::ZoneDatabase& db = flow.zones();
  const netlist::CompiledDesignPtr& cd = db.compiledShared();
  const zones::EffectsModel& effects = flow.effects();

  const inject::InjectionEnvironment env =
      inject::EnvironmentBuilder(db, effects)
          .withDetectionWindow(kDetectionWindow)
          .build();
  inject::InjectionManager mgr(env);
  // The flow's one fault-free run: the profile, the toggle pass and every
  // bit-sliced campaign below read it.
  const faultsim::GoldenRun golden(cd, stim);
  const inject::OperationalProfile profile =
      inject::OperationalProfile::record(db, golden);
  inject::ResultAnalyzer analyzer(db, effects);
  sim::Rng rng(opt.seed);

  // ---- step (a): exhaustive sensible-zone failure injection -----------------
  {
    const fault::FaultList faults =
        mgr.zoneFailureFaults(profile, opt.zoneFailuresPerBit, opt.seed);
    inject::CoverageCollector cov(mgr.environment());
    rep.zoneCampaign = mgr.run(golden, faults, &cov, opt.campaign);
    rep.zoneValidation =
        analyzer.validate(flow.sheet(), rep.zoneCampaign, kTolerance);
    rep.campaignCompleteness = cov.completeness();
    rep.stepAPass = rep.zoneValidation.pass &&
                    rep.zoneValidation.effectsConsistent &&
                    rep.campaignCompleteness >= 0.90;
  }

  // ---- step (b): workload efficiency (toggle coverage) -----------------------
  {
    rep.toggle = faultsim::measureToggle(golden);
    rep.stepBPass = rep.toggle.passes(kToggleThreshold);
  }

  // ---- step (c): selective local faults on the critical areas ----------------
  {
    fault::FaultList local;
    std::vector<zones::ZoneId> criticalScope;
    for (const auto& entry : flow.sheet().ranking(opt.criticalZones)) {
      const zones::SensibleZone& z = db.zone(entry.zone);
      // The fault simulator targets logic-cone gates; memory zones are
      // cell-dominated and validated by step (a)'s soft-error injection.
      if (z.kind == zones::ZoneKind::Memory) continue;
      criticalScope.push_back(entry.zone);
      if (z.cone.gates.empty()) continue;
      for (std::size_t i = 0; i < opt.localFaultsPerZone; ++i) {
        const netlist::CellId g = z.cone.gates[rng.below(z.cone.gates.size())];
        const netlist::NetId net = nl.cell(g).output;
        if (net == netlist::kNoNet) continue;
        fault::Fault f;
        f.cell = g;
        f.net = net;
        switch (i % 3) {
          case 0: f.kind = fault::FaultKind::StuckAt0; break;
          case 1: f.kind = fault::FaultKind::StuckAt1; break;
          default: f.kind = fault::FaultKind::SetPulse; break;
        }
        local.push_back(f);
      }
    }
    const fault::FaultList randomized = inject::randomizeFaultList(
        db, profile, local, local.size(), opt.seed + 1);
    rep.localCampaign = mgr.run(golden, randomized, nullptr, opt.campaign);
    rep.localMeasuredSff = rep.localCampaign.measuredSff();

    // Fault simulator: permanent-fault coverage of the *diagnostic* (alarm
    // outputs only) versus the DDF the sheet claims for permanent faults.
    fault::FaultList stuckOnly;
    for (const fault::Fault& f : randomized) {
      if (f.kind == fault::FaultKind::StuckAt0 ||
          f.kind == fault::FaultKind::StuckAt1) {
        stuckOnly.push_back(f);
      }
    }
    // A fault is detected when an alarm output deviates from golden.
    const faultsim::Watch alarms =
        faultsim::outputWatch(nl, alarmOutputs(nl, effects));
    const inject::WatchRun fs =
        mgr.runWatch(golden, stuckOnly, alarms, std::nullopt,
                     faultsim::RetireMode::DetectOnly, opt.campaign);
    const auto detected = std::count_if(
        fs.observations.begin(), fs.observations.end(),
        [](const faultsim::Observation& o) { return o.obs; });
    rep.faultSimCoverage =
        stuckOnly.empty() ? 1.0
                          : static_cast<double>(detected) /
                                static_cast<double>(stuckOnly.size());
    rep.sheetPermanentDdf = permanentDdf(flow.sheet(), criticalScope);

    const double sffDelta =
        std::fabs(rep.localMeasuredSff - rep.zoneCampaign.measuredSff());
    const double dcDelta =
        std::fabs(rep.faultSimCoverage - rep.sheetPermanentDdf);
    rep.stepCPass = sffDelta <= kTolerance && dcDelta <= kTolerance;
  }

  // ---- step (d): wide / global HW faults --------------------------------------
  {
    fault::FaultList wide;
    // Wide: stuck-at on gates feeding several zones.
    for (netlist::CellId c = 0;
         c < nl.cellCount() && wide.size() < opt.wideFaults; ++c) {
      if (!netlist::isCombinational(nl.cell(c).type)) continue;
      if (db.classifySite(c) != zones::FaultScope::Wide) continue;
      if (!rng.chance(0.25)) continue;
      fault::Fault f;
      f.kind = rng.coin() ? fault::FaultKind::StuckAt0
                          : fault::FaultKind::StuckAt1;
      f.cell = c;
      f.net = nl.cell(c).output;
      wide.push_back(f);
    }
    // Global: critical-net zones stuck (reset/clock-tree class faults).
    for (const zones::SensibleZone& z : db.zones()) {
      if (z.kind != zones::ZoneKind::CriticalNet) continue;
      for (const bool v : {false, true}) {
        fault::Fault f;
        f.kind = v ? fault::FaultKind::StuckAt1 : fault::FaultKind::StuckAt0;
        f.net = z.valueNets.front();
        const auto& drv = nl.net(f.net).driver;
        if (drv != netlist::kNoCell) f.cell = drv;
        wide.push_back(f);
      }
    }
    inject::CampaignOptions copt = opt.campaign;
    copt.earlyAbort = false;  // observe the full multiple-failure picture
    rep.wideCampaign = mgr.run(golden, wide, nullptr, copt);
    for (const inject::InjectionRecord& r : rep.wideCampaign.records) {
      if (r.obs.zonesDeviated.size() > 1) ++rep.multiZoneFailures;
    }
    const std::size_t activated =
        rep.wideCampaign.records.size() -
        rep.wideCampaign.count(inject::Outcome::NoEffect);
    rep.stepDPass = wide.empty() || activated == 0 || rep.multiZoneFailures > 0;
  }

  return rep;
}

void printValidationFlow(std::ostream& out, const ValidationFlowReport& rep) {
  out << "=== FMEA validation flow ===\n";
  out << "[a] zone-failure injection: " << rep.zoneCampaign.records.size()
      << " injections, measured SFF "
      << rep.zoneCampaign.measuredSff() * 100.0 << "%, completeness "
      << rep.campaignCompleteness * 100.0 << "% -> "
      << (rep.stepAPass ? "PASS" : "FAIL") << "\n";
  out << "[b] toggle coverage: " << rep.toggle.onceFraction() * 100.0
      << "% -> " << (rep.stepBPass ? "PASS" : "FAIL") << "\n";
  out << "[c] local faults on critical areas: measured SFF "
      << rep.localMeasuredSff * 100.0 << "%, fault-sim DC "
      << rep.faultSimCoverage * 100.0 << "% vs sheet permanent DDF "
      << rep.sheetPermanentDdf * 100.0 << "% -> "
      << (rep.stepCPass ? "PASS" : "FAIL") << "\n";
  out << "[d] wide/global faults: " << rep.wideCampaign.records.size()
      << " injections, " << rep.multiZoneFailures
      << " multiple-zone failures -> " << (rep.stepDPass ? "PASS" : "FAIL")
      << "\n";
  out << "overall: " << (rep.pass() ? "PASS" : "FAIL") << "\n";
}

obs::Json ValidationFlowReport::toJson() const {
  obs::Json j = obs::Json::object();

  obs::Json a = obs::Json::object();
  a["campaign"] = zoneCampaign.toJson();
  a["completeness"] = obs::Json(campaignCompleteness);
  a["max_delta_s"] = obs::Json(zoneValidation.maxDeltaS);
  a["max_delta_ddf"] = obs::Json(zoneValidation.maxDeltaDdf);
  a["effects_consistent"] = obs::Json(zoneValidation.effectsConsistent);
  obs::Json zoneRows = obs::Json::array();
  for (const inject::ZoneComparison& z : zoneValidation.zones) {
    obs::Json e = obs::Json::object();
    e["zone"] = obs::Json(z.zone);
    e["name"] = obs::Json(z.name);
    e["estimated_s"] = obs::Json(z.estimatedS);
    e["measured_s"] = obs::Json(z.measuredS);
    e["estimated_ddf"] = obs::Json(z.estimatedDdf);
    e["measured_ddf"] = obs::Json(z.measuredDdf);
    e["samples"] = obs::Json(z.samples);
    e["pass"] = obs::Json(z.pass);
    zoneRows.push_back(std::move(e));
  }
  a["zones"] = std::move(zoneRows);
  a["pass"] = obs::Json(stepAPass);
  j["step_a"] = std::move(a);

  obs::Json b = obs::Json::object();
  b["nets"] = obs::Json(toggle.nets);
  b["toggled_once"] = obs::Json(toggle.toggledOnce);
  b["toggled_both"] = obs::Json(toggle.toggledBoth);
  b["once_fraction"] = obs::Json(toggle.onceFraction());
  b["both_fraction"] = obs::Json(toggle.bothFraction());
  b["pass"] = obs::Json(stepBPass);
  j["step_b"] = std::move(b);

  obs::Json c = obs::Json::object();
  c["campaign"] = localCampaign.toJson();
  c["measured_sff"] = obs::Json(localMeasuredSff);
  c["faultsim_coverage"] = obs::Json(faultSimCoverage);
  c["sheet_permanent_ddf"] = obs::Json(sheetPermanentDdf);
  c["pass"] = obs::Json(stepCPass);
  j["step_c"] = std::move(c);

  obs::Json d = obs::Json::object();
  d["campaign"] = wideCampaign.toJson();
  d["multi_zone_failures"] = obs::Json(multiZoneFailures);
  d["pass"] = obs::Json(stepDPass);
  j["step_d"] = std::move(d);

  j["pass"] = obs::Json(pass());
  return j;
}

}  // namespace socfmea::core
