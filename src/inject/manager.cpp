#include "inject/manager.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>

#include "faultsim/bitsliced.hpp"
#include "netlist/hash.hpp"
#include "obs/telemetry.hpp"

namespace socfmea::inject {

InjectionManager::InjectionManager(InjectionEnvironment env)
    : env_(std::move(env)), cd_(env_.zones->compiledShared()) {}

void InjectionManager::exportEvalTelemetry(
    const sim::Simulator::PerfCounters& perf) const {
  obs::Registry& reg = obs::Registry::global();
  const netlist::CompiledDesign::Stats s = cd_->stats();
  reg.set("sim.compiled.levels", static_cast<double>(s.levels));
  reg.set("sim.compiled.max_level_width",
          static_cast<double>(s.maxLevelWidth));
  reg.set("sim.compiled.fanout_edges", static_cast<double>(s.fanoutEdges));
  reg.add("inject.full_settles", perf.fullSettles);
  reg.add("inject.event_settles", perf.eventSettles);
  // Fraction of gate evaluations the event-driven worklist skipped relative
  // to settling the whole graph every pass.
  const double possible = static_cast<double>(perf.combEvals) *
                          static_cast<double>(s.combCells);
  if (possible > 0) {
    reg.set("inject.eval_skip_ratio",
            1.0 - static_cast<double>(perf.cellEvals) / possible);
  }
}

std::string_view outcomeName(Outcome o) noexcept {
  switch (o) {
    case Outcome::NoEffect: return "no-effect";
    case Outcome::SafeMasked: return "safe-masked";
    case Outcome::SafeDetected: return "safe-detected";
    case Outcome::DangerousDetected: return "dangerous-detected";
    case Outcome::DangerousUndetected: return "dangerous-undetected";
  }
  return "?";
}

OutcomeTally CampaignResult::tally() const {
  OutcomeTally t;
  t.total = records.size();
  for (const InjectionRecord& r : records) {
    ++t.counts[static_cast<std::size_t>(r.outcome)];
    if (r.obs.diag) {
      ++t.diagFired;
      const std::uint64_t lat = detectionLatency(r);
      t.latencySum += lat;
      t.latencyMax = std::max(t.latencyMax, lat);
    }
  }
  return t;
}

std::size_t CampaignResult::count(Outcome o) const { return tally().count(o); }

double CampaignResult::measuredSafeFraction(const OutcomeTally& t) {
  const std::size_t activated = t.activated();
  if (activated == 0) return 1.0;
  const std::size_t safe =
      t.count(Outcome::SafeMasked) + t.count(Outcome::SafeDetected);
  return static_cast<double>(safe) / static_cast<double>(activated);
}

double CampaignResult::measuredSafeFraction() const {
  return measuredSafeFraction(tally());
}

double CampaignResult::measuredDdf(const OutcomeTally& t) {
  const std::size_t dd = t.count(Outcome::DangerousDetected);
  const std::size_t du = t.count(Outcome::DangerousUndetected);
  if (dd + du == 0) return 1.0;
  return static_cast<double>(dd) / static_cast<double>(dd + du);
}

double CampaignResult::measuredDdf() const { return measuredDdf(tally()); }

std::uint64_t CampaignResult::detectionLatency(const InjectionRecord& r) {
  if (!r.obs.diag) return 0;
  const std::uint64_t start = r.obs.obs ? r.obs.firstObsCycle
                              : r.obs.sens ? r.obs.sensCycle
                                           : r.obs.diagCycle;
  return r.obs.diagCycle > start ? r.obs.diagCycle - start : 0;
}

double CampaignResult::meanDetectionLatency(const OutcomeTally& t) {
  return t.diagFired == 0 ? 0.0
                          : static_cast<double>(t.latencySum) /
                                static_cast<double>(t.diagFired);
}

double CampaignResult::meanDetectionLatency() const {
  return meanDetectionLatency(tally());
}

std::uint64_t CampaignResult::maxDetectionLatency() const {
  return tally().latencyMax;
}

double CampaignResult::measuredSff(const OutcomeTally& t) {
  const std::size_t activated = t.activated();
  if (activated == 0) return 1.0;
  const std::size_t du = t.count(Outcome::DangerousUndetected);
  return 1.0 - static_cast<double>(du) / static_cast<double>(activated);
}

double CampaignResult::measuredSff() const { return measuredSff(tally()); }

obs::Json OutcomeTally::toJson() const {
  obs::Json j = obs::Json::object();
  j["total"] = obs::Json(total);
  for (const Outcome o :
       {Outcome::NoEffect, Outcome::SafeMasked, Outcome::SafeDetected,
        Outcome::DangerousDetected, Outcome::DangerousUndetected}) {
    std::string key(outcomeName(o));
    std::replace(key.begin(), key.end(), '-', '_');
    j[key] = obs::Json(count(o));
  }
  j["activated"] = obs::Json(activated());
  j["diag_fired"] = obs::Json(diagFired);
  j["latency_sum"] = obs::Json(latencySum);
  j["latency_max"] = obs::Json(latencyMax);
  return j;
}

obs::Json CampaignResult::toJson(const zones::ZoneDatabase* db) const {
  const OutcomeTally t = tally();
  obs::Json j = obs::Json::object();
  obs::Json metrics = t.toJson();
  metrics["measured_safe_fraction"] = obs::Json(measuredSafeFraction(t));
  metrics["measured_ddf"] = obs::Json(measuredDdf(t));
  metrics["measured_sff"] = obs::Json(measuredSff(t));
  metrics["mean_detection_latency"] = obs::Json(meanDetectionLatency(t));
  metrics["max_detection_latency"] = obs::Json(t.latencyMax);
  j["metrics"] = std::move(metrics);

  obs::Json exec = obs::Json::object();
  exec["cycles_simulated"] = obs::Json(cyclesSimulated);
  exec["converged_early"] = obs::Json(convergedEarly);
  j["execution"] = std::move(exec);

  if (db != nullptr) {
    // Per-zone criticality (Count weighting): each zone's share of the
    // campaign's dangerous-undetected outcomes, descending.
    struct ZoneCounts {
      std::size_t injected = 0, activated = 0, du = 0, dd = 0;
    };
    std::map<zones::ZoneId, ZoneCounts> byZone;
    std::size_t totalDu = 0;
    for (const InjectionRecord& r : records) {
      ZoneCounts& z = byZone[r.zone];
      ++z.injected;
      if (r.outcome != Outcome::NoEffect) ++z.activated;
      if (r.outcome == Outcome::DangerousUndetected) {
        ++z.du;
        ++totalDu;
      }
      if (r.outcome == Outcome::DangerousDetected) ++z.dd;
    }
    std::vector<std::pair<zones::ZoneId, ZoneCounts>> ranked(byZone.begin(),
                                                             byZone.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second.du != b.second.du) return a.second.du > b.second.du;
      return a.first < b.first;
    });
    obs::Json crit = obs::Json::object();
    crit["du_total"] = obs::Json(totalDu);
    obs::Json zs = obs::Json::array();
    for (const auto& [id, z] : ranked) {
      obs::Json zj = obs::Json::object();
      zj["zone"] = obs::Json(id != zones::kNoZone && id < db->size()
                                 ? db->zone(id).name
                                 : "(none)");
      zj["injected"] = obs::Json(z.injected);
      zj["activated"] = obs::Json(z.activated);
      zj["du"] = obs::Json(z.du);
      zj["dd"] = obs::Json(z.dd);
      zj["du_share"] = obs::Json(
          totalDu == 0 ? 0.0
                       : static_cast<double>(z.du) /
                             static_cast<double>(totalDu));
      zs.push_back(std::move(zj));
    }
    crit["zones"] = std::move(zs);
    j["criticality"] = std::move(crit);
  }
  return j;
}

namespace {

/// IEC classification of one observation.
Outcome classifyObservation(const InjectionObservation& obs,
                            std::uint64_t detectionWindow) {
  if (!obs.obs) {
    if (obs.diag) return Outcome::SafeDetected;
    if (obs.sens) return Outcome::SafeMasked;
    return Outcome::NoEffect;
  }
  const bool timely =
      obs.diag && obs.diagCycle <= obs.firstObsCycle + detectionWindow;
  return timely ? Outcome::DangerousDetected : Outcome::DangerousUndetected;
}

}  // namespace

CampaignResult InjectionManager::run(const faultsim::GoldenRun& golden,
                                     const fault::FaultList& faults,
                                     CoverageCollector* coverage,
                                     const CampaignOptions& opt) {
  // Fold repeated faults (zoneFailureFaults samples injection cycles with
  // replacement, so a site with few live cycles can draw one twice).  This
  // is exact: every serial machine and every bit-sliced lane starts from
  // reset on the same recorded stimulus, so equal faults give equal records.
  std::map<fault::Fault, std::size_t> firstIndex;
  fault::FaultList distinct;
  std::vector<std::size_t> slot;
  slot.reserve(faults.size());
  for (const fault::Fault& f : faults) {
    const auto [it, fresh] = firstIndex.try_emplace(f, distinct.size());
    if (fresh) distinct.push_back(f);
    slot.push_back(it->second);
  }

  CampaignResult result = runDistinct(golden, distinct, opt);
  if (distinct.size() < faults.size()) {
    std::vector<InjectionRecord> records;
    records.reserve(faults.size());
    for (const std::size_t d : slot) records.push_back(result.records[d]);
    result.records = std::move(records);
  }
  if (coverage != nullptr) {
    for (const InjectionRecord& rec : result.records) {
      coverage->account(rec.obs);
    }
  }
  return result;
}

faultsim::Watch InjectionManager::watch() const {
  faultsim::Watch w;
  w.groups.reserve(env_.targetZones.size());
  for (const zones::ZoneId zid : env_.targetZones) {
    w.groups.push_back(env_.zones->zone(zid).valueNets);
  }
  w.points = env_.obsNets;
  w.asserted = env_.alarmNets;
  w.detectionWindow = env_.detectionWindow;
  return w;
}

WatchRun InjectionManager::runWatch(const faultsim::GoldenRun& golden,
                                    const fault::FaultList& faults,
                                    const faultsim::Watch& watch,
                                    const std::optional<fault::Fault>& latent,
                                    faultsim::RetireMode retire,
                                    const CampaignOptions& opt) {
  if (golden.compiled() != cd_) {
    throw std::invalid_argument(
        "InjectionManager::runWatch: the golden run is of another design");
  }
  obs::Registry& reg = obs::Registry::global();
  const faultsim::EngineKind engine =
      opt.engine == faultsim::EngineKind::Auto ? faultsim::EngineKind::Bitsliced
                                               : opt.engine;
  const obs::ScopedTimer campaignTimer(
      "inject.campaign." + std::string(faultsim::engineKindName(engine)));
  WatchRun run;
  if (engine == faultsim::EngineKind::Serial) {
    // The oracle keeps its own golden trace (faultsim/golden_run.hpp).
    const faultsim::StimulusTrace& stim = golden.stimulus();
    const faultsim::GoldenTrace trace = [&] {
      const obs::ScopedTimer t("inject.record_golden");
      return faultsim::recordGolden(cd_, stim, watch);
    }();
    faultsim::SerialCampaign serial = faultsim::runSerialWatch(
        cd_, stim, trace, faults, watch, latent, retire);
    run.observations = std::move(serial.observations);
    run.cyclesSimulated = serial.cycles;
    reg.add("inject.comb_evals", serial.perf.combEvals);
    reg.add("inject.cell_evals", serial.perf.cellEvals);
    exportEvalTelemetry(serial.perf);
  } else {
    faultsim::BitslicedCampaign sliced = faultsim::runBitslicedWatch(
        golden, faults, watch, latent, retire, opt.threads);
    run.observations = std::move(sliced.observations);
    run.cyclesSimulated = sliced.stats.laneCycles;
    run.convergedEarly = sliced.stats.convergedEarly;
    reg.add("inject.converged_early", run.convergedEarly);
  }
  reg.add("inject.campaigns");
  reg.add("inject.faults_simulated", faults.size());
  reg.add("inject.cycles_simulated", run.cyclesSimulated);
  return run;
}

CampaignResult InjectionManager::runDistinct(
    const faultsim::GoldenRun& golden, const fault::FaultList& faults,
    const CampaignOptions& opt) {
  const WatchRun run = runWatch(golden, faults, watch(), opt.preexisting,
                                opt.earlyAbort
                                    ? faultsim::RetireMode::Classify
                                    : faultsim::RetireMode::WashoutOnly,
                                opt);
  CampaignResult result;
  result.cyclesSimulated = run.cyclesSimulated;
  result.convergedEarly = run.convergedEarly;
  result.records.reserve(faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const faultsim::Observation& o = run.observations[fi];
    InjectionRecord rec;
    rec.fault = faults[fi];
    rec.zone = targetZoneOf(*env_.zones, faults[fi]);
    rec.obs.sens = o.sens;
    rec.obs.sensCycle = o.sensCycle;
    rec.obs.zonesDeviated.reserve(o.groupsDeviated.size());
    for (const std::uint32_t t : o.groupsDeviated) {
      rec.obs.zonesDeviated.push_back(env_.targetZones[t]);
    }
    rec.obs.obs = o.obs;
    rec.obs.firstObsCycle = o.firstObsCycle;
    rec.obs.obsDeviated.reserve(o.pointsDeviated.size());
    for (const std::uint32_t i : o.pointsDeviated) {
      rec.obs.obsDeviated.push_back(env_.obsIds[i]);
    }
    rec.obs.diag = o.diag;
    rec.obs.diagCycle = o.diagCycle;
    rec.outcome = classifyObservation(rec.obs, env_.detectionWindow);
    result.records.push_back(std::move(rec));
  }
  return result;
}

fault::FaultList InjectionManager::zoneFailureFaults(
    const OperationalProfile& profile, std::size_t perBit,
    std::uint64_t seed) const {
  fault::FaultList out;
  const auto& db = *env_.zones;
  const netlist::Netlist& nl = db.design();
  for (zones::ZoneId zid : env_.targetZones) {
    const zones::SensibleZone& z = db.zone(zid);
    const auto& act = profile.zone(zid);
    // One RNG per fault site, derived from (seed, site name): the draws for
    // a site are independent of every other zone and flip-flop in the list,
    // so an architectural edit that adds or removes zones leaves the faults
    // of untouched sites identical — the property the incremental flow's
    // delta-campaign reuse keys on.
    const auto pickCycle = [&](sim::Rng& rng) -> std::uint64_t {
      if (!act.activeCycles.empty()) {
        return act.activeCycles[rng.below(act.activeCycles.size())];
      }
      return profile.totalCycles() > 0 ? rng.below(profile.totalCycles()) : 0;
    };
    if (z.kind == zones::ZoneKind::Memory) {
      const auto& mem = nl.memory(z.mem);
      sim::Rng rng(netlist::hashMix(seed, netlist::hashString(z.name)));
      for (std::size_t i = 0; i < perBit * 4; ++i) {
        fault::Fault f;
        f.kind = fault::FaultKind::MemSoftError;
        f.mem = z.mem;
        f.addr = rng.below(std::uint64_t{1} << mem.addrBits);
        f.bit = static_cast<std::uint32_t>(rng.below(mem.dataBits));
        f.cycle = pickCycle(rng);
        out.push_back(f);
      }
      continue;
    }
    for (netlist::CellId ff : z.ffs) {
      sim::Rng rng(
          netlist::hashMix(seed, netlist::hashString(nl.cell(ff).name)));
      for (std::size_t i = 0; i < perBit; ++i) {
        fault::Fault f;
        f.kind = fault::FaultKind::SeuFlip;
        f.cell = ff;
        f.net = nl.cell(ff).output;
        f.cycle = pickCycle(rng);
        out.push_back(f);
      }
    }
  }
  return out;
}

void printCampaign(std::ostream& out, const CampaignResult& r) {
  const OutcomeTally t = r.tally();  // one pass over the records
  out << "campaign: " << r.records.size() << " injections, "
      << r.cyclesSimulated << " cycles\n";
  for (const Outcome o :
       {Outcome::NoEffect, Outcome::SafeMasked, Outcome::SafeDetected,
        Outcome::DangerousDetected, Outcome::DangerousUndetected}) {
    out << "  " << outcomeName(o) << ": " << t.count(o) << "\n";
  }
  out << "  measured safe fraction "
      << CampaignResult::measuredSafeFraction(t) * 100.0 << "%, DDF "
      << CampaignResult::measuredDdf(t) * 100.0 << "%, experimental SFF "
      << CampaignResult::measuredSff(t) * 100.0 << "%\n";
  out << "  detection latency: mean "
      << CampaignResult::meanDetectionLatency(t) << " cycles, max "
      << t.latencyMax << " cycles\n";
  if (r.convergedEarly > 0) {
    out << "  convergence: " << r.convergedEarly << "/" << r.records.size()
        << " machines dropped early after reconverging with the golden run\n";
  }
}

}  // namespace socfmea::inject
