#include "inject/delta.hpp"

#include <optional>

#include "fault/serialize.hpp"
#include "netlist/hash.hpp"
#include "sim/rng.hpp"

namespace socfmea::inject {

namespace {

std::optional<Outcome> outcomeFromName(std::string_view n) {
  for (const Outcome o :
       {Outcome::NoEffect, Outcome::SafeMasked, Outcome::SafeDetected,
        Outcome::DangerousDetected, Outcome::DangerousUndetected}) {
    if (outcomeName(o) == n) return o;
  }
  return std::nullopt;
}

obs::Json nameArray(const std::vector<std::string>& names) {
  obs::Json arr = obs::Json::array();
  for (const std::string& n : names) arr.push_back(n);
  return arr;
}

bool sameObservation(const InjectionObservation& a,
                     const InjectionObservation& b) {
  return a.sens == b.sens && a.sensCycle == b.sensCycle &&
         a.zonesDeviated == b.zonesDeviated && a.obs == b.obs &&
         a.firstObsCycle == b.firstObsCycle &&
         a.obsDeviated == b.obsDeviated && a.diag == b.diag &&
         a.diagCycle == b.diagCycle;
}

}  // namespace

std::optional<InjectionRecord> bindCachedRecord(
    const CachedRecord& c, const fault::Fault& f,
    const zones::ZoneDatabase& db, const zones::EffectsModel& effects) {
  InjectionRecord rec;
  rec.fault = f;
  rec.outcome = c.outcome;
  if (!c.zone.empty()) {
    const auto z = db.findZone(c.zone);
    if (!z) return std::nullopt;
    rec.zone = *z;
  }
  rec.obs.sens = c.sens;
  rec.obs.sensCycle = c.sensCycle;
  for (const std::string& name : c.zonesDeviated) {
    const auto z = db.findZone(name);
    if (!z) return std::nullopt;
    rec.obs.zonesDeviated.push_back(*z);
  }
  rec.obs.obs = c.obsHit;
  rec.obs.firstObsCycle = c.firstObsCycle;
  for (const std::string& name : c.obsDeviated) {
    std::optional<zones::ObsId> id;
    for (const zones::ObservationPoint& p : effects.points()) {
      if (p.name == name) {
        id = p.id;
        break;
      }
    }
    if (!id) return std::nullopt;
    rec.obs.obsDeviated.push_back(*id);
  }
  rec.obs.diag = c.diag;
  rec.obs.diagCycle = c.diagCycle;
  return rec;
}

std::optional<std::vector<InjectionRecord>> bindCampaignRecords(
    const CachedCampaign& cache, const netlist::Netlist& nl,
    const fault::FaultList& faults, const zones::ZoneDatabase& db,
    const zones::EffectsModel& effects) {
  std::vector<InjectionRecord> out;
  out.reserve(faults.size());
  for (const fault::Fault& f : faults) {
    const auto it = cache.byKey.find(fault::faultKey(nl, f));
    if (it == cache.byKey.end()) return std::nullopt;
    std::optional<InjectionRecord> rec =
        bindCachedRecord(it->second, f, db, effects);
    if (!rec) return std::nullopt;
    out.push_back(std::move(*rec));
  }
  return out;
}

obs::Json campaignRecordsToJson(const netlist::Netlist& nl,
                                const zones::ZoneDatabase& db,
                                const zones::EffectsModel& effects,
                                const CampaignResult& r) {
  obs::Json j = obs::Json::object();
  j["schema"] = "socfmea.campaign_artifact/1";
  obs::Json arr = obs::Json::array();
  for (const InjectionRecord& rec : r.records) {
    obs::Json rj = obs::Json::object();
    rj["key"] = fault::faultKey(nl, rec.fault);
    rj["zone"] = rec.zone != zones::kNoZone ? db.zone(rec.zone).name : "";
    rj["outcome"] = std::string(outcomeName(rec.outcome));
    rj["sens"] = rec.obs.sens;
    rj["sens_cycle"] = static_cast<long long>(rec.obs.sensCycle);
    std::vector<std::string> zoneNames;
    for (const zones::ZoneId z : rec.obs.zonesDeviated) {
      zoneNames.push_back(db.zone(z).name);
    }
    rj["zones_deviated"] = nameArray(zoneNames);
    rj["obs"] = rec.obs.obs;
    rj["first_obs_cycle"] = static_cast<long long>(rec.obs.firstObsCycle);
    std::vector<std::string> obsNames;
    for (const zones::ObsId o : rec.obs.obsDeviated) {
      obsNames.push_back(effects.point(o).name);
    }
    rj["obs_deviated"] = nameArray(obsNames);
    rj["diag"] = rec.obs.diag;
    rj["diag_cycle"] = static_cast<long long>(rec.obs.diagCycle);
    arr.push_back(std::move(rj));
  }
  j["records"] = std::move(arr);
  return j;
}

CachedCampaign CachedCampaign::fromJson(const obs::Json& j) {
  CachedCampaign c;
  const obs::Json* schema = j.find("schema");
  if (schema == nullptr || !schema->isString() ||
      schema->asString() != "socfmea.campaign_artifact/1") {
    return c;
  }
  const obs::Json* arr = j.find("records");
  if (arr == nullptr || !arr->isArray()) return c;
  for (const obs::Json& rj : arr->elements()) {
    const obs::Json* key = rj.find("key");
    const obs::Json* outcome = rj.find("outcome");
    if (key == nullptr || !key->isString() || outcome == nullptr ||
        !outcome->isString()) {
      continue;
    }
    const auto o = outcomeFromName(outcome->asString());
    if (!o) continue;
    CachedRecord rec;
    rec.outcome = *o;
    const auto str = [&rj](std::string_view k) -> std::string {
      const obs::Json* v = rj.find(k);
      return v != nullptr && v->isString() ? v->asString() : std::string();
    };
    const auto boolean = [&rj](std::string_view k) {
      const obs::Json* v = rj.find(k);
      return v != nullptr && v->isBool() && v->asBool();
    };
    const auto integer = [&rj](std::string_view k) -> std::uint64_t {
      const obs::Json* v = rj.find(k);
      return v != nullptr && v->isInt()
                 ? static_cast<std::uint64_t>(v->asInt())
                 : 0;
    };
    const auto strings = [&rj](std::string_view k) {
      std::vector<std::string> out;
      const obs::Json* v = rj.find(k);
      if (v != nullptr && v->isArray()) {
        for (const obs::Json& e : v->elements()) {
          if (e.isString()) out.push_back(e.asString());
        }
      }
      return out;
    };
    rec.zone = str("zone");
    rec.sens = boolean("sens");
    rec.sensCycle = integer("sens_cycle");
    rec.zonesDeviated = strings("zones_deviated");
    rec.obsHit = boolean("obs");
    rec.firstObsCycle = integer("first_obs_cycle");
    rec.obsDeviated = strings("obs_deviated");
    rec.diag = boolean("diag");
    rec.diagCycle = integer("diag_cycle");
    c.byKey.emplace(key->asString(), std::move(rec));
  }
  return c;
}

obs::Json DeltaStats::toJson() const {
  obs::Json j = obs::Json::object();
  j["faults_total"] = static_cast<long long>(total);
  j["faults_reused"] = static_cast<long long>(reused);
  j["faults_resimulated"] = static_cast<long long>(simulated);
  j["revalidated"] = static_cast<long long>(revalidated);
  j["revalidate_mismatches"] = static_cast<long long>(mismatches);
  j["affected_cells"] = static_cast<long long>(affectedCells);
  j["resim_fraction"] =
      total == 0 ? 0.0
                 : static_cast<double>(simulated) / static_cast<double>(total);
  return j;
}

CampaignResult runCampaignDelta(InjectionManager& mgr, sim::Workload& wl,
                                const fault::FaultList& faults,
                                const CachedCampaign& cache,
                                const netlist::AffectedCone& cone,
                                const netlist::CompiledDesign& cd,
                                CoverageCollector* coverage,
                                const CampaignOptions& opt,
                                double revalidateFraction,
                                std::uint64_t revalidateSeed,
                                DeltaStats* stats) {
  const netlist::Netlist& nl = cd.design();
  const zones::ZoneDatabase& db = *mgr.environment().zones;
  const zones::EffectsModel& effects = *mgr.environment().effects;

  DeltaStats st;
  st.total = faults.size();
  st.affectedCells = cone.affectedCells;

  // Partition the list: every fault is either simulated or bound to a cached
  // record (possibly both, for the revalidation sample).
  struct Slot {
    std::optional<InjectionRecord> bound;  // cached verdict, rebound
    bool revalidate = false;
    std::size_t simIndex = 0;  // into simFaults when simulated/revalidated
  };
  std::vector<Slot> slots(faults.size());
  fault::FaultList simFaults;
  std::vector<std::size_t> reusedIdx;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const fault::Fault& f = faults[i];
    Slot& slot = slots[i];
    if (!netlist::faultAffected(cone, cd, f)) {
      const std::string key = fault::faultKey(nl, f);
      const auto it = cache.byKey.find(key);
      if (it != cache.byKey.end()) {
        slot.bound = bindCachedRecord(it->second, f, db, effects);
        if (slot.bound) {
          // Deterministic per-fault draw, independent of the rest of the
          // list, so the sample is stable under fault-list growth.
          sim::Rng rng(netlist::hashMix(revalidateSeed,
                                        netlist::hashString(key)));
          slot.revalidate =
              revalidateFraction > 0.0 && rng.chance(revalidateFraction);
        }
      }
    }
    if (!slot.bound || slot.revalidate) {
      slot.simIndex = simFaults.size();
      simFaults.push_back(f);
    }
    if (slot.bound) reusedIdx.push_back(i);
  }

  // Reused records never re-enter the simulator, so their coverage counters
  // are accumulated here; CoverageCollector sums are order-independent, so
  // the result equals a cold run's.
  CampaignResult sim = mgr.run(wl, simFaults, coverage, opt);

  bool mismatch = false;
  for (const std::size_t i : reusedIdx) {
    const Slot& slot = slots[i];
    if (!slot.revalidate) continue;
    ++st.revalidated;
    const InjectionRecord& fresh = sim.records[slot.simIndex];
    if (fresh.outcome != slot.bound->outcome ||
        fresh.zone != slot.bound->zone ||
        !sameObservation(fresh.obs, slot.bound->obs)) {
      ++st.mismatches;
      mismatch = true;
    }
  }

  CampaignResult merged;
  merged.cyclesSimulated = sim.cyclesSimulated;
  merged.convergedEarly = sim.convergedEarly;

  if (mismatch) {
    // The cache lied somewhere: drop every reused verdict and re-simulate
    // the lot — correctness beats the speed-up.  Revalidated faults already
    // have fresh records in `sim`; only the silently-reused rest re-runs.
    fault::FaultList rest;
    std::vector<std::size_t> restIdx;
    for (const std::size_t i : reusedIdx) {
      if (!slots[i].revalidate) {
        restIdx.push_back(i);
        rest.push_back(faults[i]);
      }
    }
    CampaignResult fresh = mgr.run(wl, rest, coverage, opt);
    merged.cyclesSimulated += fresh.cyclesSimulated;
    merged.convergedEarly += fresh.convergedEarly;
    for (std::size_t k = 0; k < restIdx.size(); ++k) {
      slots[restIdx[k]].bound = fresh.records[k];
    }
    st.simulated = st.total;
    st.reused = 0;
  } else {
    st.simulated = simFaults.size();
    st.reused = st.total - st.simulated;
  }

  merged.records.reserve(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Slot& slot = slots[i];
    const bool simulated = !slot.bound || slot.revalidate;
    if (simulated) {
      merged.records.push_back(sim.records[slot.simIndex]);
    } else if (mismatch) {
      // Fallback path: `bound` now holds the fresh record and mgr.run
      // already accounted its coverage.
      merged.records.push_back(*slot.bound);
    } else {
      merged.records.push_back(*slot.bound);
      if (coverage != nullptr) coverage->account(slot.bound->obs);
    }
  }

  if (stats != nullptr) *stats = st;
  return merged;
}

}  // namespace socfmea::inject
