#include "zones/effects.hpp"

#include <algorithm>

#include "netlist/traversal.hpp"

namespace socfmea::zones {

using netlist::CellId;
using netlist::CellType;

namespace {

bool nameMatchesAny(const std::string& name,
                    const std::vector<std::string>& patterns) {
  return std::any_of(patterns.begin(), patterns.end(),
                     [&](const std::string& p) {
                       return name.find(p) != std::string::npos;
                     });
}

}  // namespace

EffectsModel::EffectsModel(const ZoneDatabase& db,
                           std::vector<std::string> alarmNames,
                           bool zonesAsObservationPoints)
    : db_(&db) {
  const auto& nl = db.design();
  for (CellId po : nl.primaryOutputs()) {
    ObservationPoint p;
    p.id = static_cast<ObsId>(points_.size());
    p.kind = nameMatchesAny(nl.cell(po).name, alarmNames) ? ObsKind::Alarm
                                                          : ObsKind::PrimaryOutput;
    p.name = nl.cell(po).name;
    p.nets.push_back(nl.cell(po).inputs[0]);
    points_.push_back(std::move(p));
  }
  if (zonesAsObservationPoints) {
    for (const SensibleZone& z : db.zones()) {
      if (z.kind != ZoneKind::Register && z.kind != ZoneKind::SubBlock) continue;
      ObservationPoint p;
      p.id = static_cast<ObsId>(points_.size());
      p.kind = ObsKind::Zone;
      p.name = z.name;
      p.nets = z.valueNets;
      p.zone = z.id;
      points_.push_back(std::move(p));
    }
  }
  computeReach(db);
}

void EffectsModel::computeReach(const ZoneDatabase& db) {
  const netlist::CompiledDesign& cd = *db.compiledShared();
  reach_.assign(db.size(), std::vector<EffectClass>(points_.size(),
                                                    EffectClass::None));

  for (const SensibleZone& z : db.zones()) {
    // Same-cycle combinational reach of the zone's value, then the
    // multi-cycle reach through other registers.
    const auto combCells = netlist::forwardReach(cd, z.valueNets, false);
    const auto fullCells = netlist::forwardReach(cd, z.valueNets, true, true);
    std::vector<bool> comb(cd.cellCount(), false);
    std::vector<bool> full(cd.cellCount(), false);
    for (CellId c : combCells) comb[c] = true;
    for (CellId c : fullCells) full[c] = true;

    for (const ObservationPoint& p : points_) {
      bool mainHit = false;
      bool anyHit = false;
      if (p.kind == ObsKind::Zone) {
        const SensibleZone& oz = db.zone(p.zone);
        if (oz.id == z.id) continue;  // a zone does not observe itself
        for (CellId ff : oz.ffs) {
          mainHit = mainHit || comb[ff];
          anyHit = anyHit || full[ff];
        }
      } else {
        // Primary output / alarm: the Output cell reads the sampled net.
        for (netlist::NetId n : p.nets) {
          for (CellId sink : cd.fanout(n)) {
            if (cd.cellType(sink) != CellType::Output) continue;
            mainHit = mainHit || comb[sink];
            anyHit = anyHit || full[sink];
          }
          // The zone's own value net may *be* the observed net.
          if (std::find(z.valueNets.begin(), z.valueNets.end(), n) !=
              z.valueNets.end()) {
            mainHit = true;
            anyHit = true;
          }
        }
      }
      if (mainHit) {
        reach_[z.id][p.id] = EffectClass::Main;
      } else if (anyHit) {
        reach_[z.id][p.id] = EffectClass::Secondary;
      }
    }
  }
}

std::vector<ObsId> EffectsModel::alarmPoints() const {
  std::vector<ObsId> out;
  for (const ObservationPoint& p : points_) {
    if (p.kind == ObsKind::Alarm) out.push_back(p.id);
  }
  return out;
}

std::vector<ObsId> EffectsModel::functionalPoints() const {
  std::vector<ObsId> out;
  for (const ObservationPoint& p : points_) {
    if (p.kind != ObsKind::Alarm) out.push_back(p.id);
  }
  return out;
}

const std::vector<EffectClass>& EffectsModel::effectsOf(ZoneId zone) const {
  return reach_.at(zone);
}

std::vector<ObsId> EffectsModel::mainEffects(ZoneId zone) const {
  std::vector<ObsId> out;
  const auto& row = reach_.at(zone);
  for (ObsId p = 0; p < row.size(); ++p) {
    if (row[p] == EffectClass::Main) out.push_back(p);
  }
  return out;
}

std::vector<ObsId> EffectsModel::secondaryEffects(ZoneId zone) const {
  std::vector<ObsId> out;
  const auto& row = reach_.at(zone);
  for (ObsId p = 0; p < row.size(); ++p) {
    if (row[p] == EffectClass::Secondary) out.push_back(p);
  }
  return out;
}

bool EffectsModel::alarmReachable(ZoneId zone) const {
  const auto& row = reach_.at(zone);
  for (const ObservationPoint& p : points_) {
    if (p.kind == ObsKind::Alarm && row[p.id] != EffectClass::None) return true;
  }
  return false;
}

obs::Json EffectsModel::toJson() const {
  const auto kindName = [](ObsKind k) -> std::string_view {
    switch (k) {
      case ObsKind::PrimaryOutput: return "primary-output";
      case ObsKind::Zone: return "zone";
      case ObsKind::Alarm: return "alarm";
    }
    return "?";
  };

  obs::Json j = obs::Json::object();
  obs::Json& points = j["points"];
  points = obs::Json::array();
  for (const ObservationPoint& p : points_) {
    obs::Json e = obs::Json::object();
    e["id"] = obs::Json(p.id);
    e["kind"] = obs::Json(kindName(p.kind));
    e["name"] = obs::Json(p.name);
    if (p.kind == ObsKind::Zone) e["zone"] = obs::Json(p.zone);
    points.push_back(std::move(e));
  }

  obs::Json& zoneEffects = j["zones"];
  zoneEffects = obs::Json::array();
  for (ZoneId z = 0; z < reach_.size(); ++z) {
    obs::Json e = obs::Json::object();
    e["zone"] = obs::Json(z);
    e["name"] = obs::Json(db_->zone(z).name);
    obs::Json main = obs::Json::array();
    for (ObsId o : mainEffects(z)) main.push_back(obs::Json(o));
    e["main"] = std::move(main);
    obs::Json secondary = obs::Json::array();
    for (ObsId o : secondaryEffects(z)) secondary.push_back(obs::Json(o));
    e["secondary"] = std::move(secondary);
    e["alarm_reachable"] = obs::Json(alarmReachable(z));
    zoneEffects.push_back(std::move(e));
  }
  return j;
}

}  // namespace socfmea::zones
